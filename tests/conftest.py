"""Shared test configuration: a deterministic, bounded hypothesis profile,
and a fixture that counts the calls of a library function.

Property tests draw the same examples on every run and write no example
database, so the suite stays reproducible and its run time bounded.
"""

import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "deterministic",
    derandomize=True,
    database=None,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps ``module.name`` in every
    ``torifactor`` namespace that binds it, and returns the list that
    receives the arguments of each call."""

    def install(module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module_name, namespace in list(sys.modules.items()):
            if module_name.startswith("torifactor") and getattr(namespace, name, None) is original:
                monkeypatch.setattr(namespace, name, counted)
        return calls

    return install
