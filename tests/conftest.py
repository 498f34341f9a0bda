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
    ``torifactor`` namespace that binds it, or with ``everywhere=False`` in
    ``module`` alone, and returns the list that receives the arguments of
    each call."""

    def install(module, name, everywhere=True):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        namespaces = [module]
        if everywhere:
            namespaces = [ns for mod, ns in list(sys.modules.items()) if mod.startswith("torifactor")]
        for namespace in namespaces:
            if getattr(namespace, name, None) is original:
                monkeypatch.setattr(namespace, name, counted)
        return calls

    return install
