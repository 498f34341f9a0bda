"""Static checks on the package source: the public API list matches the
imports of ``__init__``, every public name is used in the package or named
in the README, no module keeps an unused import or an uncalled private
top-level helper, and the CLI uses only public names."""

import ast
import re
from pathlib import Path

import torifactor

SRC = Path(torifactor.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _imported_names(tree):
    """Local names bound by the module-level imports of ``tree``, except
    ``from __future__`` imports."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    return names


def _loaded_names(tree):
    """Names read as variables anywhere in ``tree``."""
    return {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_all_lists_exactly_the_imported_names():
    tree = MODULES["__init__"]
    assert len(torifactor.__all__) == len(set(torifactor.__all__))
    assert sorted(torifactor.__all__) == sorted(_imported_names(tree))
    assert all(hasattr(torifactor, name) for name in torifactor.__all__)


def test_every_public_name_is_used_in_the_package_or_named_in_the_readme():
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    used = set()
    for stem, tree in MODULES.items():
        if stem != "__init__":
            used |= _loaded_names(tree)
    unused = [
        name
        for name in torifactor.__all__
        if name not in used and not re.search(rf"`{re.escape(name)}\b", readme)
    ]
    assert unused == []


def test_no_module_imports_a_name_it_does_not_use():
    unused = [
        f"{stem}.{name}"
        for stem, tree in MODULES.items()
        if stem != "__init__"
        for name in _imported_names(tree)
        if name not in _loaded_names(tree)
    ]
    assert unused == []


def test_every_private_helper_has_a_caller():
    # a helper is reached by name in its own module or as an attribute elsewhere
    referenced = set()
    for tree in MODULES.values():
        referenced |= _loaded_names(tree)
        referenced |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    defined = []
    for stem, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((stem, node.name))
            elif isinstance(node, ast.Assign):
                defined += [(stem, t.id) for t in node.targets if isinstance(t, ast.Name)]
    uncalled = [
        f"{stem}.{name}"
        for stem, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in referenced
    ]
    assert uncalled == []


def test_cli_imports_no_private_name_from_the_package():
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(MODULES["cli"])
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("torifactor"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_search_limit_is_one_class_from_intmat():
    from torifactor import intmat, reconstruction

    assert torifactor.SearchLimitExceeded is intmat.SearchLimitExceeded
    assert reconstruction.SearchLimitExceeded is intmat.SearchLimitExceeded
