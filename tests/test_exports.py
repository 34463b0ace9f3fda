"""The package re-exports only what its modules declare public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import affinecurv


def reexports():
    """(module, name) for each name the package imports from its modules."""
    tree = ast.parse(Path(affinecurv.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_package_exports_match_each_module_all():
    pairs = reexports()
    assert len(pairs) > 50
    undeclared = [(module, name) for module, name in pairs
                  if name not in importlib.import_module("affinecurv." + module).__all__]
    assert undeclared == []
    for info in pkgutil.iter_modules(affinecurv.__path__):
        module = importlib.import_module("affinecurv." + info.name)
        absent = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert absent == [], info.name
