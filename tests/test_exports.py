"""Every name in a module's ``__all__`` resolves, and appears there once.

A stale export string in a module that no other module imports by name
would otherwise go unnoticed until a ``from fmamm.<module> import *``.
"""

import ast
import importlib
import inspect
import pkgutil

import pytest

import fmamm

MODULES = ["fmamm"] + [f"fmamm.{m.name}" for m in pkgutil.iter_modules(fmamm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), sorted(n for n in exported if exported.count(n) > 1)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_names_imported_across_modules_are_exported():
    # a public name one fmamm module imports from another is in that one's ``__all__``
    missing = []
    for name in MODULES:
        for node in ast.walk(ast.parse(inspect.getsource(importlib.import_module(name)))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fmamm"):
                exported = importlib.import_module(node.module).__all__
                missing += [f"{name}: {node.module}.{alias.name}" for alias in node.names
                            if not alias.name.startswith("_") and alias.name not in exported]
    assert missing == []
