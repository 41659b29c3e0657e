"""Every name in a module's ``__all__`` resolves, and appears there once.

A stale export string in a module that no other module imports by name
would otherwise go unnoticed until a ``from fmamm.<module> import *``.
"""

import importlib
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
