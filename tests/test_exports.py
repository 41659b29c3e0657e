"""Every name in a module's ``__all__`` resolves, and appears there once.

A stale export string in a module that no other module imports by name
would otherwise go unnoticed until a ``from fmamm.<module> import *``.
Every third-party module the package imports is a declared dependency.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

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


def test_package_root_exports_only_the_version():
    # each public name has one import path, its module's; a bare ``import
    # fmamm`` loads none of them
    probe = "import sys, fmamm; print(fmamm.__all__, 'fmamm.amm' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(Path(fmamm.__file__).parents[1])),
                          timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "['__version__'] False\n", "")


def test_imported_packages_are_declared_dependencies():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    root = Path(__file__).parents[1]
    imported = set()
    for path in (root / "src" / "fmamm").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"fmamm"}
    requirements = tomllib.loads((root / "pyproject.toml").read_text())["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
                for r in requirements}
    assert "numpy" in third_party
    assert sorted(third_party - declared) == []
