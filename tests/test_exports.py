"""Every exported name resolves: each module's ``__all__`` and the package's
re-exports, so a deleted function cannot linger in an export list.  No
module checks anything with ``assert``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import degmix

MODULES = sorted(m.name for m in pkgutil.iter_modules(degmix.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module("degmix." + name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    # the package loads each name from its module on first access
    imported = [(mod, n) for n, mod in degmix._SOURCE.items()]
    assert len(imported) > 50
    missing = [
        (mod, n) for mod, n in imported
        if not hasattr(importlib.import_module("degmix." + mod), n) or not hasattr(degmix, n)
    ]
    assert missing == []
    star = {}
    exec("from degmix import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(n for _, n in imported)


def test_no_module_relies_on_assert():
    # ``python -O`` strips assert statements, and the checks with them
    found = []
    for name in ["__init__"] + MODULES:
        path = Path(degmix.__file__).with_name(name + ".py")
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
