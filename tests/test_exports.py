"""Every exported name resolves: each module's ``__all__`` and the package's
re-exports, so a deleted function cannot linger in an export list."""

import importlib
import pkgutil

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
