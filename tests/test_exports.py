"""Every exported name resolves: each module's ``__all__`` and the package's
re-exports, so a deleted function cannot linger in an export list."""

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
    tree = ast.parse(Path(degmix.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(imported) > 50
    missing = [
        (mod, n) for mod, n in imported
        if not hasattr(importlib.import_module("degmix." + mod), n) or not hasattr(degmix, n)
    ]
    assert missing == []
