"""Public-API guard: every exported name exists where it is declared.

The package ``__init__`` re-exports names from its submodules, and tools that
instrument the package walk each submodule's ``__all__``; a stale entry in
either place breaks them.
"""

import ast
import importlib
import pkgutil

import pytest

import balancedtv

MODULES = sorted(info.name for info in pkgutil.iter_modules(balancedtv.__path__)
                 if not info.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"balancedtv.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_imports_only_exported_names():
    with open(balancedtv.__file__) as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "the package imports only from its own submodules"
        exported = importlib.import_module(f"balancedtv.{node.module}").__all__
        assert [alias.name for alias in node.names if alias.name not in exported] == []
