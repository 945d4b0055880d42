"""The public names: every ``__all__`` entry and every package import resolves."""

import ast
import importlib

import pytest

import permsep


@pytest.mark.parametrize("name", ["perms", "arrows", "normgroup", "states", "selftest"])
def test_all_entries_resolve(name):
    mod = importlib.import_module(f"permsep.{name}")
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []


def test_package_imports_resolve():
    tree = ast.parse(open(permsep.__file__, encoding="utf-8").read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"permsep.{node.module}")
        for alias in node.names:
            assert hasattr(mod, alias.name), f"{node.module}.{alias.name}"
            assert getattr(permsep, alias.asname or alias.name) is getattr(mod, alias.name)
