"""The public names: every ``__all__`` entry and every package import
resolves, and the modules import one another in one direction only."""

import ast
import importlib
from pathlib import Path

import pytest

import permsep


@pytest.mark.parametrize("name", ["perms", "arrows", "normgroup", "states", "selftest"])
def test_all_entries_resolve(name):
    mod = importlib.import_module(f"permsep.{name}")
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(permsep.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"permsep.{node.module}")
        for alias in node.names:
            assert hasattr(mod, alias.name), f"{node.module}.{alias.name}"
            assert getattr(permsep, alias.asname or alias.name) is getattr(mod, alias.name)



# each module imports only the modules listed before it
LAYERS = ["_lapack", "perms", "arrows", "normgroup", "states", "selftest", "cli"]


@pytest.mark.parametrize("index", range(len(LAYERS)), ids=LAYERS)
def test_modules_import_only_earlier_layers(index):
    mod = importlib.import_module(f"permsep.{LAYERS[index]}")
    tree = ast.parse(Path(mod.__file__).read_text(encoding="utf-8"))
    # ast.walk also sees imports inside functions
    imported = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    }
    assert imported <= set(LAYERS[:index]), imported - set(LAYERS[:index])
