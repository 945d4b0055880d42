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


# more digits than str() may print: 4300 by default
HUGE = 10**5000
_KEY = permsep.enumerate_classes(2)[1]


@pytest.mark.parametrize("call, exception, named", [
    (lambda: permsep.maximally_mixed_state(HUGE, 2), ValueError, "2^r"),
    (lambda: permsep.maximally_mixed_state(-HUGE, 2), ValueError, "subsystem count"),
    (lambda: permsep.maximally_mixed_state(2, HUGE), ValueError, "local dimension"),
    (lambda: permsep.maximally_mixed_state(2, -HUGE), ValueError, "local dimension"),
    (lambda: permsep.swap_operator(3, 2, HUGE, 2), ValueError, "k="),
    (lambda: permsep.swap_operator(3, 2, -HUGE, 2), ValueError, "k="),
    (lambda: permsep.swap_operator(3, 2, 1, HUGE), ValueError, "l="),
    (lambda: permsep.swap_operator(3, 2, 1, -HUGE), ValueError, "l="),
    (lambda: permsep.bell_pair_state(3, 2, 1, HUGE), ValueError, "l="),
    (lambda: permsep.bell_pair_state(3, 2, -HUGE, 2), ValueError, "k="),
    (lambda: permsep.basis_product_state(2, 2, (0, HUGE)), ValueError, "levels"),
    (lambda: permsep.basis_product_state(2, 2, (0, -HUGE)), ValueError, "levels"),
    (lambda: permsep.random_state(2, 2, seed=-HUGE), ValueError, "seed"),
    (lambda: permsep.random_separable_state(2, 2, seed=-HUGE), ValueError, "seed"),
    (lambda: permsep.random_separable_state(2, 2, terms=-HUGE), ValueError, "product term"),
    (lambda: permsep.detector_state(_KEY, -HUGE), ValueError, "local dimension"),
    (lambda: permsep.group_elements(HUGE), ValueError, "r must be"),
    (lambda: permsep.group_elements(-HUGE), ValueError, "r must be"),
    (lambda: permsep.enumerate_classes(HUGE), ValueError, "r must be"),
    (lambda: permsep.enumerate_classes(-HUGE), ValueError, "r must be"),
    (lambda: permsep.parse_permutation("(1,2)", HUGE), permsep.PermutationParseError, "degree"),
    (lambda: permsep.parse_permutation("(1,2)", -HUGE), permsep.PermutationParseError, "degree"),
    (lambda: permsep.parse_permutation("(1,2)", HUGE + 1), permsep.PermutationParseError, "degree"),
    (lambda: permsep.CanonicalKey(-HUGE, (), ()), ValueError, "r must be"),
    (lambda: permsep.CanonicalKey(2, (HUGE,), (1,)), ValueError, "heads"),
    (lambda: permsep.CanonicalKey(2, (1,), (-HUGE,)), ValueError, "tails"),
    (lambda: permsep.Permutation((HUGE, 1)), ValueError, "images"),
    (lambda: permsep.Permutation((-HUGE, 1)), ValueError, "images"),
    (lambda: permsep.Permutation([HUGE, 1]), TypeError, "images"),
    (lambda: permsep.identity(2)(HUGE), ValueError, "point"),
])
def test_guards_echo_huge_integers(call, exception, named):
    # the guard's own message, not str()'s "Exceeds the limit (4300 digits)"
    with pytest.raises(exception) as caught:
        call()
    message = str(caught.value)
    assert named in message and "Exceeds the limit" not in message, message
