"""The public names: every ``__all__`` entry and every package import
resolves, the modules import one another in one direction only, and the
numeric layers load only when first used."""

import ast
import importlib
import subprocess
import sys
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
    from permsep import states

    assert len(permsep._STATES_NAMES) == 18
    for name in permsep._STATES_NAMES:
        assert name in states.__all__, name
        assert getattr(permsep, name) is getattr(states, name), name


def test_lazy_names_follow_their_module(monkeypatch):
    # nothing is cached in the package: a patch of the module is seen at once
    from permsep import states

    def patched(operator):
        return -1.0

    monkeypatch.setattr(states, "trace_norm", patched)
    assert permsep.trace_norm is patched
    monkeypatch.undo()
    assert permsep.trace_norm is states.trace_norm is not patched
    assert "trace_norm" not in vars(permsep)


def test_dir_lists_the_lazy_names():
    listed = dir(permsep)
    assert set(permsep._STATES_NAMES) <= set(listed)
    assert {"canonical_key", "enumerate_classes", "Permutation", "__version__"} <= set(listed)
    assert listed == sorted(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        permsep.no_such_name  # noqa: B018
    assert not hasattr(permsep, "VERDICT_TOLERANCE")  # states-only, as before


# what ``from permsep import *`` exported before the package had an __all__
STAR_NAMES = {
    "Arrow", "ArrowConfiguration", "CanonicalKey", "ClassNorm", "CriterionReport",
    "DensityMatrix", "Permutation", "PermutationParseError", "StateFileError",
    "StateValidationError", "apply_permutation", "arrows", "as_permutation",
    "basis_product_state", "bell_pair_state", "canonical_key", "canonicalize",
    "census_by_type", "census_records", "chop", "class_count", "classify", "compose",
    "cycle_decomposition", "detector_state", "enumerate_classes", "equivalent",
    "evaluate_criteria", "exchange_heads", "flip", "generators", "ghz_state",
    "global_transpose", "group_elements", "identity", "inverse", "is_norm_preserving",
    "maximally_mixed_state", "normal_form", "normgroup", "parse_permutation", "perms",
    "permutation_from_cycles", "prune", "random_separable_state", "random_state",
    "read_state_file", "representative_permutation", "states", "swap_operator",
    "trace_norm", "type_label", "write_state_file",
}


def test_star_import_exports_the_same_names():
    namespace = {}
    exec("from permsep import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == STAR_NAMES
    assert sorted(permsep.__all__) == sorted(STAR_NAMES)
    from permsep import states

    assert namespace["trace_norm"] is states.trace_norm


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports permsep from this
    checkout; its standard output."""
    src = str(Path(permsep.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout


_RUN = (
    "from permsep.cli import main\n"
    "try:\n"
    "    main.main(args={args!r}, prog_name='permsep')\n"
    "except SystemExit as exc:\n"
    "    assert exc.code in (0, None), exc.code\n"
    "print('numpy' in sys.modules, sorted(m for m in sys.modules if m.startswith('permsep')))"
)
_COMBINATORIAL = ["permsep", "permsep._defaults", "permsep.arrows", "permsep.cli",
                  "permsep.normgroup", "permsep.perms"]


@pytest.mark.parametrize("code", ["import permsep", "from permsep import cli"])
def test_imports_leave_numpy_out(code):
    out = _fresh(f"{code}; print('numpy' in sys.modules)")
    assert out == "False\n"


@pytest.mark.parametrize("args", [
    ["canon", "-r", "3", "--trace", "--sketch", "(2,3)(4,6)"],
    ["equiv", "-r", "3", "(2,3)", "(1,4)"],
    ["list", "-r", "4"],
    ["enumerate-cosets", "-r", "4", "--format", "csv"],
    ["eval", "--help"],
], ids=["canon", "equiv", "list", "enumerate-cosets", "eval-help"])
def test_combinatorial_commands_leave_numpy_out(args):
    out = _fresh(_RUN.format(args=args)).splitlines()[-1]
    assert out == f"False {_COMBINATORIAL}"


def test_numeric_commands_load_their_layers(tmp_path):
    from permsep import bell_pair_state, write_state_file

    path = tmp_path / "bell.state"
    write_state_file(str(path), bell_pair_state(2, 2, 1, 2))
    out = _fresh(_RUN.format(args=["eval", str(path)])).splitlines()
    assert out[-2] == "verdict: ENTANGLED"
    assert out[-1].startswith("True ") and "'permsep.states'" in out[-1]
    out = _fresh(_RUN.format(args=["selftest", "--only", "worked-example"])).splitlines()
    assert out[-2] == "1/1 checks passed"
    assert out[-1].startswith("True ") and "'permsep.selftest'" in out[-1]


def test_cli_reads_its_numeric_names_at_each_call(monkeypatch, tmp_path):
    from click.testing import CliRunner

    from permsep import cli, selftest, states

    assert cli.evaluate_criteria is states.evaluate_criteria
    assert cli.read_state_file is states.read_state_file
    assert cli._valid_tolerance is states._valid_tolerance
    assert cli.run_checks is selftest.run_checks
    assert "evaluate_criteria" not in vars(cli)
    with pytest.raises(AttributeError, match="no attribute 'trace_norm'"):
        cli.trace_norm  # noqa: B018
    # a wrapper put into states after the import, as perfbench's tracer does,
    # is what ``eval`` calls
    path = tmp_path / "bell.state"
    states.write_state_file(str(path), states.bell_pair_state(2, 2, 1, 2))
    real, tolerances = states.evaluate_criteria, []

    def wrapped(rho, tolerance):
        tolerances.append(tolerance)
        return real(rho, tolerance=tolerance)

    monkeypatch.setattr(states, "evaluate_criteria", wrapped)
    result = CliRunner().invoke(cli.main, ["eval", "--tolerance", "0.5", str(path)])
    assert result.exit_code == 0 and result.output.endswith("verdict: ENTANGLED\n")
    assert tolerances == [0.5]
    # and so is one put into cli, as perfbench/selfcheck.py does; deleted
    # afterwards, since monkeypatch would restore the original into cli
    monkeypatch.undo()
    cli.evaluate_criteria = wrapped
    try:
        assert CliRunner().invoke(cli.main, ["eval", str(path)]).exit_code == 0
    finally:
        del cli.evaluate_criteria
    assert tolerances == [0.5, 1e-9]
    assert cli.evaluate_criteria is states.evaluate_criteria


# each module imports only the modules listed before it
LAYERS = ["_defaults", "_lapack", "perms", "arrows", "normgroup", "states", "selftest", "cli"]


@pytest.mark.parametrize("index", range(len(LAYERS)), ids=LAYERS)
def test_modules_import_only_earlier_layers(index):
    mod = importlib.import_module(f"permsep.{LAYERS[index]}")
    tree = ast.parse(Path(mod.__file__).read_text(encoding="utf-8"))
    # ast.walk also sees imports inside functions, such as the lazy
    # ``from . import states`` of a module __getattr__
    imported = {
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for name in ([node.module] if node.module else [a.name for a in node.names])
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
    (lambda: permsep.CanonicalKey(HUGE, (), ()), ValueError, "r must be"),
    (lambda: permsep.CanonicalKey(-HUGE, (), ()), ValueError, "r must be"),
    (lambda: permsep.ArrowConfiguration(HUGE, frozenset()), ValueError, "r must be"),
    (lambda: permsep.ArrowConfiguration(-HUGE, frozenset()), ValueError, "r must be"),
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
