"""Command-line surface: frozen outputs, exit codes, determinism."""

import contextlib
import csv
import gc
import io
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

from permsep import (
    DensityMatrix, _lapack, bell_pair_state, maximally_mixed_state, random_state, states, write_state_file,
)
from permsep import Permutation, census_records, cli, enumerate_classes, selftest
from permsep.arrows import _arrows_of_sets, _permutation_of_arrows
from permsep.cli import main
from permsep.selftest import CHECK_NAMES, CheckResult


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


class TestCanon:
    def test_worked_example(self, runner):
        result = invoke(runner, "canon", "-r", "6", "(3,12,1,2,10,8)(4,5,6)")
        assert result.exit_code == 0
        assert result.output == (
            "normal form: @2, 4->1, 6->3\n"
            "canonical key: H={4,5,6} T={1,3,5}\n"
            "label: 2R+QT\n"
        )

    def test_trivial_class(self, runner):
        result = invoke(runner, "canon", "-r", "2", "(1,2)(3,4)")
        assert result.exit_code == 0
        assert result.output == (
            "normal form: @1, @2\n"
            "canonical key: H={} T={}\n"
            "label: trivial\n"
        )

    def test_reshuffle(self, runner):
        result = invoke(runner, "canon", "-r", "2", "(2,3)")
        assert result.exit_code == 0
        assert result.output == (
            "normal form: 1->2\n"
            "canonical key: H={2} T={1}\n"
            "label: R\n"
        )

    def test_trace_mode(self, runner):
        result = invoke(runner, "canon", "-r", "6", "--trace", "(3,12,1,2,10,8)(4,5,6)")
        assert result.exit_code == 0
        assert result.output == (
            "cycles: (1,2,10,8,3,12)(4,5,6)\n"
            "prune: drop 2 (equal parity neighbour 10); multiplier (2,10)"
            " -> (1,10,8,3,12)(4,5,6)\n"
            "prune: drop 10 (equal parity neighbour 8); multiplier (10,8)"
            " -> (1,8,3,12)(4,5,6)\n"
            "prune: drop 6 (equal parity neighbour 4); multiplier (6,4)"
            " -> (1,8,3,12)(4,5)\n"
            "chop: split cycles into disjoint transpositions; multiplier (1,3)"
            " -> (1,8)(3,12)(4,5)\n"
            "read-arrows: read arrows off the transpositions; multiplier -"
            " -> 2->3, 4->1, 6->2\n"
            "exchange-heads: exchange heads of 6->2 and 2->3; multiplier (3,5)(12,4)"
            " -> @2, 4->1, 6->3\n"
            "normal form: @2, 4->1, 6->3\n"
            "canonical key: H={4,5,6} T={1,3,5}\n"
            "label: 2R+QT\n"
        )

    def test_byte_identical_reruns(self, runner):
        args = ("canon", "-r", "6", "--trace", "(3,12,1,2,10,8)(4,5,6)")
        assert invoke(runner, *args).output == invoke(runner, *args).output

    def test_sketch(self, runner):
        result = invoke(runner, "canon", "-r", "2", "--sketch", "(2,3)")
        assert result.exit_code == 0
        assert result.output == (
            "normal form: 1->2\n"
            "sketch (rows: tails, columns: heads):\n"
            "    1 2\n"
            "  1 . >\n"
            "  2 . .\n"
            "canonical key: H={2} T={1}\n"
            "label: R\n"
        )

    def test_parse_error_exit_3(self, runner):
        result = invoke(runner, "canon", "-r", "2", "(1,5)")
        assert result.exit_code == 3
        assert "out of range" in result.output

    def test_non_ascii_digit_exit_3(self, runner):
        for args in (("canon", "-r", "2", "(1,²)"), ("equiv", "-r", "2", "(1,2)", "(1,²)")):
            result = invoke(runner, *args)
            assert result.exit_code == 3
            assert "expected a point, found '²' (at position 3)" in result.output

    def test_over_long_point_exit_3(self, runner):
        result = invoke(runner, "canon", "-r", "2", "(" + "1" * 5000 + ",2)")
        assert result.exit_code == 3
        assert result.output.endswith("out of range 1..4 (at position 1)\n")

    def test_usage_error_exit_2(self, runner):
        assert invoke(runner, "canon").exit_code == 2
        assert invoke(runner, "canon", "-r", "9", "(1,2)").exit_code == 2


class TestEquiv:
    def test_equivalent_pair(self, runner):
        result = invoke(runner, "equiv", "-r", "2", "(2,3)", "(1,4)")
        assert result.exit_code == 0
        assert result.output == (
            "EQUIVALENT\n"
            "canonical key 1: H={2} T={1}\n"
            "canonical key 2: H={2} T={1}\n"
            "parity test on perm2^-1 * perm1 = (1,4)(2,3): norm-preserving\n"
        )

    def test_independent_pair(self, runner):
        result = invoke(runner, "equiv", "-r", "2", "(1,2)", "(2,3)")
        assert result.exit_code == 0
        assert result.output == (
            "INDEPENDENT\n"
            "canonical key 1: H={1} T={1}\n"
            "canonical key 2: H={2} T={1}\n"
            "parity test on perm2^-1 * perm1 = (1,2,3): not norm-preserving\n"
        )

    def test_right_coset_member(self, runner):
        # sigma = (2,3); sigma * (1,3) computed by hand: 1->3? no:
        # x -> (1,3)((2,3)(x)): 1->1->3, 3->2, 2->... = (1,3,2)
        result = invoke(runner, "equiv", "-r", "2", "(2,3)", "(1,3,2)")
        assert result.exit_code == 0
        assert result.output.startswith("EQUIVALENT\n")


class TestList:
    def test_r2_text(self, runner):
        result = invoke(runner, "list", "-r", "2")
        assert result.exit_code == 0
        assert result.output == (
            "r=2: 3 classes, 2 nontrivial criteria\n"
            "\n"
            "  a   l  label    key                          representative\n"
            "  0   1  QT       H={1} T={1}                  (1,2)\n"
            "  1   0  R        H={2} T={1}                  (2,3)\n"
            "\n"
            "census by type:\n"
            "label    flip-partner  classes\n"
            "QT       QT            1\n"
            "R        R             1\n"
        )

    def test_r4_class_total(self, runner):
        result = invoke(runner, "list", "-r", "4")
        assert "r=4: 35 classes, 34 nontrivial criteria" in result.output

    def test_census_csv(self, runner):
        result = invoke(runner, "list", "-r", "3", "--format", "csv")
        assert result.exit_code == 0
        assert result.output == "3,0,1,QT,3\n3,1,0,R,6\n"

    def test_census_csv_r4(self, runner):
        result = invoke(runner, "list", "-r", "4", "--format", "csv")
        assert result.exit_code == 0
        assert result.output == (
            "4,0,1,QT,4\n"
            "4,1,0,R,12\n"
            "4,0,2,2QT,3\n"
            "4,1,1,R+QT,12\n"
            "4,2,0,2R,3\n"
        )

    def test_guard(self, runner):
        assert invoke(runner, "list", "-r", "9").exit_code == 2


def _recorded_writes(monkeypatch) -> list:
    """The messages of every click.echo call the CLI makes from now on."""
    writes, echo = [], cli.click.echo
    monkeypatch.setattr(cli.click, "echo", lambda *a, **k: writes.append(a) or echo(*a, **k))
    return writes


def _built_rep(key) -> str:
    return str(_permutation_of_arrows(key.r, _arrows_of_sets(key.heads, key.tails)))


def _class_lines(command: str, r: int, fmt: str) -> str:
    """The output of ``list`` or ``enumerate-cosets``, formatted line by line
    with each representative built directly, not read from the table."""
    keys = enumerate_classes(r)
    rows = census_records(r)
    if (command, fmt) == ("list", "csv"):
        lines = [f"{row.r},{row.arrow_count},{row.loop_count},{row.type_label},{row.count}" for row in rows]
    elif command == "list":
        lines = [f"r={r}: {len(keys)} classes, {len(keys) - 1} nontrivial criteria", ""]
        lines.append(f"{'a':>3} {'l':>3}  {'label':<8} {'key':<28} representative")
        for key in keys[1:]:
            lines.append(
                f"{key.arrow_count:>3} {key.loop_count:>3}  {key.type_label:<8} "
                f"{key.render():<28} {_built_rep(key)}"
            )
        lines += ["", "census by type:", f"{'label':<8} {'flip-partner':<13} classes"]
        lines += [f"{row.type_label:<8} {row.partner_label:<13} {row.count}" for row in rows]
    elif fmt == "csv":
        lines = ["r,heads,tails,a,l,label,representative"]
        for key in keys:
            out = io.StringIO()
            csv.writer(out, lineterminator="").writerow([
                r, " ".join(map(str, key.heads)), " ".join(map(str, key.tails)),
                key.arrow_count, key.loop_count, key.type_label, _built_rep(key),
            ])
            lines.append(out.getvalue())
    else:
        lines = [f"r={r}: {len(keys)} classes (1 trivial)"]
        lines += [f"{key.render():<28} {key.type_label:<8} {_built_rep(key)}" for key in keys]
    return "".join(line + "\n" for line in lines)


class TestClassListings:
    """``list`` and ``enumerate-cosets`` read the table of representatives;
    they, ``canon`` and ``equiv`` write once."""

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("command", ["list", "enumerate-cosets"])
    @pytest.mark.parametrize("r", range(1, 9))
    def test_same_bytes_as_line_by_line(self, runner, command, fmt, r):
        want = _class_lines(command, r, fmt)
        for _ in range(2):
            result = invoke(runner, command, "-r", str(r), "--format", fmt)
            assert result.exit_code == 0
            assert result.output == want

    @pytest.mark.parametrize("args", [
        ["list", "-r", "3"], ["list", "-r", "3", "--format", "csv"],
        ["enumerate-cosets", "-r", "3"], ["enumerate-cosets", "-r", "3", "--format", "csv"],
        ["canon", "-r", "3", "(2,3)"], ["canon", "-r", "3", "--trace", "--sketch", "(2,3,6)"],
        ["equiv", "-r", "2", "(2,3)", "(1,4)"], ["equiv", "-r", "2", "(2,3)", "(1,2)"],
    ])
    def test_one_write(self, runner, monkeypatch, args):
        writes = _recorded_writes(monkeypatch)
        assert invoke(runner, *args).exit_code == 0
        assert len(writes) == 1

    @pytest.mark.parametrize("command", ["list", "enumerate-cosets"])
    def test_patched_representative_is_shown(self, runner, monkeypatch, command):
        invoke(runner, command, "-r", "5")
        marker = Permutation((2, 1) + tuple(range(3, 11)))
        monkeypatch.setattr(cli, "representative_permutation", lambda key: marker)
        result = invoke(runner, command, "-r", "5")
        assert result.exit_code == 0
        assert result.output.count(" (1,2)\n") == 126 - (command == "list")


class TestInProcess:
    def test_redirected_streams_are_released(self, tmp_path):
        # click.echo without a file kept each new sys.stdout alive for good
        write_state_file(tmp_path / "bell.state", bell_pair_state(2, 2, 1, 2))
        (tmp_path / "bad.state").write_text("1 2\n")
        runs = [
            ["list", "-r", "3"], ["list", "-r", "3", "--format", "csv"],
            ["enumerate-cosets", "-r", "3"], ["canon", "-r", "2", "--trace", "(2,3)"],
            ["equiv", "-r", "2", "(2,3)", "(1,4)"], ["eval", str(tmp_path / "bell.state")],
            ["eval", str(tmp_path / "bad.state")], ["selftest", "--only", "worked-example"],
        ]
        refs = []
        for args in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    main.main(args=args, standalone_mode=False)
                except SystemExit as exc:  # eval's data error
                    assert exc.code == 3 and err.getvalue().startswith("error: ")
            assert out.getvalue() or err.getvalue()
            refs += [weakref.ref(out), weakref.ref(err)]
            del out, err
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)


class TestEnumerateCosets:
    def test_r2_csv(self, runner):
        result = invoke(runner, "enumerate-cosets", "-r", "2", "--format", "csv")
        assert result.exit_code == 0
        assert result.output == (
            "r,heads,tails,a,l,label,representative\n"
            '2,,,0,0,trivial,()\n'
            '2,1,1,0,1,QT,"(1,2)"\n'
            '2,2,1,1,0,R,"(2,3)"\n'
        )

    def test_r3_text_counts(self, runner):
        result = invoke(runner, "enumerate-cosets", "-r", "3")
        assert result.exit_code == 0
        assert result.output.startswith("r=3: 10 classes (1 trivial)\n")
        assert len(result.output.strip().splitlines()) == 11

    def test_r3_csv(self, runner):
        result = invoke(runner, "enumerate-cosets", "-r", "3", "--format", "csv")
        assert result.exit_code == 0
        assert result.output == (
            "r,heads,tails,a,l,label,representative\n"
            "3,,,0,0,trivial,()\n"
            '3,1,1,0,1,QT,"(1,2)"\n'
            '3,2,1,1,0,R,"(2,3)"\n'
            '3,3,1,1,0,R,"(2,5)"\n'
            '3,1,2,1,0,R,"(1,4)"\n'
            '3,2,2,0,1,QT,"(3,4)"\n'
            '3,3,2,1,0,R,"(4,5)"\n'
            '3,1,3,1,0,R,"(1,6)"\n'
            '3,2,3,1,0,R,"(3,6)"\n'
            '3,3,3,0,1,QT,"(5,6)"\n'
        )


class TestEval:
    def test_bell_state_entangled(self, runner, tmp_path):
        path = tmp_path / "bell.state"
        write_state_file(path, bell_pair_state(2, 2, 1, 2))
        result = invoke(runner, "eval", str(path))
        assert result.exit_code == 0
        assert result.output == (
            "state: r=2 d=2 (4x4)\n"
            "label    key                          norm\n"
            "QT       H={1} T={1}                  2.000000000000\n"
            "R        H={2} T={1}                  2.000000000000\n"
            "max norm: 2.000000000000 (tolerance 1e-09)\n"
            "verdict: ENTANGLED\n"
        )

    def test_maximally_mixed_undetected(self, runner, tmp_path):
        path = tmp_path / "mixed.state"
        write_state_file(path, maximally_mixed_state(2, 2))
        result = invoke(runner, "eval", str(path))
        assert result.exit_code == 0
        assert result.output == (
            "state: r=2 d=2 (4x4)\n"
            "label    key                          norm\n"
            "QT       H={1} T={1}                  1.000000000000\n"
            "R        H={2} T={1}                  0.500000000000\n"
            "max norm: 1.000000000000 (tolerance 1e-09)\n"
            "verdict: UNDETECTED\n"
        )

    def test_csv_format(self, runner, tmp_path):
        path = tmp_path / "bell.state"
        write_state_file(path, bell_pair_state(2, 2, 1, 2))
        result = invoke(runner, "eval", "--format", "csv", str(path))
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[-1] == "verdict,ENTANGLED,max,2.000000000000"

    def test_report_in_one_write(self, runner, tmp_path, monkeypatch):
        path = tmp_path / "bell.state"
        write_state_file(path, bell_pair_state(3, 2, 1, 3))
        writes = _recorded_writes(monkeypatch)
        classes = [
            ("QT", "1", "1", 2), ("R", "3", "1", 2), ("R", "1", "3", 2), ("QT", "3", "3", 2),
            ("R", "2", "1", 1), ("R", "1", "2", 1), ("R", "3", "2", 1), ("R", "2", "3", 1),
            ("QT", "2", "2", 1),
        ]
        text = invoke(runner, "eval", str(path))
        assert text.exit_code == 0
        assert text.output == (
            "state: r=3 d=2 (8x8)\n"
            "label    key                          norm\n"
            + "".join(f"{lab:<8} {f'H={{{h}}} T={{{t}}}':<28} {n:.12f}\n" for lab, h, t, n in classes)
            + "max norm: 2.000000000000 (tolerance 1e-09)\n"
            "verdict: ENTANGLED\n"
        )
        table = invoke(runner, "eval", "--format", "csv", str(path))
        assert table.exit_code == 0
        assert table.output == (
            "".join(f"3,{lab},{h},{t},{n:.12f}\n" for lab, h, t, n in classes)
            + "verdict,ENTANGLED,max,2.000000000000\n"
        )
        assert len(writes) == 2

    def test_invalid_file_exit_3(self, runner, tmp_path):
        path = tmp_path / "broken.state"
        path.write_text("1 2\n1.0 0.0\n")
        result = invoke(runner, "eval", str(path))
        assert result.exit_code == 3
        assert "error" in result.output

    def test_huge_local_dimension_exit_3(self, runner, tmp_path):
        # d**2 has too many digits to print in the guard message
        path = tmp_path / "huge.state"
        path.write_text("2 " + "9" * 4000 + "\n")
        result = invoke(runner, "eval", str(path))
        assert result.exit_code == 3
        assert result.output == "error: line 1: local dimension exceeds guard 4096\n"

    def test_invalid_state_exit_3(self, runner, tmp_path):
        path = tmp_path / "unnormalized.state"
        path.write_text(
            "1 2\n1.0 0.0 0.0 0.0\n0.0 0.0 1.0 0.0\n"
        )
        result = invoke(runner, "eval", str(path))
        assert result.exit_code == 3
        assert "trace" in result.output

    def test_non_finite_state_exit_3(self, runner, tmp_path):
        # at r = 2 the NaN would reach the SVD, which fails to converge
        rows = [[f"{0.25 if i == j else 0} 0" for j in range(4)] for i in range(4)]
        rows[0][0] = "nan 0"
        path = tmp_path / "nan.state"
        path.write_text("2 2\n" + "".join(" ".join(row) + "\n" for row in rows))
        result = invoke(runner, "eval", str(path))
        assert result.exit_code == 3
        assert "non-finite entries: 1 NaN, 0 inf" in result.output
        assert "SVD" not in result.output

    def test_decomposition_failure_in_a_worker_exit_3(self, runner, tmp_path, monkeypatch):
        # a relabeled matrix that LAPACK cannot decompose: its LinAlgError,
        # raised in a worker thread, reaches the caller as a data error
        apply = states.apply_permutation

        def poisoned(rho, sigma):
            out = apply(rho, sigma).entries.copy()
            out[0, 0] = np.nan
            return DensityMatrix(rho.r, rho.d, out)

        path = tmp_path / "random.state"
        write_state_file(path, random_state(6, 2, seed=1))  # dim 64: two workers
        monkeypatch.setattr(states, "apply_permutation", poisoned)
        monkeypatch.setattr(_lapack.os, "sched_getaffinity", lambda pid: {0, 1})
        workers, share = [], states._share
        monkeypatch.setattr(states, "_share", lambda jobs, task, n: workers.append(n) or share(jobs, task, n))
        result = invoke(runner, "eval", str(path))
        assert workers == ([2] if _lapack._openblas_threads() else [1])
        assert result.exit_code == 3
        assert result.output in ("error: SVD did not converge\n", "error: Eigenvalues did not converge\n")

    @pytest.mark.filterwarnings("error")
    def test_inf_imaginary_part_counted_once(self, runner, tmp_path):
        # read as re + 1j * im, the entry would also have a NaN real part, 0 * inf
        path = tmp_path / "inf.state"
        path.write_text("1 2\n0.5 inf 0 0\n0 0 0.5 0\n")
        result = invoke(runner, "eval", str(path))
        assert result.exit_code == 3
        assert "non-finite entries: 0 NaN, 1 inf" in result.output

    def test_non_ascii_byte_exit_3(self, runner, tmp_path):
        path = tmp_path / "accent.state"
        path.write_bytes("1 2\n0.5 0 0 0\n0 0 0.5 0 \u00e9\n".encode())
        result = invoke(runner, "eval", str(path))
        assert (result.exit_code, result.output) == (3, "error: line 3: non-ASCII byte 0xc3\n")

    def test_r1_has_no_rows(self, runner, tmp_path):
        path = tmp_path / "qubit.state"
        write_state_file(path, maximally_mixed_state(1, 2))
        assert invoke(runner, "eval", str(path)).output == (
            "state: r=1 d=2 (2x2)\n"
            "label    key                          norm\n"
            "max norm: 0.000000000000 (tolerance 1e-09)\n"
            "verdict: UNDETECTED\n"
        )
        csv = invoke(runner, "eval", "--format", "csv", str(path)).output
        assert csv == "verdict,UNDETECTED,max,0.000000000000\n"

    def test_validates_once(self, runner, tmp_path, monkeypatch):
        calls = []
        original = DensityMatrix.state_violations

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(DensityMatrix, "state_violations", counting)
        path = tmp_path / "bell.state"
        write_state_file(path, bell_pair_state(3, 2, 1, 2))
        calls.clear()  # the factory validated the state it built
        assert invoke(runner, "eval", str(path)).exit_code == 0
        assert len(calls) == 1
        calls.clear()
        path.write_text("1 2\n1.0 0.0 0.0 0.0\n0.0 0.0 1.0 0.0\n")
        result = invoke(runner, "eval", str(path))
        assert (result.exit_code, len(calls)) == (3, 1)
        assert result.output == (
            f"error: state file {path}: trace is 2+0j, not 1 within 1e-10\n"
        )

    def test_missing_file_exit_2(self, runner, tmp_path):
        result = invoke(runner, "eval", str(tmp_path / "nope.state"))
        assert result.exit_code == 2

    def test_tolerance_flag(self, runner, tmp_path):
        path = tmp_path / "mixed.state"
        write_state_file(path, maximally_mixed_state(2, 2))
        result = invoke(runner, "eval", "--tolerance", "0.4", str(path))
        assert "tolerance 0.4" in result.output
        assert "UNDETECTED" in result.output

    def test_tolerance_must_be_nonnegative(self, runner, tmp_path):
        # a negative tolerance would call the maximally mixed state ENTANGLED,
        # and nan would call every state UNDETECTED
        path = tmp_path / "mixed.state"
        write_state_file(path, maximally_mixed_state(2, 2))
        for bad in ("-1", "nan"):
            result = invoke(runner, "eval", "--tolerance", bad, str(path))
            assert result.exit_code == 2
            assert "Invalid value for '--tolerance'" in result.output
        assert invoke(runner, "eval", "--tolerance", "0", str(path)).exit_code == 0

    def test_tolerance_with_csv(self, runner, tmp_path):
        path = tmp_path / "bell.state"
        write_state_file(path, bell_pair_state(2, 2, 1, 2))
        result = invoke(
            runner, "eval", "--tolerance", "1e-6", "--format", "csv", str(path)
        )
        assert result.exit_code == 0
        assert result.output == (
            "2,QT,1,1,2.000000000000\n"
            "2,R,2,1,2.000000000000\n"
            "verdict,ENTANGLED,max,2.000000000000\n"
        )


class TestHelp:
    """The defaults that ``--help`` shows, which the CLI reads from
    ``permsep._defaults`` without loading the numeric layers."""

    def _help(self, runner, command):
        result = invoke(runner, command, "--help")
        assert result.exit_code == 0
        return " ".join(result.output.split())  # unwrapped

    def test_eval_tolerance_default(self, runner):
        assert "--tolerance FLOAT Entanglement verdict threshold above norm 1. [default: 1e-09]" in (
            self._help(runner, "eval")
        )

    def test_selftest_seed_default_and_check_names(self, runner):
        text = self._help(runner, "selftest")
        assert "--seed INTEGER RANGE [default: 20240801; x>=0]" in text
        assert (
            "--only [coset-counts-exhaustive|norm-group-order|coset-soundness-pairwise|"
            "worked-example|class-census|norm-preservation|separability-bound|"
            "detector-states|structured-routes|bipartite-anchors|structural-properties]"
        ) in text

    def test_defaults_are_the_layers_own(self):
        assert states.VERDICT_TOLERANCE == 1e-9 and "VERDICT_TOLERANCE" in states.__all__
        assert selftest.DEFAULT_SEED == 20240801
        assert [name for name, _ in selftest._CHECKS] == CHECK_NAMES
        assert {"CHECK_NAMES", "DEFAULT_SEED"} <= set(selftest.__all__)


class TestSelftest:
    def test_report_in_one_write(self, runner, monkeypatch):
        results = [
            CheckResult("worked-example", True, "ok", 0.125),
            CheckResult("class-census", False, "off by one", 2.0),
        ]
        monkeypatch.setattr(cli, "run_checks", lambda names, seed: results)
        writes = _recorded_writes(monkeypatch)
        result = invoke(runner, "selftest")
        assert result.exit_code == 1
        assert result.output == (
            "[PASS] worked-example (0.12s): ok\n"
            "[FAIL] class-census (2.00s): off by one\n"
            "1/2 checks passed, 1 FAILED\n"
        )
        assert len(writes) == 1

    def test_subset_runs(self, runner):
        result = invoke(
            runner,
            "selftest",
            "--only",
            "worked-example",
            "--only",
            "bipartite-anchors",
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("[PASS] worked-example")
        assert lines[1].startswith("[PASS] bipartite-anchors")
        assert lines[2] == "2/2 checks passed"

    def test_unknown_check_rejected(self, runner):
        assert invoke(runner, "selftest", "--only", "nope").exit_code == 2

    def test_negative_seed_is_a_usage_error(self, runner):
        result = invoke(runner, "selftest", "--seed", "-1")
        assert result.exit_code == 2
        assert "Invalid value for '--seed'" in result.output
        assert "checks passed" not in result.output
        assert invoke(runner, "selftest", "--seed", "0", "--only", "worked-example").exit_code == 0

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_bad_seed_raises_before_any_check(self, monkeypatch, seed):
        ran = []
        checks = [(name, lambda s, name=name: ran.append(name) or (True, "")) for name in CHECK_NAMES]
        monkeypatch.setattr(selftest, "_CHECKS", checks)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            selftest.run_checks(seed=seed)
        assert ran == []
