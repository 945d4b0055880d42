"""Command-line surface: frozen outputs, exit codes, determinism."""

import numpy as np
import pytest
from click.testing import CliRunner

from permsep import (
    DensityMatrix, _lapack, bell_pair_state, maximally_mixed_state, random_state, states, write_state_file,
)
from permsep import selftest
from permsep.cli import main
from permsep.selftest import CHECK_NAMES


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


class TestSelftest:
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
