"""Numerics: index relabeling, trace norms, state factory, criteria, files."""

import itertools
import logging
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from permsep import (
    DensityMatrix,
    StateFileError,
    StateValidationError,
    apply_permutation,
    basis_product_state,
    bell_pair_state,
    compose,
    detector_state,
    enumerate_classes,
    evaluate_criteria,
    generators,
    ghz_state,
    global_transpose,
    group_elements,
    identity,
    make_state,
    maximally_mixed_state,
    parse_permutation,
    permutation_from_cycles,
    random_separable_state,
    random_state,
    read_state_file,
    representative_permutation,
    swap_operator,
    trace_norm,
    write_state_file,
)
from permsep.arrows import _transpose_key
from permsep.states import EIGENVALUE_FLOOR, _read_rows, _read_streamed
from conftest import (
    apply_permutation_reference,
    permutations_of_degree,
    property_settings,
    random_permutation,
    trace_norm_hermitian_reference,
)


class TestApplyPermutation:
    def test_identity_map(self):
        rho = random_state(2, 3, seed=1)
        out = apply_permutation(rho, identity(4))
        assert np.array_equal(out.entries, rho.entries)

    def test_partial_transpose_of_bell(self):
        rho = bell_pair_state(2, 2, 1, 2)
        out = apply_permutation(rho, parse_permutation("(1,2)", 4))
        eigs = np.sort(np.linalg.eigvalsh(out.entries))
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_matches_entrywise_reference(self):
        rng = np.random.default_rng(7)
        for r, d in [(1, 2), (2, 2), (2, 3), (3, 2)]:
            rho = random_state(r, d, seed=int(rng.integers(1 << 30)))
            for _ in range(8):
                sigma = random_permutation(rng, 2 * r)
                expected = apply_permutation_reference(rho.entries, sigma, r, d)
                got = apply_permutation(rho, sigma).entries
                assert np.array_equal(got, expected)

    def test_homomorphism(self):
        rng = np.random.default_rng(13)
        for i in range(50):
            r, d = [(2, 2), (2, 3), (3, 2), (3, 3)][i % 4]
            rho = random_state(r, d, seed=100 + i)
            s1 = random_permutation(rng, 2 * r)
            s2 = random_permutation(rng, 2 * r)
            lhs = apply_permutation(apply_permutation(rho, s1), s2).entries
            rhs = apply_permutation(rho, compose(s1, s2)).entries
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_frobenius_isometry(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            rho = random_state(2, 3, seed=int(rng.integers(1 << 30)))
            sigma = random_permutation(rng, 4)
            out = apply_permutation(rho, sigma)
            assert np.isclose(
                np.linalg.norm(out.entries), np.linalg.norm(rho.entries), atol=0
            )

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree"):
            apply_permutation(maximally_mixed_state(2, 2), identity(6))


class TestTraceNorm:
    def test_states_have_unit_norm(self):
        for rho in [
            maximally_mixed_state(2, 2),
            bell_pair_state(2, 2, 1, 2),
            random_state(3, 2, seed=3),
            random_separable_state(2, 3, terms=4, seed=5),
        ]:
            assert abs(trace_norm(rho) - 1.0) < 1e-10

    def test_bell_partial_transpose(self):
        out = apply_permutation(bell_pair_state(2, 2, 1, 2), parse_permutation("(1,2)", 4))
        assert abs(trace_norm(out) - 2.0) < 1e-9

    def test_realigned_maximally_mixed(self):
        out = apply_permutation(maximally_mixed_state(2, 2), parse_permutation("(2,3)", 4))
        assert abs(trace_norm(out) - 0.5) < 1e-9

    def test_hermitian_route_agrees(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
            h = g + g.conj().T
            assert np.isclose(trace_norm(h), trace_norm_hermitian_reference(h), atol=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            trace_norm(np.ones((2, 3)))


class TestSwapOperator:
    def test_swaps_basis_vectors(self):
        v = swap_operator(2, 2, 1, 2)
        ket01 = np.zeros(4)
        ket01[1] = 1.0  # |01>
        ket10 = np.zeros(4)
        ket10[2] = 1.0  # |10>
        assert np.array_equal(v @ ket01, ket10)

    def test_involution_and_unitarity(self):
        for r, d, k, l in [(2, 2, 1, 2), (3, 2, 1, 3), (2, 3, 1, 2), (3, 3, 2, 3)]:
            v = swap_operator(r, d, k, l)
            assert np.array_equal(v @ v, np.eye(d**r))
            assert np.allclose(v @ v.conj().T, np.eye(d**r), atol=0)

    def test_left_right_multiplication_identities(self):
        # odd-odd transpositions act as V rho, even-even ones as rho V
        rng = np.random.default_rng(37)
        for r, d in [(2, 2), (2, 3), (3, 2)]:
            dim = d**r
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            op = DensityMatrix(r, d, g)
            for k, l in itertools.combinations(range(1, r + 1), 2):
                v = swap_operator(r, d, k, l)
                odd = parse_permutation(f"({2 * k - 1},{2 * l - 1})", 2 * r)
                even = parse_permutation(f"({2 * k},{2 * l})", 2 * r)
                assert (
                    np.max(np.abs(apply_permutation(op, odd).entries - v @ g)) <= 1e-12
                )
                assert (
                    np.max(np.abs(apply_permutation(op, even).entries - g @ v)) <= 1e-12
                )

    def test_index_guard(self):
        with pytest.raises(ValueError, match="k < l"):
            swap_operator(2, 2, 2, 1)


class TestStateFactory:
    def test_basis_product(self):
        rho = basis_product_state(3, 2)
        assert rho.entries[0, 0] == 1.0
        assert np.count_nonzero(rho.entries) == 1

    def test_bell_pair_r2(self):
        rho = bell_pair_state(2, 2, 1, 2)
        want = np.zeros((4, 4))
        for i, j in itertools.product([0, 3], repeat=2):
            want[i, j] = 0.5
        assert np.allclose(rho.entries, want, atol=0)

    def test_bell_pair_nonadjacent_matches_swapped(self):
        # moving the pair from (1,2) to (1,3) is conjugation by the 2<->3 swap
        direct = bell_pair_state(3, 2, 1, 3)
        base = bell_pair_state(3, 2, 1, 2)
        v = swap_operator(3, 2, 2, 3)
        assert np.allclose(direct.entries, v @ base.entries @ v, atol=1e-12)

    def test_ghz(self):
        rho = ghz_state(3, 2)
        assert np.isclose(rho.entries[0, 0], 0.5)
        assert np.isclose(rho.entries[0, 7], 0.5)
        assert np.isclose(np.trace(rho.entries), 1.0)

    def test_maximally_mixed(self):
        rho = maximally_mixed_state(3, 2)
        assert np.allclose(rho.entries, np.eye(8) / 8, atol=0)

    def test_random_separable_deterministic_per_seed(self):
        a = random_separable_state(2, 2, terms=5, seed=99)
        b = random_separable_state(2, 2, terms=5, seed=99)
        c = random_separable_state(2, 2, terms=5, seed=100)
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)

    def test_make_state_dispatch(self):
        assert np.array_equal(
            make_state("maximally_mixed", 2, 2).entries,
            maximally_mixed_state(2, 2).entries,
        )
        assert np.array_equal(
            make_state("bell_pair_on", 2, 2, k=1, l=2).entries,
            bell_pair_state(2, 2, 1, 2).entries,
        )
        with pytest.raises(ValueError, match="unknown state kind"):
            make_state("thermal", 2, 2)

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="exceeds guard"):
            maximally_mixed_state(13, 2)

    def test_dimension_guard_at_huge_r(self):
        # d**r has too many digits to compute quickly or to print in the message
        with pytest.raises(ValueError, match="total dimension 2\\^1000000 exceeds guard"):
            maximally_mixed_state(10**6, 2)

    def test_validation_diagnostics(self):
        bad_trace = np.eye(4, dtype=complex)
        with pytest.raises(StateValidationError, match="trace"):
            DensityMatrix(2, 2, bad_trace).validate_state()
        non_hermitian = np.eye(4, dtype=complex) / 4
        non_hermitian[0, 1] = 1j
        with pytest.raises(StateValidationError, match="Hermitian"):
            DensityMatrix(2, 2, non_hermitian).validate_state()
        negative = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
        with pytest.raises(StateValidationError, match="eigenvalue"):
            DensityMatrix(2, 2, negative).validate_state()

    def test_non_finite_entries_rejected(self):
        # NaN fails every comparison, so the three invariant checks cannot see it
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = m[1, 0] = np.nan
        with pytest.raises(StateValidationError, match="non-finite entries: 2 NaN, 0"):
            DensityMatrix(2, 2, m).validate_state()
        m = np.eye(4, dtype=complex) / 4
        m[2, 2] = np.inf
        with pytest.raises(StateValidationError, match="0 NaN, 1 inf"):
            DensityMatrix(2, 2, m).validate_state()


class TestDetectorStates:
    def test_r2_witnesses(self):
        for key in enumerate_classes(2):
            if key.is_trivial:
                continue
            rho = detector_state(key, 2)
            rep = representative_permutation(key)
            assert abs(trace_norm(apply_permutation(rho, rep)) - 2.0) < 1e-9

    def test_single_arrow_class_r3(self):
        # the reduced representative of an arrow class at r=3 has one arrow
        # and no loop, so its witness value is 2
        key = next(
            k for k in enumerate_classes(3) if k.arrow_count == 1 and k.loop_count == 0
        )
        rho = detector_state(key, 2)
        rep = representative_permutation(key)
        assert abs(trace_norm(apply_permutation(rho, rep)) - 2.0) < 1e-9

    def test_arrow_plus_loop_class_r4(self):
        key = next(
            k for k in enumerate_classes(4) if k.arrow_count == 1 and k.loop_count == 1
        )
        rho = detector_state(key, 2)
        rep = representative_permutation(key)
        assert abs(trace_norm(apply_permutation(rho, rep)) - 4.0) < 1e-9

    def test_norm_is_power_of_d(self):
        for d in (2, 3):
            for key in enumerate_classes(3):
                if key.is_trivial:
                    continue
                rho = detector_state(key, d)
                rep = representative_permutation(key)
                want = float(d) ** (key.arrow_count + key.loop_count)
                assert abs(trace_norm(apply_permutation(rho, rep)) - want) < 1e-9

    def test_trivial_rejected(self):
        trivial = next(k for k in enumerate_classes(2) if k.is_trivial)
        with pytest.raises(ValueError, match="trivial"):
            detector_state(trivial, 2)


class TestEvaluateCriteria:
    def test_product_state_undetected(self):
        report = evaluate_criteria(basis_product_state(2, 2))
        assert report.verdict == "undetected"
        assert all(rec.norm <= 1 + 1e-9 for rec in report.records)

    def test_tolerance_must_be_nonnegative(self):
        # -1 would call the maximally mixed state entangled, and nan would
        # call a Bell pair undetected
        for bad, rho in ((-1.0, maximally_mixed_state(2, 2)), (math.nan, bell_pair_state(2, 2, 1, 2))):
            with pytest.raises(ValueError, match="is not >= 0"):
                evaluate_criteria(rho, tolerance=bad)
        assert evaluate_criteria(maximally_mixed_state(2, 2), tolerance=0.0).verdict == "undetected"

    def test_bell_detected_by_both(self):
        report = evaluate_criteria(bell_pair_state(2, 2, 1, 2))
        assert report.verdict == "entangled"
        by_label = {rec.key.type_label: rec.norm for rec in report.records}
        assert abs(by_label["QT"] - 2.0) < 1e-9
        assert abs(by_label["R"] - 2.0) < 1e-9
        assert abs(report.max_norm - 2.0) < 1e-9

    def test_pair_with_spectator(self):
        report = evaluate_criteria(bell_pair_state(3, 2, 1, 2))
        for rec in report.records:
            touched = set(rec.key.heads) | set(rec.key.tails)
            if touched == {1, 2}:
                assert rec.norm > 2.0 - 1e-9
            if touched == {3}:
                assert rec.norm <= 1 + 1e-9
        assert report.verdict == "entangled"

    def test_norm_constant_on_cosets(self):
        rng = np.random.default_rng(71)
        rho = random_state(2, 2, seed=8)
        group = sorted(group_elements(2, "closure"), key=lambda p: p.images)
        for _ in range(20):
            sigma = random_permutation(rng, 4)
            t = group[int(rng.integers(len(group)))]
            a = trace_norm(apply_permutation(rho, sigma))
            b = trace_norm(apply_permutation(rho, compose(sigma, t)))
            assert abs(a - b) < 1e-9

    def test_norm_preserving_elements(self):
        rng = np.random.default_rng(73)
        for r in (2, 3):
            dim = 2**r
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            op = DensityMatrix(r, 2, g)
            base = trace_norm(op)
            for t in group_elements(r, "closure"):
                assert abs(trace_norm(apply_permutation(op, t)) / base - 1) < 1e-9

    def test_separable_states_stay_bounded(self):
        for i in range(20):
            r, d = [(2, 2), (2, 3), (3, 2), (3, 3)][i % 4]
            rho = random_separable_state(r, d, terms=1 + i % 10, seed=200 + i)
            report = evaluate_criteria(rho)
            assert report.verdict == "undetected"

    def test_invalid_state_rejected(self):
        with pytest.raises(StateValidationError):
            evaluate_criteria(DensityMatrix(2, 2, np.eye(4, dtype=complex)))

    def test_report_metadata(self):
        report = evaluate_criteria(maximally_mixed_state(2, 2), tolerance=1e-6)
        assert report.tolerance == 1e-6
        assert report.r == 2 and report.d == 2
        assert len(report.records) == 2


def _noisy_ghz(r: int, d: int, p: float = 0.6) -> DensityMatrix:
    mixed = p * ghz_state(r, d).entries + (1 - p) * maximally_mixed_state(r, d).entries
    return DensityMatrix(r, d, mixed).validate_state()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


CROSS_CHECK_STATES = (
    [(f"random-{r}-2", lambda r=r: random_state(r, 2, seed=40 + r)) for r in range(2, 8)]
    + [(f"random-{r}-3", lambda r=r: random_state(r, 3, seed=50 + r)) for r in (2, 3)]
    + [(f"separable-{r}-2", lambda r=r: random_separable_state(r, 2, seed=60 + r)) for r in (2, 3, 4)]
    + [(f"noisy-ghz-{r}-2", lambda r=r: _noisy_ghz(r, 2)) for r in (3, 4)]
    + [(f"mixed-{r}-2", lambda r=r: maximally_mixed_state(r, 2)) for r in range(1, 6)]
    + [("bell-4-2", lambda: bell_pair_state(4, 2, 1, 3))]
)


def _evaluation_counts(caplog, rho: DensityMatrix) -> tuple[int, ...]:
    """(classes, orbits, svd, eigvalsh) from evaluate_criteria's log record."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="permsep"):
        evaluate_criteria(rho)
    (record,) = [rec for rec in caplog.records if rec.name == "permsep"]
    match = re.search(
        r"(\d+) classes, (\d+) orbits, (\d+) svd, (\d+) eigvalsh", record.getMessage()
    )
    return tuple(int(x) for x in match.groups())


class TestOrbitEvaluation:
    """One decomposition per transpose pair of classes, checked against the
    per-class route trace_norm(apply_permutation(...))."""

    @pytest.mark.parametrize(
        "make", [make for _, make in CROSS_CHECK_STATES], ids=[n for n, _ in CROSS_CHECK_STATES]
    )
    def test_matches_per_class_norms(self, make):
        self._cross_check(make())

    def test_matches_per_class_norms_on_detector_states(self):
        for r in (2, 3, 4):
            for key in enumerate_classes(r)[1:]:
                self._cross_check(detector_state(key, 2))

    @staticmethod
    def _cross_check(rho):
        report = evaluate_criteria(rho)
        per_class = [
            trace_norm(apply_permutation(rho, rec.representative)) for rec in report.records
        ]
        for rec, norm in zip(report.records, per_class):
            assert _close(rec.norm, norm), rec.key.render()
        verdict = "entangled" if max(per_class, default=0.0) > 1.0 + report.tolerance else "undetected"
        assert report.verdict == verdict

    def test_decomposition_counts_on_full_evaluations(self, caplog):
        assert _evaluation_counts(caplog, random_state(6, 2, seed=1)) == (461, 251, 220, 31)
        assert _evaluation_counts(caplog, _noisy_ghz(3, 3)) == (9, 6, 3, 3)

    def test_decomposition_counts_of_transpose_pairs(self):
        # the r = 7 and 8 evaluations take too long for the suite, so count
        # the transpose pairs of keys, split by the decomposition they take
        for r, svds, eighs in ((6, 220, 31), (7, 826, 63), (8, 3171, 127)):
            keys = enumerate_classes(r)[1:]
            pairs = {frozenset((key, _transpose_key(key))) for key in keys}
            loops = [pair for pair in pairs if next(iter(pair)).arrow_count == 0]
            assert (len(pairs) - len(loops), len(loops)) == (svds, eighs)

    def test_norms_are_those_of_the_hermitian_part(self):
        rho = random_state(3, 2, seed=4)
        rng = np.random.default_rng(5)
        noise = 1e-12 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        np.fill_diagonal(noise, 0)
        skewed = DensityMatrix(3, 2, rho.entries + noise).validate_state()
        m = skewed.entries
        herm = DensityMatrix(3, 2, (m + m.conj().T) / 2)
        bound = np.sqrt(8) * np.linalg.norm(m - m.conj().T) / 2
        for rec in evaluate_criteria(skewed).records:
            assert _close(rec.norm, trace_norm(apply_permutation(herm, rec.representative)))
            direct = trace_norm(apply_permutation(skewed, rec.representative))
            assert abs(rec.norm - direct) <= bound + 1e-12

    def test_one_debug_record_per_evaluation(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="permsep"):
            evaluate_criteria(_noisy_ghz(3, 3))
            evaluate_criteria(bell_pair_state(4, 2, 1, 3))
        records = [rec for rec in caplog.records if rec.name == "permsep"]
        assert [rec.levelno for rec in records] == [logging.DEBUG] * 2
        assert [rec.getMessage() for rec in records] == [
            "evaluate r=3 d=3: 9 classes, 6 orbits, 3 svd, 3 eigvalsh",
            "evaluate r=4 d=2: 34 classes, 22 orbits, 15 svd, 7 eigvalsh",
        ]

    def test_silent_by_default(self, caplog):
        evaluate_criteria(bell_pair_state(2, 2, 1, 2))
        assert not [rec for rec in caplog.records if rec.name == "permsep"]


# norms of dim <= 64 operators, so that a few hundred examples stay fast
SMALL_SIZES = [(r, d) for r in range(1, 7) for d in range(2, 9) if d**r <= 64]
small_settings = settings(property_settings, max_examples=100)


def _random_operator(data, hermitian: bool) -> DensityMatrix:
    r, d = data.draw(st.sampled_from(SMALL_SIZES))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((d**r, d**r)) + 1j * rng.standard_normal((d**r, d**r))
    return DensityMatrix(r, d, (g + g.conj().T) / 2 if hermitian else g)


class TestNormProperties:
    @small_settings
    @given(st.data())
    def test_class_norm_independent_of_coset_member(self, data):
        rho = _random_operator(data, hermitian=False)
        sigma = data.draw(permutations_of_degree(rho.r))
        g = identity(2 * rho.r)
        for factor in data.draw(st.lists(st.sampled_from(generators(rho.r)), max_size=12)):
            g = compose(g, factor)
        base = trace_norm(apply_permutation(rho, sigma))
        assert _close(trace_norm(apply_permutation(rho, compose(sigma, g))), base)

    @small_settings
    @given(st.data())
    def test_apply_permutation_is_a_homomorphism(self, data):
        rho = _random_operator(data, hermitian=False)
        s1 = data.draw(permutations_of_degree(rho.r))
        s2 = data.draw(permutations_of_degree(rho.r))
        lhs = apply_permutation(apply_permutation(rho, s1), s2).entries
        assert np.array_equal(lhs, apply_permutation(rho, compose(s1, s2)).entries)

    @small_settings
    @given(st.data())
    def test_transpose_pairs_classes_of_hermitian_operators(self, data):
        rho = _random_operator(data, hermitian=True)
        sigma = data.draw(permutations_of_degree(rho.r))
        base = trace_norm(apply_permutation(rho, sigma))
        paired = compose(global_transpose(2 * rho.r), sigma)
        assert _close(trace_norm(apply_permutation(rho, paired)), base)

    @small_settings
    @given(st.data())
    def test_swap_pairs_classes_of_swap_invariant_operators(self, data):
        rho = _random_operator(data, hermitian=False)
        assume(rho.r >= 2)
        k, l = data.draw(st.sampled_from(list(itertools.combinations(range(1, rho.r + 1), 2))))
        s = permutation_from_cycles([(2 * k - 1, 2 * l - 1), (2 * k, 2 * l)], 2 * rho.r)
        invariant = DensityMatrix(rho.r, rho.d, (rho.entries + apply_permutation(rho, s).entries) / 2)
        assert np.array_equal(apply_permutation(invariant, s).entries, invariant.entries)
        sigma = data.draw(permutations_of_degree(rho.r))
        base = trace_norm(apply_permutation(invariant, sigma))
        assert _close(trace_norm(apply_permutation(invariant, compose(s, sigma))), base)


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.txt"
        rho = random_state(2, 3, seed=55)
        write_state_file(path, rho)
        back = read_state_file(path)
        assert back.r == 2 and back.d == 3
        assert back.entries.tobytes() == rho.entries.tobytes()

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "state.txt"
        rho = maximally_mixed_state(1, 2)
        write_state_file(path, rho)
        text = path.read_text()
        path.write_text("# density matrix\n\n" + text)
        assert np.allclose(read_state_file(path).entries, rho.entries)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("2\n")
        with pytest.raises(StateFileError, match="line 1"):
            read_state_file(path)

    def test_wrong_row_width(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("1 2\n1.0 0.0\n0.0 0.0 0.0 1.0\n")
        with pytest.raises(StateFileError, match="line 2"):
            read_state_file(path)

    def test_bad_token_line_number(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("1 2\n0.5 0.0 0.0 0.0\nx 0.0 0.5 0.0\n")
        with pytest.raises(StateFileError, match="line 3"):
            read_state_file(path)

    def test_missing_rows(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("2 2\n" + " ".join(["0.0"] * 8) + "\n")
        with pytest.raises(StateFileError, match="expected 4 matrix rows"):
            read_state_file(path)

    def test_guard_in_header(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("13 2\n")
        with pytest.raises(StateFileError, match="exceeds guard"):
            read_state_file(path)

    def test_class_guard_in_header(self, tmp_path):
        # d^r = 512 passes MAX_DIM, but no class enumeration exists at r = 9
        path = tmp_path / "state.txt"
        path.write_text("9 2\n")
        with pytest.raises(StateFileError, match="line 1: subsystem count 9 exceeds"):
            read_state_file(path)

    def test_huge_r_rejected_before_exponentiating(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("1000000000 2\n")
        with pytest.raises(StateFileError, match="line 1: subsystem count 1000000000"):
            read_state_file(path)

    def test_invalid_state_content(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("1 2\n1.0 0.0 0.0 0.0\n0.0 0.0 1.0 0.0\n")
        with pytest.raises(StateValidationError, match="trace"):
            read_state_file(path)
        rho = read_state_file(path, validate=False)
        assert np.isclose(np.trace(rho.entries), 2.0)

    def test_writer_precision(self, tmp_path):
        path = tmp_path / "state.txt"
        write_state_file(path, random_state(1, 2, seed=4))
        digits = path.read_text().splitlines()[1].split()[0]
        mantissa = digits.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) == 17

    def test_writer_matches_per_entry_formatting(self, tmp_path):
        special = [0.0, -0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf, 1 / 3]
        values = np.array(special + [-x for x in special])
        m = np.empty(16, dtype=np.complex128)
        m.real, m.imag = values, values[::-1]
        rho = DensityMatrix(2, 2, m.reshape(4, 4))
        write_state_file(tmp_path / "state.txt", rho)
        expected = "2 2\n" + "".join(
            " ".join(f"{z.real:.16e} {z.imag:.16e}" for z in row) + "\n" for row in rho.entries
        )
        assert (tmp_path / "state.txt").read_bytes() == expected.encode("ascii")

    # the entries are the file's floats, viewed in place: no arithmetic warns
    @pytest.mark.filterwarnings("error")
    @property_settings
    @given(st.data())
    def test_streamed_parse_matches_row_loop(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "property.state"
        text = data.draw(_state_file_texts())
        path.write_bytes(text.encode("ascii"))
        r, d, m = _read_rows(path)
        streamed = _read_streamed(path)
        if "_" in text:  # loadtxt does not take Python's digit separators
            assert streamed is None
        else:
            assert streamed[:2] == (r, d)
            assert streamed[2].tobytes() == m.tobytes()
        assert read_state_file(path, validate=False).entries.tobytes() == m.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_inf_imaginary_part_keeps_its_real_part(self, tmp_path):
        # re + 1j * im would give nan + inf j, since 1j * inf has real part 0 * inf
        path = tmp_path / "state.txt"
        path.write_text("1 2\n0.5 inf 0 0\n0 0 0.5 0\n")
        for entries in (read_state_file(path, validate=False).entries, _read_rows(path)[2]):
            assert entries[0, 0].real == 0.5 and entries[0, 0].imag == math.inf
        with pytest.raises(StateValidationError, match="non-finite entries: 0 NaN, 1 inf"):
            read_state_file(path)

    def test_signed_zeros_read_as_written(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("1 2\n0.5 0 -0.0 0.0\n-0.0 -0.0 0.5 0\n")
        for entries in (read_state_file(path).entries, _read_rows(path)[2]):
            assert np.signbit(entries.real).tolist() == [[False, True], [True, False]]
            assert np.signbit(entries.imag).tolist() == [[False, False], [True, False]]

    @pytest.mark.parametrize(
        "text, message",
        [
            # the row count is checked before any token is read
            ("2 2\n" + "x " * 8 + "\n", "expected 4 matrix rows for r=2, d=2, found 1"),
            ("1 2\n0.5 0 0 0\n0 0 0.5 0\n0 0 0 0\n", "expected 2 matrix rows for r=1, d=2, found 3"),
            ("1 2\n", "expected 2 matrix rows for r=1, d=2, found 0"),
            ("1 2\n0.5 0 0 0\n0 0 0.5\n", "line 3: row 2 needs 4 numbers, found 3"),
            (
                "1 2\n# c\n0.5 0 0 0\n\n  # c2\n0 x 0.5 0\n",
                "line 6: row 2: could not convert string to float: 'x'",
            ),
            ("1 2\n0.5 0 0 0 # c\n0 0 0.5 0\n", "line 2: row 1 needs 4 numbers, found 6"),
            ("# only\n\n", "empty state file"),
        ],
    )
    def test_error_precedence_and_line_numbers(self, tmp_path, text, message):
        path = tmp_path / "state.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on empty input either
            with pytest.raises(StateFileError) as info:
                read_state_file(path)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "data, message",
        [
            ("1 2\n0.5 0 0 0\n0 0 0.5 0 \u00e9\n".encode(), "line 3: non-ASCII byte 0xc3"),
            ("1 2\n# caf\u00e9\n0.5 0 0 0\n0 0 0.5 0\n".encode(), "line 2: non-ASCII byte 0xc3"),
            (b"1 2\r\n0.5 0 0 0\r\n0 0 0.5 0\xff\r\n", "line 3: non-ASCII byte 0xff"),
            # like the decode error it replaces, it wins over every other check
            ("2 2\n0 0 \u00e9\n".encode(), "line 2: non-ASCII byte 0xc3"),
        ],
    )
    def test_non_ascii_byte_names_its_line(self, tmp_path, data, message):
        path = tmp_path / "state.txt"
        path.write_bytes(data)
        with pytest.raises(StateFileError) as info:
            read_state_file(path)
        assert str(info.value) == message

    def test_read_peak_memory(self, tmp_path):
        # the parent held the text twice and a list of floats: 8x the matrix
        path = tmp_path / "state.txt"
        write_state_file(path, random_state(8, 2, seed=2))
        tracemalloc.start()
        try:
            read_state_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 16 * 256**2

    def test_one_debug_record_per_read(self, tmp_path, caplog):
        fast, slow = tmp_path / "fast.state", tmp_path / "slow.state"
        write_state_file(fast, bell_pair_state(2, 2, 1, 2))
        slow.write_text("1 2\n0.5 0 0 0\n0 0 0.5 0_0\n")
        with caplog.at_level(logging.DEBUG, logger="permsep"):
            read_state_file(fast)
            read_state_file(slow, validate=False)
        records = [rec for rec in caplog.records if rec.name == "permsep"]
        assert [rec.levelno for rec in records] == [logging.DEBUG] * 2
        pattern = r"read r=(\d) d=2: (\d) rows in \d+\.\d{3} s, (.*) parse, (\w+) positivity check"
        found = [re.fullmatch(pattern, rec.getMessage()).groups() for rec in records]
        assert found == [("2", "4", "streamed", "cholesky"), ("1", "2", "row loop", "no")]

    def test_read_silent_by_default(self, tmp_path, caplog):
        path = tmp_path / "state.txt"
        write_state_file(path, bell_pair_state(2, 2, 1, 2))
        read_state_file(path)
        assert not [rec for rec in caplog.records if rec.name == "permsep"]


# float spellings that float() reads; loadtxt rejects only the digit separators
SPECIAL_TOKENS = [
    "+.5", "-.25", "0.0", "-0.0", "+0", "-0", "1E+05", "2e-320", "5e-324",
    "inf", "-Infinity", "+INF", "nan", "-nan", "NaN", "1_0", "1_000.5",
]


@st.composite
def _state_file_texts(draw) -> str:
    r, d = draw(st.sampled_from([(1, 2), (2, 2), (1, 3), (1, 4), (3, 2), (2, 3)]))
    dim = d**r
    token = st.one_of(
        st.floats().map(repr),
        st.floats().map(lambda x: f"{x:.16e}"),
        st.sampled_from(SPECIAL_TOKENS),
    )
    filler = st.lists(
        st.sampled_from(["", "  ", "\t", "# comment", "  # indented", "#"]), max_size=2
    )
    pad = st.sampled_from(["", " ", "\t"])
    lines = draw(filler) + [draw(pad) + f"{r} {d}" + draw(pad)]
    for _ in range(dim):
        lines += draw(filler)
        tokens = draw(st.lists(token, min_size=2 * dim, max_size=2 * dim))
        row = tokens[0] + "".join(draw(st.sampled_from([" ", "  ", "\t", " \t "])) + tok for tok in tokens[1:])
        lines.append(draw(pad) + row + draw(pad))
    lines += draw(filler)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


class TestPositivityCertificate:
    """The Cholesky certificate accepts only states the eigvalsh rule accepts,
    and the rejection text is the eigvalsh rule's."""

    @pytest.mark.parametrize("r, d", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (4, 2), (6, 2), (8, 2)])
    @pytest.mark.parametrize("scale", [1 - 1e-3, 1 + 1e-3])
    def test_same_verdict_as_eigvalsh_at_the_floor(self, r, d, scale):
        dim = d**r
        rng = np.random.default_rng(dim)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        spectrum = np.full(dim, 0.0)
        spectrum[0] = EIGENVALUE_FLOOR * scale
        spectrum[1:] = (1 - spectrum[0]) / (dim - 1)
        m = (q * spectrum) @ q.conj().T
        m = (m + m.conj().T) / 2
        m[np.diag_indices(dim)] += (1 - np.trace(m).real) / dim
        rho = DensityMatrix(r, d, m)
        lo = float(np.min(np.linalg.eigvalsh(rho.entries)))
        expected = [f"minimum eigenvalue {lo:.3e} < {EIGENVALUE_FLOOR}"] if lo < EIGENVALUE_FLOOR else []
        assert rho.state_violations() == expected
        assert (lo < EIGENVALUE_FLOOR) == (scale > 1)

    def test_certificate_taken_on_valid_states(self):
        for rho in (random_state(2, 2, seed=1), ghz_state(3, 2), bell_pair_state(2, 3, 1, 2)):
            assert rho.state_violations() == []
            assert rho.__dict__["_positivity"] == "cholesky"
