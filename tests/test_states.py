"""Numerics: index relabeling, trace norms, state factory, criteria, files."""

import functools
import itertools
import logging
import math
import os
import re
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from permsep import (
    DensityMatrix,
    Permutation,
    StateFileError,
    StateValidationError,
    apply_permutation,
    basis_product_state,
    bell_pair_state,
    canonical_key,
    compose,
    detector_state,
    enumerate_classes,
    evaluate_criteria,
    generators,
    ghz_state,
    global_transpose,
    group_elements,
    identity,
    inverse,
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
from permsep import _lapack, states
from permsep.arrows import _reduced_key
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

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.int64, np.int8, ">f8", ">c16"])
    def test_other_dtypes_take_numpys_values(self, dtype):
        m = (np.arange(25).reshape(5, 5) % 7).astype(dtype)
        assert trace_norm(m) == float(np.linalg.svd(m, compute_uv=False).sum())

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_nan_raises_numpys_error(self, n):
        m = np.ones((n, n), dtype=np.complex128)
        m[n - 1, 0] = m[0, n - 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
            trace_norm(m)


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
        # moving the pair from (1,2) to (k,l) is conjugation by the 2<->l
        # swap, then the 1<->k swap; swap_operator does not use
        # apply_permutation, so it is an independent reference
        for r, d in itertools.product((3, 4), (2, 3)):
            base = bell_pair_state(r, d, 1, 2).entries
            for k, l in itertools.combinations(range(1, r + 1), 2):
                want = base
                for a, b in ((2, l), (1, k)):
                    if a != b:
                        v = swap_operator(r, d, a, b)
                        want = v @ want @ v
                assert np.array_equal(bell_pair_state(r, d, k, l).entries, want), (r, d, k, l)

    @pytest.mark.parametrize("call, message", [
        (lambda: swap_operator(2, 2, 1.5, 2), "k must be an integer, got 1.5"),
        (lambda: swap_operator(2, 2, 1, 2.0), "l must be an integer, got 2.0"),
        (lambda: bell_pair_state(2, 2, True, 2), "k must be an integer, got True"),
        (lambda: bell_pair_state(2, 2, 1, 2.0), "l must be an integer, got 2.0"),
        (lambda: basis_product_state(2, 2, levels=(0.5, 0)), "level must be an integer, got 0.5"),
        (lambda: detector_state(canonical_key(parse_permutation("(1,4)", 4)), "2"),
         "local dimension must be an integer, got '2'"),
        (lambda: detector_state(canonical_key(parse_permutation("(1,4)", 4)), True),
         "local dimension must be an integer, got True"),
    ])
    def test_non_integer_subsystems_and_levels_rejected(self, call, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("terms", [True, 2.0, "3"])
    def test_non_integer_terms_rejected(self, terms):
        with pytest.raises(TypeError, match=f"^terms must be an integer, got {re.escape(repr(terms))}$"):
            random_separable_state(2, 2, terms=terms)

    @pytest.mark.parametrize("factory", [random_state, random_separable_state])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_bad_seed_rejected(self, factory, seed):
        message = f"seed must be a non-negative integer, got {seed!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            factory(2, 2, seed=seed)

    @pytest.mark.parametrize(
        "terms, shown",
        [(sys.maxsize + 1, str(sys.maxsize + 1)), (10**5000, "<16610-bit integer>")],
        ids=["maxsize-plus-one", "huge"],
    )
    def test_terms_beyond_maxsize_rejected(self, terms, shown):
        # numpy's allocator used to refuse it with a message that named nothing
        with pytest.raises(ValueError, match=f"^terms {shown} exceeds sys.maxsize$"):
            random_separable_state(2, 2, terms=terms)

    def test_numpy_integer_terms_and_seed_accepted(self):
        assert np.array_equal(
            random_separable_state(2, 2, terms=np.int64(3), seed=np.uint8(7)).entries,
            random_separable_state(2, 2, terms=3, seed=7).entries,
        )
        assert np.array_equal(random_state(2, 2, seed=np.int32(4)).entries, random_state(2, 2, seed=4).entries)

    def test_numpy_integer_subsystems_and_levels_accepted(self):
        assert np.array_equal(
            bell_pair_state(3, 2, np.int64(1), np.int32(3)).entries,
            bell_pair_state(3, 2, 1, 3).entries,
        )
        assert basis_product_state(2, 2, levels=(np.int8(1), 0)).entries[2, 2] == 1.0

    def test_levels_read_once_from_any_iterable(self):
        # a generator was spent by the entry check before len() saw it
        rho = basis_product_state(2, 2, (x for x in (0, 1)))
        assert np.array_equal(rho.entries, basis_product_state(2, 2, (0, 1)).entries)
        assert basis_product_state(2, 3, [2, 1]).entries[7, 7] == 1.0

    def test_non_iterable_levels_named(self):
        # was "'int' object is not iterable"
        with pytest.raises(TypeError, match="^levels must be an iterable, got 5$"):
            basis_product_state(2, 2, 5)

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

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="exceeds guard"):
            maximally_mixed_state(13, 2)

    def test_dimension_guard_at_huge_r(self):
        # d**r has too many digits to compute quickly or to print in the message
        with pytest.raises(ValueError, match="^total dimension 2\\^r for r > 13 exceeds guard 4096$"):
            maximally_mixed_state(10**6, 2)

    def test_dimension_guard_at_huge_d(self):
        # d and d**r have too many digits to print in the message
        for r in (1, 2):
            with pytest.raises(ValueError, match="^local dimension exceeds guard 4096$"):
                maximally_mixed_state(r, 10**5000)

    def test_dimension_guard_at_unprintable_r(self):
        # r has more digits than int() may turn into a string
        for d in (2, 4096):
            with pytest.raises(ValueError, match=f"^total dimension {d}\\^r for r > 13 exceeds guard"):
                maximally_mixed_state(10**5000, d)

    @pytest.mark.parametrize("build, r", [
        (lambda: bell_pair_state(40, 1, 1, 2), 40),
        (lambda: swap_operator(70, 1, 1, 2), 70),
        (lambda: DensityMatrix(33, 1, np.ones((1, 1))), 33),
        (lambda: maximally_mixed_state(np.int8(14), 1), 14),
    ], ids=["bell", "swap", "constructor", "int8"])
    def test_subsystem_count_bounded_at_d_1(self, build, r):
        # d^r = 1 passed every guard, and numpy refused the 2r tensor axes
        # with "maximum supported dimension for an ndarray is currently 64"
        with pytest.raises(ValueError, match=f"^subsystem count must be in 1\\.\\.13, got {r}$"):
            build()

    def test_largest_subsystem_count_at_d_1(self):
        rho = DensityMatrix(13, 1, np.ones((1, 1)))
        assert apply_permutation(rho, global_transpose(26)).entries.tolist() == [[1]]
        assert swap_operator(13, 1, 1, 13).tolist() == [[1]]

    @pytest.mark.parametrize("r, d, message", [
        (2.0, 2, "subsystem count must be an integer, got 2.0"),
        (True, 2, "subsystem count must be an integer, got True"),
        (2, 2.0, "local dimension must be an integer, got 2.0"),
        (2, "2", "local dimension must be an integer, got '2'"),
    ])
    def test_non_integer_dimensions_rejected(self, r, d, message):
        # a float count used to build a state whose evaluation failed deep inside
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            DensityMatrix(r, d, np.eye(4) / 4)
        for factory in (random_state, maximally_mixed_state, ghz_state):
            with pytest.raises(TypeError, match=re.escape(message)):
                factory(r, d)

    def test_numpy_integer_dimensions_accepted(self):
        rho = random_state(np.int64(2), np.int32(2), seed=1)
        want = evaluate_criteria(random_state(2, 2, seed=1))
        assert evaluate_criteria(rho) == want
        assert DensityMatrix(np.int8(1), np.uint16(2), np.eye(2) / 2).dim == 2
        # 16^2 and 16^3 wrap around to 0 in 8 bits
        assert DensityMatrix(np.uint8(2), np.uint8(16), np.eye(256) / 256).dim == 256
        dims = states._check_dims(np.uint8(3), np.uint8(16))
        assert dims == (3, 16, 4096) and all(type(x) is int for x in dims)

    # The factories and the evaluation used to go on with the caller's 8- or
    # 16-bit r and d: 1 / sqrt(int16) is a float32, and d**r or a basis
    # index past 255 wraps around in 8 bits.

    @pytest.mark.parametrize("build", [
        lambda: ghz_state(2, np.int16(3)),
        lambda: bell_pair_state(3, np.int16(3), 1, 2),
    ], ids=["ghz", "bell"])
    def test_int16_local_dimension_validates(self, build):
        rho = build()  # raised StateValidationError, trace 0.99999996
        assert rho.validate_state() is rho
        assert (type(rho.r), type(rho.d)) == (int, int)

    def test_uint8_ghz_dimension(self):
        # was an IndexError: d**r read 0
        assert ghz_state(np.uint8(2), np.uint8(16)).dim == 256

    @pytest.mark.parametrize("r, d, levels, index", [
        (np.uint8(3), np.uint8(16), (15, 15, 15), 4095),  # was |255><255|
        (3, 7, (np.uint8(6),) * 3, 342),  # 8-bit levels: was |86><86|
    ], ids=["uint8-dims", "uint8-levels"])
    def test_uint8_basis_index(self, r, d, levels, index):
        rho = basis_product_state(r, d, levels)
        assert np.flatnonzero(rho.entries).tolist() == [index * (rho.dim + 1)]
        assert rho.entries[index, index] == 1

    def test_uint8_state_evaluates_like_int_dimensions(self):
        # failed in _involution_basis on np.arange(d**r) of size 0
        rho = DensityMatrix(np.uint8(2), np.uint8(16), np.eye(256) / 256)
        assert (type(rho.r), type(rho.d)) == (int, int)
        assert evaluate_criteria(rho) == evaluate_criteria(DensityMatrix(2, 16, np.eye(256) / 256))

    def test_detector_state_takes_numpy_dimensions(self):
        key = canonical_key(parse_permutation("(1,2)", 4))
        rho = detector_state(key, np.int8(3))
        assert (type(rho.r), type(rho.d)) == (int, int)
        np.testing.assert_array_equal(rho.entries, detector_state(key, 3).entries)

    @pytest.mark.parametrize(
        "r, d", [(6, np.int64(4096)), (np.int32(3), np.int32(2000))], ids=["int64", "int32"]
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda r, d: DensityMatrix(r, d, np.zeros((0, 0))),
            maximally_mixed_state,
            random_state,
            random_separable_state,
            ghz_state,
            basis_product_state,
            lambda r, d: swap_operator(r, d, 1, 2),
        ],
        ids=["constructor", "mixed", "random", "separable", "ghz", "basis", "swap"],
    )
    def test_numpy_integer_dimensions_past_the_guard_rejected(self, r, d, build):
        # d**r in numpy's fixed width wrapped around, 4096^6 to 0, which built
        # a 0x0 "state", and 2000^3 in 32 bits to -589934592
        with pytest.raises(ValueError) as python:
            build(int(r), int(d))
        assert str(python.value) == f"total dimension {int(d)}^{int(r)} = {int(d) ** int(r)} exceeds guard 4096"
        with pytest.raises(ValueError, match=f"^{re.escape(str(python.value))}$"):
            build(r, d)

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

    def test_every_loop_has_a_free_partner(self):
        # detector_state pairs each loop with a free subsystem; flip
        # reduction keeps heads <= r/2, so free - loops = r - 2 * heads >= 0
        count = 0
        for r in range(1, 9):
            for key in enumerate_classes(r):
                free = r - len(set(key.heads) | set(key.tails))
                assert key.loop_count <= free, key
                count += 1
        assert count == 8788


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
        group = sorted(group_elements(2), key=lambda p: p.images)
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
            for t in group_elements(r):
                assert abs(trace_norm(apply_permutation(op, t)) / base - 1) < 1e-9

    def test_separable_states_stay_bounded(self):
        for i in range(20):
            r, d = [(2, 2), (2, 3), (3, 2), (3, 3)][i % 4]
            rho = random_separable_state(r, d, terms=1 + i % 10, seed=200 + i)
            report = evaluate_criteria(rho)
            assert report.verdict == "undetected"

    def test_class_guard_before_validation(self, monkeypatch):
        # r = 9 has no classes, so validating its 512 x 512 matrix is wasted
        calls = []
        check = DensityMatrix.state_violations
        monkeypatch.setattr(
            DensityMatrix, "state_violations", lambda rho: calls.append(rho) or check(rho)
        )
        with pytest.raises(ValueError, match=r"r must be in 1\.\.8, got 9"):
            evaluate_criteria(maximally_mixed_state(9, 2))
        assert calls == []

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


def _dense_norms(rho: DensityMatrix) -> list[float]:
    """Every class norm by the per-class route, on the Hermitian part."""
    m = rho.entries
    herm = DensityMatrix(rho.r, rho.d, (m + m.conj().T) / 2)
    return [trace_norm(apply_permutation(herm, rep)) for _, rep, _ in states._plan(rho.r)]


class _Messages(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.DEBUG)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def _logged_evaluation(rho: DensityMatrix, tolerance: float = 1e-9) -> tuple:
    """evaluate_criteria's report and its one debug record.  Collects the
    record with its own handler, since hypothesis runs a test's examples
    under one caplog fixture."""
    log, handler = logging.getLogger("permsep"), _Messages()
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        report = evaluate_criteria(rho, tolerance=tolerance)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    (message,) = handler.messages
    return report, message


def _evaluation_message(rho: DensityMatrix, tolerance: float = 1e-9) -> str:
    """evaluate_criteria's debug record, after checking every class norm
    against the per-class route."""
    report, message = _logged_evaluation(rho, tolerance)
    for rec, norm in zip(report.records, _dense_norms(rho)):
        assert _close(rec.norm, norm), rec.key.render()
    return message


def _evaluation_counts(rho: DensityMatrix) -> tuple[int, ...]:
    """(classes, orbits, svd, eigvalsh, real svd, pure) from evaluate_criteria's
    debug record; svd and eigvalsh count the dense decompositions only."""
    match = re.search(
        r"(\d+) classes, (\d+) orbits, (\d+) svd, (\d+) eigvalsh, (\d+) real svd, (\d+) pure",
        _evaluation_message(rho),
    )
    return tuple(int(x) for x in match.groups())


def _assert_per_class_norms(rho: DensityMatrix, report) -> None:
    """Every norm of the report on rho, off the pure route and the swap
    pairing, is the per-class route's on rho's Hermitian part, bit for bit:
    one np.linalg call on each class's matrix alone."""
    m = rho.entries
    herm = rho
    if not np.array_equal(m, m.conj().T):
        herm = DensityMatrix(rho.r, rho.d, (m + m.conj().T) / 2)
    for rec, (_, _, partner) in zip(report.records, states._plan(rho.r)):
        if partner is not None:
            assert rec.norm == report.records[partner].norm
            continue
        permuted = apply_permutation(herm, rec.representative).entries
        if rec.key.arrow_count == 0:
            assert rec.norm == float(np.abs(np.linalg.eigvalsh(permuted)).sum())
        elif rec.key.transpose_partner == rec.key:  # self-paired: the norm of its real form
            real = states._real_form(permuted.copy(), states._real_layout(rec.key, rho.d))
            assert rec.norm == trace_norm(real)
        else:
            assert rec.norm == trace_norm(permuted)


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

    def test_decomposition_counts_on_full_evaluations(self):
        # r = 6 has 10 self-paired arrow classes, which take the real route
        assert _evaluation_counts(random_state(6, 2, seed=1)) == (461, 251, 210, 31, 10, 0)
        # the noisy GHZ state is unchanged by every subsystem swap
        assert _evaluation_counts(_noisy_ghz(3, 3)) == (9, 2, 1, 1, 0, 0)

    def test_decomposition_counts_of_transpose_pairs(self):
        # the r = 7 and 8 evaluations take too long for the suite, so count
        # the transpose pairs of keys, split by the decomposition they take
        for r, svds, eighs in ((6, 220, 31), (7, 826, 63), (8, 3171, 127)):
            keys = enumerate_classes(r)[1:]
            pairs = {frozenset((key, key.transpose_partner)) for key in keys}
            loops = [pair for pair in pairs if next(iter(pair)).arrow_count == 0]
            assert (len(pairs) - len(loops), len(loops)) == (svds, eighs)

    @pytest.mark.parametrize(
        "matrices, sizes",
        [
            (1, {"eigvalsh": [1] * 7, "real svd": [1] * 3, "svd": [1] * 12}),
            (4, {"eigvalsh": [4, 3], "real svd": [3], "svd": [4, 4, 4]}),
            (5, {"eigvalsh": [5, 2], "real svd": [3], "svd": [5, 5, 2]}),
        ],
    )
    def test_chunk_boundaries_keep_every_norm(self, monkeypatch, matrices, sizes):
        # stacks of one (decomposed in place), full stacks and partial last
        # stacks all give each class the norm np.linalg gives it alone
        monkeypatch.setattr(states, "_STACK_BYTES", matrices * 16 * 16**2)
        chunks, decompose = {}, states._decompose_chunk

        def recording(herm, norms, stacks, chunk):
            chunks.setdefault(chunk[0], []).append(len(chunk[1]))
            decompose(herm, norms, stacks, chunk)

        monkeypatch.setattr(states, "_decompose_chunk", recording)
        rho = random_state(4, 2, seed=2)
        report = evaluate_criteria(rho)
        assert {route: sorted(n, reverse=True) for route, n in chunks.items()} == sizes
        _assert_per_class_norms(rho, report)

    @pytest.mark.parametrize("matrices", [1, 4])
    @pytest.mark.parametrize(
        "route, message",
        [
            ("eigvalsh", "Eigenvalues did not converge"),
            ("real svd", "SVD did not converge"),
            ("svd", "SVD did not converge"),
        ],
    )
    def test_a_matrix_numpy_cannot_decompose_fails_the_evaluation(
        self, monkeypatch, matrices, route, message
    ):
        # one NaN-poisoned matrix, alone or last in a stack, raises numpy's
        # LinAlgError for the whole evaluation
        monkeypatch.setattr(states, "_STACK_BYTES", matrices * 16 * 16**2)
        rho = random_state(4, 2, seed=2)
        firsts = [i for i, (_, _, partner) in enumerate(states._plan(4)) if partner is None]
        orbits = next(orbits for kind, orbits in states._chunks(rho, firsts) if kind == route)
        assert (len(orbits) > 1) == (matrices > 1)
        bad, apply = states._plan(4)[orbits[-1]][1], states.apply_permutation

        def poisoned(state, sigma):
            out = apply(state, sigma)
            if sigma != bad:
                return out
            m = out.entries.copy()
            m[-1, 0] = m[0, -1] = np.nan
            return DensityMatrix(state.r, state.d, m)

        monkeypatch.setattr(states, "apply_permutation", poisoned)
        with pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
            evaluate_criteria(rho)

    def test_stack_of_one_real_form_at_d_1(self):
        # at d = 1 the permuted matrix is a view of the state's own array, so
        # the lone self-paired class's real form must not be written over it
        rho = maximally_mixed_state(2, 1)
        report, message = _logged_evaluation(rho, tolerance=0)  # off the pure route
        assert ", 0 svd, 1 eigvalsh, 1 real svd, 0 pure (" in message, message
        assert [rec.norm for rec in report.records] == [1.0, 1.0]
        assert rho.entries[0, 0] == 1 and not rho.entries.flags.writeable

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
        # both dims are small, so the route is one thread where it can be set,
        # and both are below the worker window
        threads = "1 blas thread" if _lapack._openblas_threads() else "blas threads unchanged"
        assert [rec.getMessage() for rec in records] == [
            "evaluate r=3 d=3: 9 classes, 2 orbits, 1 svd, 1 eigvalsh, 0 real svd, 0 pure (mixed), "
            f"swaps (1,2)(1,3)(2,3) certified: bound 0.0e+00 < 1e-12, 6 classes borrowed, {threads}, 1 worker",
            "evaluate r=4 d=2: 34 classes, 12 orbits, 6 svd, 4 eigvalsh, 2 real svd, 0 pure (mixed), "
            f"swaps (1,3)(2,4) certified: bound 0.0e+00 < 1e-12, 16 classes borrowed, {threads}, 1 worker",
        ]

    def test_repeat_evaluation_gives_equal_records(self):
        rho = random_state(4, 2, seed=6)
        assert evaluate_criteria(rho).records == evaluate_criteria(rho).records

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


def _pure(r: int, d: int, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d**r) + 1j * rng.standard_normal(d**r)
    v /= np.linalg.norm(v)
    return DensityMatrix(r, d, np.outer(v, v.conj()))


PURE_ROUTE = re.compile(r", 0 svd, 0 eigvalsh, 0 real svd, (\d+) pure \(bound \S+ < 1e-12, \d+ schmidt svd\)")


LIBRARY_PURE_STATES = (
    [(f"ghz-{r}-{d}", lambda r=r, d=d: ghz_state(r, d)) for r, d in SMALL_SIZES if r >= 2]
    + [(f"bell-2-{d}", lambda d=d: bell_pair_state(2, d, 1, 2)) for d in range(2, 9)]
    + [
        (f"detector-{key.type_label}-{d}", lambda key=key, d=d: detector_state(key, d))
        for key in enumerate_classes(2)[1:]
        for d in (2, 3, 5, 8)
    ]
)


def _self_paired_arrow_classes(r: int) -> list:
    return [key for key in enumerate_classes(r)[1:] if key.arrow_count and key.transpose_partner == key]


def _conjugating_subsystems(sigma: Permutation) -> tuple[int, ...] | None:
    """The subsystem permutation pi, as images of 1..r, that conjugates every
    Hermitian h permuted by sigma, or None when there is none: the reference
    for the involution that ``states._real_layout`` reads off a key.

    conj(h) is h permuted by the global transpose t, so the one candidate is
    sigma t sigma^-1, which must send each 2k - 1 to some 2 pi(k) - 1 and 2k
    to 2 pi(k).
    """
    moved = compose(compose(inverse(sigma), global_transpose(sigma.degree)), sigma).images
    pi = []
    for row, column in zip(moved[::2], moved[1::2]):
        if row % 2 == 0 or column != row + 1:
            return None
        pi.append((row + 1) // 2)
    return tuple(pi)


class TestStructuredRoutes:
    """The pure and real routes give every class the per-class route's norm
    within 1e-12 relative, and are taken exactly where they apply."""

    @small_settings
    @given(st.data())
    def test_pure_route_on_random_pure_states(self, data):
        r, d = data.draw(st.sampled_from(SMALL_SIZES))
        rho = _pure(r, d, data.draw(st.integers(0, 2**32 - 1)))
        message = _evaluation_message(rho)
        assert PURE_ROUTE.search(message), message

    @pytest.mark.parametrize(
        "make", [make for _, make in LIBRARY_PURE_STATES], ids=[n for n, _ in LIBRARY_PURE_STATES]
    )
    def test_pure_route_on_library_pure_states(self, make):
        message = _evaluation_message(make())
        assert PURE_ROUTE.search(message), message

    def test_pure_route_stays_serial(self, monkeypatch):
        # the Schmidt sums are one plain dict, so even at r = 6, d = 2, where
        # the dense route starts two workers, with CPUs to spare, the pure
        # route runs on the caller alone
        monkeypatch.setattr(_lapack.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        rho = ghz_state(6, 2)
        assert WORKER_SIZES[6, 2] == 2
        message = _evaluation_message(rho)
        assert PURE_ROUTE.search(message), message
        assert message.endswith(", 1 worker"), message

    @settings(property_settings, max_examples=60)
    @given(st.data())
    def test_pure_norm_is_a_class_function(self, data):
        # S(H) S(T) of sigma's key is the norm of any sigma in the class
        r, d = data.draw(st.sampled_from([(r, d) for r in range(2, 7) for d in (2, 3)]))
        rho = _pure(r, d, data.draw(st.integers(0, 2**32 - 1)))
        sigma = data.draw(permutations_of_degree(r))
        key = canonical_key(sigma)
        assume(not key.is_trivial)
        psi, _ = states._pure_vector(rho.entries)
        (norm,), _ = states._factored_norms(psi, r, d, [key])
        dense = trace_norm(apply_permutation(rho, sigma))
        assert abs(norm - dense) <= 1e-12 * dense

    def test_schmidt_svds_at_most_half_the_bipartitions(self):
        for r in (2, 3, 4, 5, 6):
            message = _evaluation_message(_pure(r, 2, seed=r))
            assert f", {2 ** (r - 1) - 1} schmidt svd)" in message, message

    @pytest.mark.parametrize("epsilon, reason", [(1e-6, r"mixed"), (1e-9, r"bound \S+ >= 1e-12")])
    def test_near_pure_states_take_the_dense_route(self, epsilon, reason):
        psi = _pure(2, 4, seed=7).entries
        rho = DensityMatrix(2, 4, (1 - epsilon) * psi + epsilon * np.eye(16) / 16)
        # a loose tolerance does not loosen the certificate
        for tolerance in (1e-9, 0.5):
            message = _evaluation_message(rho, tolerance)
            assert re.search(rf", 0 pure \({reason}\)", message), message

    @pytest.mark.parametrize("make", [
        lambda: ghz_state(3, 2), lambda: _pure(4, 2, seed=3), lambda: bell_pair_state(2, 3, 1, 2),
        lambda: random_state(4, 2, seed=1),
    ], ids=["ghz-3-2", "pure-4-2", "bell-2-3", "random-4-2"])
    def test_tolerance_zero_takes_the_dense_route(self, make):
        message = _evaluation_message(make(), tolerance=0.0)
        assert re.search(r", 0 pure \((mixed|bound \S+ >= 0e\+00)\)", message), message

    @settings(property_settings, max_examples=40)
    @given(st.data())
    def test_real_route_on_random_states(self, data):
        r, d = data.draw(st.sampled_from([(2, 2), (2, 3), (2, 5), (2, 8), (4, 2), (6, 2)]))
        rho = random_state(r, d, seed=data.draw(st.integers(0, 2**32 - 1)))
        before = rho.entries.copy()
        message = _evaluation_message(rho)
        assert f", {len(_self_paired_arrow_classes(r))} real svd, 0 pure (mixed)" in message
        assert np.array_equal(rho.entries, before)  # the real form overwrites only its own copy

    def test_dense_route_where_the_permuted_matrix_is_the_state(self):
        # at d = 1 apply_permutation returns a view of the state's own array
        rho = maximally_mixed_state(2, 1)
        report = evaluate_criteria(rho, tolerance=0.0)
        assert [rec.norm for rec in report.records] == [1.0, 1.0]
        assert rho.entries[0, 0] == 1.0

    def test_conjugating_involution_of_every_self_paired_class(self):
        # sigma t sigma^-1 of the representative decides, class by class
        for r, count in ((1, 0), (2, 1), (3, 0), (4, 3), (5, 0), (6, 10), (7, 0), (8, 35)):
            found = 0
            for key in enumerate_classes(r):
                pi = _conjugating_subsystems(representative_permutation(key))
                self_paired = bool(key.arrow_count) and key.transpose_partner == key
                assert self_paired == (pi is not None), key.render()
                if pi is None:
                    continue
                s = states._real_layout(key, 2)
                assert sorted(pi) == list(range(1, r + 1))
                assert all(pi[pi[k] - 1] == k + 1 for k in range(r))
                assert np.array_equal(s, _subsystem_basis(r, 2, pi))
                found += 1
            assert found == count

    @pytest.mark.parametrize("r, d", [(2, 3), (2, 4), (4, 2)])
    def test_real_form_is_exactly_real(self, r, d):
        m = random_state(r, d, seed=11).entries
        herm = DensityMatrix(r, d, (m + m.conj().T) / 2)
        dim = d**r
        for key in _self_paired_arrow_classes(r):
            rep = representative_permutation(key)
            pi = _conjugating_subsystems(rep)
            a = apply_permutation(herm, rep).entries
            moved = Permutation(tuple(p for k in pi for p in (2 * k - 1, 2 * k)))
            assert np.array_equal(apply_permutation(DensityMatrix(r, d, a), moved).entries, a.conj())
            # P a P = conj(a) for the basis permutation matrix P of pi, and
            # U = (I + iP) / sqrt(2) is unitary since P^2 = I
            p = np.zeros((dim, dim))
            p[np.arange(dim), _subsystem_basis(r, d, pi)] = 1
            assert np.array_equal(p @ a @ p, a.conj())
            v = np.eye(dim) + 1j * p
            u = v / np.sqrt(2)
            assert np.allclose(u.conj().T @ u, np.eye(dim), rtol=0, atol=1e-15)
            # U^dagger a U as V^dagger a V / 2: V's entries 0, 1, i and 1 + i
            # multiply without rounding, so the imaginary parts cancel exactly
            form = v.conj().T @ a @ v / 2
            assert not form.imag.any()
            real = states._real_form(a.copy(), states._real_layout(key, d))
            assert real.dtype == np.float64
            assert np.allclose(real, form.real, rtol=0, atol=1e-15)
            want = np.linalg.svd(form.real, compute_uv=False)
            assert np.allclose(np.linalg.svd(real, compute_uv=False), want, rtol=0, atol=1e-15)


def _subsystem_basis(r: int, d: int, images) -> np.ndarray:
    """The basis permutation s of the subsystem permutation k -> images[k - 1]:
    P rho P^dagger is rho[s][:, s]."""
    return np.arange(d**r).reshape((d,) * r).transpose([k - 1 for k in images]).reshape(d**r)


def _swap_basis(r: int, d: int, k: int, l: int) -> np.ndarray:
    return _subsystem_basis(r, d, [l if j == k else k if j == l else j for j in range(1, r + 1)])


def _symmetrized(rho: DensityMatrix, block: tuple[int, ...]) -> DensityMatrix:
    """The average of P rho P^dagger over every permutation P of the subsystems
    in block: symmetric under their swaps up to rounding, not bit for bit."""
    total = np.zeros_like(rho.entries)
    for order in itertools.permutations(block):
        images = list(range(1, rho.r + 1))
        for k, image in zip(block, order):
            images[k - 1] = image
        s = _subsystem_basis(rho.r, rho.d, images)
        total += rho.entries[np.ix_(s, s)]
    return DensityMatrix(rho.r, rho.d, total / math.factorial(len(block))).validate_state()


def _rotated_noisy_ghz(r: int, d: int, seed: int, p: float = 0.6) -> DensityMatrix:
    """p GHZ + (1 - p) I / d^r under U x ... x U, U a random unitary, built as
    a np.kron product, which rounds differently for each factor order."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    big = functools.reduce(np.kron, [u] * r)
    psi = big @ ghz_state(r, d).entries[:, 0] * np.sqrt(d)
    m = p * np.outer(psi, psi.conj()) + (1 - p) * np.eye(d**r) / d**r
    return DensityMatrix(r, d, m / np.trace(m).real).validate_state()


def _swap_orbits_reference(r: int, swaps) -> tuple:
    """(partners, depth, borrowed) of ``states._swap_orbits`` by a search over
    canonical keys: the class of sigma moves to the class of compose(g, sigma),
    for g the global transpose (no swap) or a subscript swap
    (2k-1 2l-1)(2k 2l)."""
    plan = states._plan(r)
    index_of = {key: i for i, (key, _, _) in enumerate(plan)}
    moves = [(global_transpose(2 * r), 0)] + [
        (permutation_from_cycles([(2 * k - 1, 2 * l - 1), (2 * k, 2 * l)], 2 * r), 1)
        for k, l in swaps
    ]
    head, steps = {}, {}
    for start in range(len(plan)):
        if start in head:
            continue
        head[start], steps[start], queue = start, 0, [start]
        while queue:  # the fewest swaps first: a transpose costs none
            queue.sort(key=steps.get)
            i = queue.pop(0)
            for g, cost in moves:
                j = index_of[canonical_key(compose(g, plan[i][1]))]
                if j not in steps or steps[i] + cost < steps[j]:
                    head[j], steps[j] = start, steps[i] + cost
                    queue.append(j)
    partners = tuple(None if head[i] == i else head[i] for i in range(len(plan)))
    pair = [i if partner is None else partner for i, (_, _, partner) in enumerate(plan)]
    borrowed = sum(head[i] != pair[i] for i in range(len(plan)))
    return partners, max(steps.values(), default=0), borrowed


def _swap_breaking(r: int, d: int, seed: int) -> tuple[np.ndarray, list[float]]:
    """A random Hermitian E with a zero diagonal, so that it passes the
    diagonal screen, and ||E - P E P^dagger||_F for each swap P in pair order."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d**r, d**r)) + 1j * rng.standard_normal((d**r, d**r))
    e = (g + g.conj().T) / 2
    np.fill_diagonal(e, 0)
    bases = [_swap_basis(r, d, k, l) for k, l in itertools.combinations(range(1, r + 1), 2)]
    return e, [np.linalg.norm(e - e[np.ix_(s, s)]) for s in bases]


def _orbit_count(message: str) -> int:
    return int(re.search(r"(\d+) orbits", message).group(1))


def _transpose_orbits(r: int) -> int:
    return sum(1 for _, _, partner in states._plan(r) if partner is None)


class TestSwapPairing:
    """Classes paired by the subsystem swaps certified on the state give the
    per-class route's norm within 1e-12 relative; uncertified swaps pair
    nothing."""

    @pytest.mark.parametrize("r, swaps", [
        (2, [(1, 2)]), (3, [(1, 2)]), (3, [(1, 2), (2, 3)]), (3, [(1, 2), (1, 3), (2, 3)]),
        (4, [(1, 2), (3, 4)]), (4, [(1, 3), (2, 4)]), (4, [(1, 2), (2, 3), (3, 4)]),
        (4, list(itertools.combinations(range(1, 5), 2))), (5, [(2, 4)]),
        (5, [(1, 2), (2, 3), (3, 4), (4, 5)]), (5, list(itertools.combinations(range(1, 6), 2))),
    ])
    def test_orbits_match_a_search_over_canonical_keys(self, r, swaps):
        assert states._swap_orbits(r, tuple(swaps)) == _swap_orbits_reference(r, swaps)

    @pytest.mark.parametrize("r, d", [(2, 3), (3, 2), (4, 2), (3, 7), (2, 20)])
    def test_swap_distance_is_the_dense_frobenius_distance(self, r, d):
        # the larger dims take several rows per block, and a last block that
        # is not full; the pure route's distance to psi psi^dagger is the
        # same blockwise sum
        m = random_state(r, d, seed=d).entries
        pairs, bases = states._swap_bases(r, d)
        assert pairs == tuple(itertools.combinations(range(1, r + 1), 2))
        for (k, l), s in zip(pairs, bases):
            p = swap_operator(r, d, k, l)
            want = np.linalg.norm(m - p @ m @ p.conj().T)
            assert abs(states._distance(m, lambda rows: m[s[rows, None], s]) - want) <= 1e-12 * want
        psi = m[:, 0] / np.sqrt(m[0, 0].real)
        want = np.linalg.norm(m - np.outer(psi, psi.conj()))
        distance = states._distance(m, lambda rows: np.outer(psi[rows], psi.conj()))
        assert abs(distance - want) <= 1e-12 * want

    def test_orbit_counts_of_fully_symmetric_states(self):
        every = lambda r: tuple(itertools.combinations(range(1, r + 1), 2))
        counts = [sum(p is None for p in states._swap_orbits(r, every(r))[0]) for r in range(2, 9)]
        assert counts == [2, 2, 5, 5, 9, 9, 14]

    @pytest.mark.parametrize("r, d", [(2, 3), (3, 2), (4, 2)])
    def test_a_swap_relabels_the_key(self, r, d):
        # the norm of class (H, T) on P rho P^dagger is that of class
        # (pi(H), pi(T)) on rho, for a state with no symmetry
        rho = random_state(r, d, seed=r)
        for k, l in itertools.combinations(range(1, r + 1), 2):
            s = _swap_basis(r, d, k, l)
            swapped = DensityMatrix(r, d, rho.entries[np.ix_(s, s)])
            move = {k: l, l: k}
            for key, rep, _ in states._plan(r):
                image = _reduced_key(r, [move.get(h, h) for h in key.heads], [move.get(t, t) for t in key.tails])
                want = trace_norm(apply_permutation(rho, representative_permutation(image)))
                assert _close(trace_norm(apply_permutation(swapped, rep)), want), key.render()

    @settings(property_settings, max_examples=40)
    @given(st.data())
    def test_a_subsystem_permutation_relabels_the_report(self, data):
        # P rho P^dagger = rho[s][:, s] carries rho's subsystem pi(k) as its
        # subsystem k, so its whole report is rho's with each key (H, T) read
        # at (pi(H), pi(T)), whichever routes the two evaluations take: dense,
        # eigvalsh, real, pure or swap-paired
        r, d = data.draw(st.sampled_from([(2, 2), (2, 3), (2, 9), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]))
        pi = data.draw(st.permutations(range(1, r + 1)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        make = data.draw(st.sampled_from([random_state, random_separable_state, _pure, _rotated_noisy_ghz]))
        rho = make(r, d, seed=seed)
        s = _subsystem_basis(r, d, pi)
        moved = evaluate_criteria(DensityMatrix(r, d, rho.entries[np.ix_(s, s)]))
        report = evaluate_criteria(rho)
        norms = {rec.key: rec.norm for rec in report.records}
        assert len(moved.records) == len(norms)
        for rec in moved.records:
            image = _reduced_key(r, [pi[h - 1] for h in rec.key.heads], [pi[t - 1] for t in rec.key.tails])
            assert abs(rec.norm - norms[image]) <= 1e-12 * norms[image], rec.key.render()
        assert abs(moved.max_norm - report.max_norm) <= 1e-12 * report.max_norm
        assert moved.verdict == report.verdict

    @settings(property_settings, max_examples=40)
    @given(st.data())
    def test_symmetrized_random_states(self, data):
        r = data.draw(st.integers(2, 4))
        d = data.draw(st.integers(2, 3))
        block = tuple(data.draw(st.lists(st.integers(1, r), min_size=2, max_size=r, unique=True)))
        rho = _symmetrized(random_state(r, d, seed=data.draw(st.integers(0, 2**32 - 1))), tuple(sorted(block)))
        message = _evaluation_message(rho)
        named = re.search(r"swaps (\S+) certified: bound \S+ < 1e-12, (\d+) classes borrowed", message)
        assert named, message
        certified = re.findall(r"\((\d),(\d)\)", named.group(1))
        assert {(int(k), int(l)) for k, l in certified} == set(itertools.combinations(sorted(block), 2))
        partners, _, borrowed = states._swap_orbits(r, tuple((int(k), int(l)) for k, l in certified))
        assert _orbit_count(message) == sum(p is None for p in partners)
        assert int(named.group(2)) == borrowed

    @pytest.mark.parametrize("r, d, orbits", [(3, 2, 2), (3, 3, 2), (3, 4, 2), (4, 2, 5)])
    def test_rotated_noisy_ghz(self, r, d, orbits):
        rho = _rotated_noisy_ghz(r, d, seed=r + d)
        for k, l in itertools.combinations(range(1, r + 1), 2):
            s = _swap_basis(r, d, k, l)
            assert not np.array_equal(rho.entries[np.ix_(s, s)], rho.entries)  # not bit for bit
        message = _evaluation_message(rho)
        assert " certified: bound " in message, message
        assert _orbit_count(message) == orbits

    def test_bell_pair_certifies_its_own_swap_only(self):
        message = _evaluation_message(bell_pair_state(3, 2, 1, 2))
        assert ", swaps (1,2) certified: bound 0.0e+00 < 1e-12, 3 classes borrowed, " in message, message
        assert _orbit_count(message) == _transpose_orbits(3) - 2

    @pytest.mark.parametrize("factor, certified", [(0.9, True), (1.1, False)])
    def test_perturbation_at_the_limit(self, factor, certified):
        # scaled so that sqrt(dim) * delta is factor * 1e-12 for the farthest
        # swap (factor 0.9) or the nearest one (factor 1.1); every class is
        # one swap from its orbit's first class
        e, deltas = _swap_breaking(3, 2, seed=3)
        scale = 1e-12 / np.sqrt(8) / (max(deltas) if certified else min(deltas))
        message = _evaluation_message(DensityMatrix(3, 2, _noisy_ghz(3, 2).entries + factor * scale * e))
        swaps = re.escape("swaps (1,2)(1,3)(2,3)")
        if certified:
            assert re.search(swaps + r" certified: bound 9\.0e-13 < 1e-12", message), message
            assert _orbit_count(message) == 2
        else:
            assert re.search(swaps + r" past the screen: bound 1\.1e-12 >= 1e-12", message), message
            assert _orbit_count(message) == _transpose_orbits(3)

    @pytest.mark.parametrize("factor, certified", [(0.45, True), (0.6, False)])
    def test_depth_multiplies_the_bound(self, factor, certified):
        # at r = 4 every swap is certified on its own, at most factor * 1e-12,
        # but some classes lie two swaps from their orbit's first class
        assert states._swap_orbits(4, tuple(itertools.combinations(range(1, 5), 2)))[1] == 2
        e, deltas = _swap_breaking(4, 2, seed=4)
        scale = 1e-12 / np.sqrt(16) / max(deltas)
        message = _evaluation_message(DensityMatrix(4, 2, _noisy_ghz(4, 2).entries + factor * scale * e))
        swaps = re.escape("swaps (1,2)(1,3)(1,4)(2,3)(2,4)(3,4)")
        if certified:
            assert re.search(swaps + r" certified: bound 9\.0e-13 < 1e-12", message), message
            assert _orbit_count(message) == 5
        else:
            assert re.search(swaps + r" past the screen: bound 1\.2e-12 >= 1e-12", message), message
            assert _orbit_count(message) == _transpose_orbits(4)

    @pytest.mark.parametrize("make", [
        lambda: _noisy_ghz(3, 2), lambda: maximally_mixed_state(4, 2), lambda: bell_pair_state(4, 2, 1, 3),
    ], ids=["noisy-ghz-3-2", "mixed-4-2", "bell-4-2"])
    def test_tolerance_zero_pairs_by_transpose_only(self, make):
        rho = make()
        assert " certified: " in _evaluation_message(rho)
        message = _evaluation_message(rho, tolerance=0.0)
        assert ", no swap past the screen, " in message, message
        assert _orbit_count(message) == _transpose_orbits(rho.r)

    @pytest.mark.parametrize("r, d", [(2, 3), (3, 2), (4, 2), (6, 2)])
    def test_generic_states_stop_at_the_screen(self, r, d):
        message = _evaluation_message(random_state(r, d, seed=r * d))
        assert ", no swap past the screen, " in message, message
        assert _orbit_count(message) == _transpose_orbits(r)

    def test_pure_states_check_no_swap(self):
        message = _evaluation_message(ghz_state(3, 2))
        assert ", swaps unchecked, " in message, message


# local-unitary invariance: r <= 4 and dim <= 81, so that each example
# evaluates two states in milliseconds
LU_SIZES = [(r, d) for r in range(2, 5) for d in range(2, 10) if d**r <= 81]
LU_KINDS = ("random", "pure", "ghz", "noisy-ghz", "bell", "detector")


def _lu_state(kind: str, r: int, d: int, seed: int) -> DensityMatrix:
    """A state of the given kind: random and detector states are mixed and
    take the dense route, random pure and GHZ states (and a Bell pair at
    r = 2) the pure one, and the noisy GHZ and Bell-pair states the swap
    pairing."""
    if kind == "random":
        return random_state(r, d, seed=seed)
    if kind == "pure":
        return _pure(r, d, seed)
    if kind == "ghz":
        return ghz_state(r, d)
    if kind == "noisy-ghz":
        return _noisy_ghz(r, d)
    if kind == "bell":
        k, l = list(itertools.combinations(range(1, r + 1), 2))[seed % math.comb(r, 2)]
        return bell_pair_state(r, d, k, l)
    keys = enumerate_classes(r)[1:]
    return detector_state(keys[seed % len(keys)], d)


def _locally_rotated(rho: DensityMatrix, seed: int, same: bool) -> DensityMatrix:
    """(U_1 x ... x U_r) rho (U_1 x ... x U_r)^dagger for random unitaries U_k,
    or one U on every subsystem when ``same``, which keeps a state's swap
    symmetries."""
    rng = np.random.default_rng(seed)
    us = []
    for _ in range(1 if same else rho.r):
        q, t = np.linalg.qr(rng.standard_normal((rho.d,) * 2) + 1j * rng.standard_normal((rho.d,) * 2))
        us.append(q * (np.diag(t) / np.abs(np.diag(t))))
    big = functools.reduce(np.kron, us * rho.r if same else us)
    return DensityMatrix(rho.r, rho.d, big @ rho.entries @ big.conj().T)


class TestLocalUnitaryInvariance:
    """A local unitary keeps every class norm (the criteria see entanglement
    only), whichever route each side's evaluation takes."""

    @property_settings
    @given(
        kind=st.sampled_from(LU_KINDS),
        size=st.sampled_from(LU_SIZES),
        seed=st.integers(0, 2**32 - 1),
        same=st.booleans(),
    )
    def test_class_norms_are_local_unitary_invariant(self, kind, size, seed, same):
        rho = _lu_state(kind, *size, seed)
        rotated = _locally_rotated(rho, seed, same)
        before, after = evaluate_criteria(rho), evaluate_criteria(rotated)
        assert [rec.key for rec in before.records] == [rec.key for rec in after.records]
        for a, b in zip(before.records, after.records):
            assert _close(b.norm, a.norm), (a.key.render(), a.norm, b.norm)

    @pytest.mark.parametrize("kind, r, d, same, route", [
        ("ghz", 3, 4, False, " pure (bound "),
        ("bell", 2, 9, False, " pure (bound "),
        ("pure", 4, 3, False, " pure (bound "),
        ("random", 4, 3, False, " 12 svd, 7 eigvalsh, 3 real svd, 0 pure (mixed), no swap "),
        ("noisy-ghz", 4, 3, True, " certified: "),
        ("bell", 4, 2, True, " certified: "),
        ("detector", 4, 3, True, " certified: "),
    ], ids=["pure-ghz", "pure-bell", "pure-random", "dense-real", "swap-ghz", "swap-bell", "swap-detector"])
    def test_examples_cross_every_route(self, kind, r, d, same, route):
        # the examples above reach the pure, dense, real and swap routes,
        # on both sides
        rho = _lu_state(kind, r, d, seed=5)
        for state in (rho, _locally_rotated(rho, 5, same)):
            message = _evaluation_message(state)
            assert route in message, message


def _mixed(p: float, rho1: DensityMatrix, rho2: DensityMatrix) -> DensityMatrix:
    return DensityMatrix(rho1.r, rho1.d, p * rho1.entries + (1 - p) * rho2.entries)


class TestConvexity:
    """Every class norm is a norm of a linear image of the state, so it is
    convex in the state: mixing never raises it above the mix of the norms,
    whichever route each of the three evaluations takes."""

    @settings(property_settings, max_examples=100)
    @given(
        kinds=st.tuples(st.sampled_from(LU_KINDS), st.sampled_from(LU_KINDS)),
        size=st.sampled_from(LU_SIZES),
        seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
        p=st.one_of(st.floats(0.0, 1.0), st.sampled_from([1e-15, 1 - 1e-15])),
    )
    def test_class_norms_are_convex(self, kinds, size, seeds, p):
        rho1, rho2 = (_lu_state(kind, *size, seed) for kind, seed in zip(kinds, seeds))
        one, two = evaluate_criteria(rho1), evaluate_criteria(rho2)
        mix = evaluate_criteria(_mixed(p, rho1, rho2))
        for a, b, m in zip(one.records, two.records, mix.records):
            bound = p * a.norm + (1 - p) * b.norm
            # the certified routes' norms are within 1e-12 of the dense ones
            assert m.norm <= bound + 1e-11 * max(1.0, bound), (m.key.render(), m.norm, bound)

    @pytest.mark.parametrize("kinds, r, d, p, route", [
        (("pure", "random"), 4, 3, 1 - 1e-15, " pure (bound "),
        (("pure", "random"), 4, 3, 0.999, " 12 svd, 7 eigvalsh, 3 real svd, 0 pure (mixed), no swap "),
        (("noisy-ghz", "ghz"), 4, 3, 0.5, " certified: "),
        (("noisy-ghz", "random"), 4, 3, 0.999, ", no swap "),
    ], ids=["pure", "pure-plus-noise", "swap", "swap-plus-generic"])
    def test_mixes_cross_routes(self, kinds, r, d, p, route):
        # a little noise takes a pure state off the pure route, and a
        # generic state a symmetric one off the swap pairing
        rho = _mixed(p, *(_lu_state(kind, r, d, seed=5) for kind in kinds))
        message = _evaluation_message(rho)
        assert route in message, message


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

    def test_writer_refuses_what_the_reader_refuses(self, tmp_path):
        path = tmp_path / "state.txt"
        with pytest.raises(StateFileError, match="^subsystem count 9 exceeds guard 8$"):
            write_state_file(path, maximally_mixed_state(9, 2))
        assert not path.exists()

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
        # the matrix and the shifted copy that zpotrf factors in place: 2.01x
        # the matrix; the np.linalg.cholesky fallback also holds its factor
        path = tmp_path / "state.txt"
        write_state_file(path, random_state(8, 2, seed=2))
        tracemalloc.start()
        try:
            read_state_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 2.5 if _lapack._zpotrf() is not None else 3.5
        assert peak <= bound * 16 * 256**2

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


def _traced_peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_owned(rho: DensityMatrix) -> None:
    assert rho.entries.dtype == np.complex128
    assert not rho.entries.flags.writeable
    assert rho.entries.flags.c_contiguous


class TestOwnership:
    """A state owns one read-only, C-contiguous array; only the public
    constructor copies."""

    def test_constructor_copies_the_callers_array(self):
        m = np.eye(4, dtype=np.complex128) / 4
        rho = DensityMatrix(2, 2, m)
        m[0, 0] = 7
        assert rho.entries[0, 0] == 0.25
        _assert_owned(rho)

    def test_constructor_makes_fortran_and_real_input_c_contiguous(self):
        rho = DensityMatrix(2, 2, np.asfortranarray(np.arange(16.0).reshape(4, 4)))
        assert np.array_equal(rho.entries, np.arange(16.0).reshape(4, 4))
        _assert_owned(rho)

    @pytest.mark.parametrize("factory, params", [
        (basis_product_state, {}), (bell_pair_state, {"k": 1, "l": 3}), (ghz_state, {}),
        (maximally_mixed_state, {}), (random_separable_state, {}), (random_state, {}),
    ], ids=[
        "basis_product-params0", "bell_pair_on-params1", "ghz-params2",
        "maximally_mixed-params3", "random_separable-params4", "random_state-params5",
    ])
    def test_factories(self, factory, params):
        _assert_owned(factory(3, 2, **params))

    def test_states_compare_and_hash_by_identity(self):
        a, b = random_state(2, 2, seed=1), random_state(2, 2, seed=1)
        assert a == a and a != b
        assert np.array_equal(a.entries, b.entries)
        assert len({a, b, a}) == 2

    def test_detector_states(self):
        for key in enumerate_classes(4):
            if not key.is_trivial:
                _assert_owned(detector_state(key, 2))

    @pytest.mark.parametrize("r, d", [(1, 1), (2, 3), (3, 2)])
    def test_apply_permutation(self, r, d):
        rho = random_state(r, d, seed=1)
        for sigma in itertools.permutations(range(1, 2 * r + 1)):
            out = apply_permutation(rho, Permutation(sigma))
            _assert_owned(out)
            # only a map that moves no entry may share rho's array
            assert np.shares_memory(out.entries, rho.entries) == (
                d == 1 or list(sigma) == sorted(sigma)
            )

    def test_read_state_file_both_routes(self, tmp_path):
        fast, slow = tmp_path / "fast.state", tmp_path / "slow.state"
        write_state_file(fast, random_state(2, 2, seed=1))
        slow.write_text("1 2\n0.5 0 0 0\n0 0 0.5 0_0\n")
        assert _read_streamed(fast) is not None and _read_streamed(slow) is None
        for path in (fast, slow):
            for validate in (True, False):
                _assert_owned(read_state_file(path, validate=validate))

    def test_evaluation_peak_memory(self):
        # the parent held each permuted matrix and its copy: 2.0x the matrix
        m = random_state(2, 16, seed=5).entries
        rho = DensityMatrix(2, 16, (m + m.conj().T) / 2).validate_state()
        assert np.array_equal(rho.entries, rho.entries.conj().T)  # so no Hermitian part is built
        assert _traced_peak(evaluate_criteria, rho) <= 1.5 * 16 * 256**2

    def test_unvalidated_read_peak_memory(self, tmp_path):
        # the parent held the parsed matrix and its copy: 2.0x the matrix
        path = tmp_path / "state.txt"
        write_state_file(path, random_state(8, 2, seed=2))
        assert _traced_peak(read_state_file, path, validate=False) <= 1.5 * 16 * 256**2


class TestBenchmarkHooks:
    """perfbench's tracer replaces apply_permutation, and the tests below
    replace _decompose_chunk; evaluate_criteria must keep calling both by
    those module-global names."""

    def test_evaluation_calls_the_module_globals(self, monkeypatch):
        applied, chunks = [], []
        apply, decompose = states.apply_permutation, states._decompose_chunk

        def counting_apply(rho, sigma):
            applied.append(apply(rho, sigma))
            return applied[-1]

        def counting_decompose(herm, norms, stacks, chunk):
            chunks.append(chunk)
            decompose(herm, norms, stacks, chunk)

        monkeypatch.setattr(states, "apply_permutation", counting_apply)
        monkeypatch.setattr(states, "_decompose_chunk", counting_decompose)
        rho = random_state(6, 2, seed=1)
        firsts = [i for i, (_, _, partner) in enumerate(states._plan(6)) if partner is None]
        for _ in range(2):  # the second call reuses the cached class plan
            applied.clear(), chunks.clear()
            evaluate_criteria(rho)
            assert len(applied) == 251
            assert all(out.entries.shape == (64, 64) for out in applied)
            # one decomposition per orbit: 220 SVDs, 10 of them of real forms,
            # and 31 eigvalsh, in stacks of at most 16 dim-64 complex matrices
            assert sorted(i for _, orbits in chunks for i in orbits) == firsts
            counts = {route: 0 for route, _ in chunks}
            for route, orbits in chunks:
                counts[route] += len(orbits)
            assert counts == {"eigvalsh": 31, "real svd": 10, "svd": 210}
            assert max(len(orbits) for _, orbits in chunks) == 16


openblas = pytest.mark.skipif(
    _lapack._openblas_threads() is None, reason="numpy's BLAS is not its bundled OpenBLAS"
)


class TestBlasThreads:
    """evaluate_criteria runs small decompositions on one OpenBLAS thread
    and gives the caller's thread count back, errors included."""

    @staticmethod
    def _record_threads(monkeypatch, name: str = "_decompose_chunk", owner=states) -> list[int]:
        """The thread count at each call of owner's global ``name``."""
        get, _ = _lapack._openblas_threads()
        seen, call = [], getattr(owner, name)

        def recording(*args, **kwargs):
            seen.append(get())
            return call(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
        return seen

    @openblas
    @pytest.mark.parametrize(
        "make, inside",
        [(lambda: random_state(3, 2, seed=1), 1), (lambda: random_state(2, 20, seed=1), 2)],
        ids=["dim-8", "dim-400"],
    )
    def test_caller_count_restored(self, monkeypatch, make, inside):
        get, set_ = _lapack._openblas_threads()
        caller = get()
        rho = make()
        seen = self._record_threads(monkeypatch)
        try:
            set_(2)
            evaluate_criteria(rho)
            assert get() == 2
            assert seen and set(seen) == {inside}  # a large dim keeps the caller's 2
        finally:
            set_(caller)

    @openblas
    def test_caller_count_restored_on_error(self, monkeypatch):
        get, set_ = _lapack._openblas_threads()
        caller = get()

        def failing_decompose(herm, norms, stacks, chunk):
            raise RuntimeError("decomposition failed")

        monkeypatch.setattr(states, "_decompose_chunk", failing_decompose)
        try:
            set_(2)
            with pytest.raises(RuntimeError, match="decomposition failed"):
                evaluate_criteria(random_state(3, 2, seed=1))
            assert get() == 2
        finally:
            set_(caller)

    @openblas
    @pytest.mark.parametrize("r, d, inside", [(6, 2, 1), (2, 20, 2)], ids=["dim-64", "dim-400"])
    def test_positivity_check_threads(self, monkeypatch, r, d, inside):
        # a small state's check leaves no OpenBLAS helper thread spinning
        # into the evaluation that follows; a large one keeps the caller's 2
        get, set_ = _lapack._openblas_threads()
        caller = get()
        rho = DensityMatrix(r, d, random_state(r, d, seed=1).entries)  # not yet validated
        seen = self._record_threads(monkeypatch, "_factor_in_place")
        try:
            set_(2)
            rho.validate_state()
            assert seen == [inside]
            assert get() == 2
        finally:
            set_(caller)

    @openblas
    def test_caller_count_restored_after_a_read(self, monkeypatch, tmp_path):
        get, set_ = _lapack._openblas_threads()
        caller = get()
        good, bad = tmp_path / "good.state", tmp_path / "bad.state"
        write_state_file(good, random_state(6, 2, seed=1))
        negative = np.diag(np.linspace(-0.01, 1, 64)).astype(complex)
        write_state_file(bad, DensityMatrix(6, 2, negative / np.trace(negative)))
        seen = self._record_threads(monkeypatch, "_factor_in_place")
        try:
            set_(2)
            read_state_file(good)
            assert get() == 2
            with pytest.raises(StateValidationError, match="minimum eigenvalue"):
                read_state_file(bad)  # zpotrf fails, eigvalsh decides
            assert get() == 2
            assert seen == [1, 1]
        finally:
            set_(caller)

    @openblas
    @pytest.mark.parametrize("r, d, inside", [(7, 2, 1), (2, 20, 2)], ids=["dim-128", "dim-400"])
    def test_public_trace_norm_threads(self, monkeypatch, r, d, inside):
        # a dim-128 call leaves no OpenBLAS helper thread spinning into what
        # follows; a large one keeps the caller's 2
        get, set_ = _lapack._openblas_threads()
        caller = get()
        m = random_state(r, d, seed=1).entries
        want = float(np.linalg.svd(m, compute_uv=False).sum())
        seen = self._record_threads(monkeypatch, "svd", np.linalg)
        try:
            set_(2)
            assert abs(trace_norm(m) - want) <= 1e-12 * want
            assert seen == [inside]
            assert get() == 2
        finally:
            set_(caller)

    @openblas
    def test_evaluation_sets_the_count_twice(self, monkeypatch):
        # the evaluation's scope sets one thread and restores the caller's,
        # and its two workers leave the count alone
        monkeypatch.setattr(_lapack.os, "sched_getaffinity", lambda pid: {0, 1})
        get, set_ = _lapack._openblas_threads()
        caller, calls = get(), []

        def counting_set(count):
            calls.append(count)
            set_(count)

        rho = random_state(6, 2, seed=1)
        monkeypatch.setattr(_lapack, "_openblas_threads", lambda: (get, counting_set))
        try:
            set_(2)
            _, message = _logged_evaluation(rho)
            assert message.endswith(", 1 blas thread, 2 workers"), message
            assert calls == [1, 2]
        finally:
            set_(caller)

    def test_missing_symbols_change_nothing(self, monkeypatch, caplog):
        # without the symbols, every norm is the per-class route's, bit for bit
        monkeypatch.setattr(_lapack, "_openblas_threads", lambda: None)
        rho = random_state(4, 2, seed=2)
        with caplog.at_level(logging.DEBUG, logger="permsep"):
            report = evaluate_criteria(rho)
        (record,) = [rec for rec in caplog.records if rec.name == "permsep"]
        assert record.getMessage().endswith(", blas threads unchanged, 1 worker")
        _assert_per_class_norms(rho, report)

    @openblas
    def test_one_thread_norms_at_dim_128(self, monkeypatch):
        rho = random_state(7, 2, seed=3)
        # every 150th class of r = 7, each decomposed, keeps the test short
        some = tuple((key, rep, None) for key, rep, _ in states._plan(7)[::150])
        assert any(key.arrow_count == 0 for key, _, _ in some)
        monkeypatch.setattr(states, "_plan", lambda r: some)
        seen = self._record_threads(monkeypatch)
        report = evaluate_criteria(rho)
        assert seen and set(seen) == {1}
        assert [rec.key for rec in report.records] == [key for key, _, _ in some]
        for rec in report.records:
            want = trace_norm(apply_permutation(rho, rec.representative))
            assert abs(rec.norm - want) <= 1e-12

    @staticmethod
    def _cpus(monkeypatch, count: int) -> None:
        monkeypatch.setattr(_lapack.os, "sched_getaffinity", lambda pid: set(range(count)))

    @openblas
    def test_error_on_the_kth_norm_propagates_from_the_workers(self, monkeypatch):
        get, set_ = _lapack._openblas_threads()
        caller, before = get(), threading.active_count()
        calls, lock, apply = [], threading.Lock(), states.apply_permutation

        def failing_apply(rho, sigma):
            with lock:  # the hook is called from several threads
                calls.append(sigma)
                k = len(calls)
            if k == 5:
                raise RuntimeError("relabeling 5 failed")
            return apply(rho, sigma)

        monkeypatch.setattr(states, "apply_permutation", failing_apply)
        self._cpus(monkeypatch, 2)
        try:
            set_(2)
            with pytest.raises(RuntimeError, match="relabeling 5 failed"):
                evaluate_criteria(random_state(6, 2, seed=1))  # dim 64: two workers
            assert threading.active_count() == before
            assert get() == 2
        finally:
            set_(caller)

    def test_one_usable_cpu_starts_no_thread(self, monkeypatch):
        rho = random_state(4, 3, seed=1)  # two workers on two CPUs
        reference = evaluate_criteria(rho)
        before, seen, apply = threading.active_count(), [], states.apply_permutation

        def recording_apply(rho, sigma):
            seen.append(threading.active_count())
            return apply(rho, sigma)

        monkeypatch.setattr(states, "apply_permutation", recording_apply)
        self._cpus(monkeypatch, 1)
        report, message = _logged_evaluation(rho)
        assert seen and set(seen) == {before}
        assert message.endswith(", 1 worker")
        assert report == reference

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads the RSS from /proc")
    def test_short_lived_workers_keep_rss_flat(self, monkeypatch):
        # each evaluation starts and joins a worker thread, whose OpenBLAS
        # buffers and stacks must go with it; and the stacks of orbits come
        # from the caller, so the fresh malloc arena that glibc may give a
        # new worker does not grow to hold one (pinned to one CPU this
        # happened at a random evaluation)
        def rss() -> int:
            with open("/proc/self/statm") as fh:
                return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        self._cpus(monkeypatch, 2)
        rho = random_state(4, 3, seed=1)  # dim 81: two workers
        for _ in range(20):
            evaluate_criteria(rho)
        before = rss()
        for _ in range(300):
            evaluate_criteria(rho)
        assert rss() - before < 2 * 2**20


# (r, d) in the worker window, then just outside it: dim 27 below, 144 above;
# and the workers each takes, one per stack that releases the GIL: at r = 5,
# 55 SVDs stack and 15 dim-32 eigvalsh do not, and at r = 3 no stack does
WORKER_SIZES = {(5, 2): 1, (6, 2): 2, (7, 2): 2, (4, 3): 2, (3, 5): 1, (3, 3): 1, (2, 12): 1}


class TestWorkerRoute:
    """Stacks of orbits shared among worker threads give the report of the
    serial route, bit for bit."""

    @openblas
    @pytest.mark.parametrize("r, d", WORKER_SIZES)
    @pytest.mark.parametrize("make", [random_state, random_separable_state], ids=["random", "separable"])
    @settings(property_settings, max_examples=2)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_same_report_as_the_numpy_serial_route(self, r, d, make, seed):
        rho = make(r, d, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            if r == 7:  # every 20th class of r = 7, each decomposed, keeps the example short
                some = tuple((key, rep, None) for key, rep, _ in states._plan(7)[::20])
                mp.setattr(states, "_plan", lambda r: some)
            # more CPUs than the host may have, which start no more workers
            mp.setattr(_lapack.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
            report, message = _logged_evaluation(rho)
            mp.setattr(_lapack.os, "sched_getaffinity", lambda pid: {0})
            reference, serial = _logged_evaluation(rho)
            # and each stacked norm is np.linalg's on that class's matrix alone
            _assert_per_class_norms(rho, report)
        assert report == reference
        workers = WORKER_SIZES[r, d]
        assert message.endswith(f", 1 blas thread, {workers} worker{'s' * (workers > 1)}")
        assert serial.endswith(", 1 blas thread, 1 worker")

    def test_share_runs_every_job_once(self):
        # more workers than cores, switching threads as often as it can
        done, switch = [], sys.getswitchinterval()
        runner = threading.Thread(target=_lapack._share, args=(list(range(3000)), done.append, 8))
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not runner.is_alive()
        assert sorted(done) == list(range(3000))

    def test_at_most_two_workers_on_a_large_host(self, monkeypatch):
        monkeypatch.setattr(_lapack.os, "sched_getaffinity", lambda pid: set(range(64)))
        assert _lapack._worker_count(64, [16] * 14) == 2
        # 8 dim-64 matrices are the fewest whose np.linalg call releases the GIL
        assert _lapack._worker_count(64, [16, 7, 7]) == 1
        assert _lapack._worker_count(64, [8, 8]) == 2

    def test_two_workers_only_where_two_stacks_release_the_gil(self, monkeypatch):
        # every (r, d) that reaches the worker rule, its orbits transpose-paired
        # or one per class, a superset of any swap pairing's: with CPUs to
        # spare, two stacks release the GIL only at dims 64, 81 and 128, and
        # at 32 for unpaired orbits, the dims where two workers were measured
        # to pay; above dim 128 a 1 MiB stack is too small to release it
        monkeypatch.setattr(_lapack.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        two = {True: set(), False: set()}
        for r in range(1, 9):
            plan = states._plan(r)
            for d in itertools.takewhile(lambda d: d**r <= _lapack._ONE_THREAD_MAX_DIM, itertools.count(1)):
                rho = maximally_mixed_state(r, d)
                for paired in two:
                    firsts = [i for i, (_, _, partner) in enumerate(plan) if partner is None or not paired]
                    stacks = [len(orbits) for _, orbits in states._chunks(rho, firsts)]
                    if _lapack._worker_count(rho.dim, stacks) == 2:
                        two[paired].add((r, d))
        assert two == {True: {(4, 3), (6, 2), (7, 2)}, False: {(4, 3), (5, 2), (6, 2), (7, 2)}}

    def test_a_signal_while_joining_stops_the_workers_first(self, monkeypatch):
        # the caller takes one job and holds it until the worker has taken
        # the other, so the worker is still busy when the caller joins it
        before, done, taken = threading.active_count(), [], threading.Event()
        caller = threading.current_thread()

        def task(job):
            done.append(job)
            if threading.current_thread() is caller:
                assert taken.wait(timeout=30)
            else:
                taken.set()
                time.sleep(0.2)

        joins, join = [], threading.Thread.join

        def interrupted_join(thread, timeout=None):
            joins.append(thread)
            if len(joins) == 1:
                raise KeyboardInterrupt
            join(thread, timeout)

        monkeypatch.setattr(threading.Thread, "join", interrupted_join)
        with pytest.raises(KeyboardInterrupt):
            _lapack._share([0, 1], task, 2)
        assert threading.active_count() == before
        assert sorted(done) == [0, 1]

    def test_a_thread_that_cannot_start_stops_the_others(self, monkeypatch):
        before, done, starts, start = threading.active_count(), [], [], threading.Thread.start

        def failing_start(thread):
            starts.append(thread)
            if len(starts) == 2:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", failing_start)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            _lapack._share(list(range(1000)), done.append, 3)
        assert threading.active_count() == before
        assert len(set(done)) == len(done)


def _operator(r: int, d: int, seed: int, hermitian: bool) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d**r, d**r)) + 1j * rng.standard_normal((d**r, d**r))
    return DensityMatrix(r, d, g + g.conj().T if hermitian else g)


def _class_norms(h: DensityMatrix) -> dict:
    return {
        key: trace_norm(apply_permutation(h, representative_permutation(key)))
        for key in enumerate_classes(h.r)
    }


class TestTransposePartner:
    """A class and its transpose partner, the class of the global transpose
    times its permutations, have equal norms on every Hermitian operator,
    whose transpose is its conjugate; but not on every operator."""

    @settings(property_settings, max_examples=60)
    @given(
        size=st.sampled_from([(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_partners_agree_on_hermitian_operators(self, size, seed):
        norms = _class_norms(_operator(*size, seed, hermitian=True))
        for key, norm in norms.items():
            partner = key.transpose_partner
            assert partner.transpose_partner == key
            assert abs(norm - norms[partner]) <= 1e-12 * norm, key.render()

    def test_partners_differ_on_a_non_hermitian_operator(self):
        norms = _class_norms(_operator(3, 2, 0, hermitian=False))
        gaps = [abs(norm - norms[key.transpose_partner]) for key, norm in norms.items()]
        assert max(gaps) > 1e-3


class TestPlan:
    def test_partners_point_back_to_the_transpose_class(self):
        for r in (1, 2, 3, 4, 5):
            plan = states._plan(r)
            assert [key for key, _, _ in plan] == enumerate_classes(r)[1:]
            for i, (key, rep, partner) in enumerate(plan):
                assert rep == representative_permutation(key)
                partner_key = key.transpose_partner
                earlier = [j for j in range(i) if plan[j][0] == partner_key]
                assert partner == (earlier[0] if earlier else None)
                if partner_key == key:
                    assert partner is None

    def test_computed_once_per_r(self, monkeypatch):
        calls = []
        enumerate_all = states.enumerate_classes
        monkeypatch.setattr(
            states, "enumerate_classes", lambda r: calls.append(r) or enumerate_all(r)
        )
        states._plan.cache_clear()
        try:
            rho = random_state(3, 2, seed=1)
            evaluate_criteria(rho)
            evaluate_criteria(rho)
            assert calls == [3]
        finally:
            states._plan.cache_clear()


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
        rho = self._state_at_the_floor(r, d, scale)
        lo = float(np.min(np.linalg.eigvalsh(rho.entries)))
        expected = [f"minimum eigenvalue {lo:.3e} < {EIGENVALUE_FLOOR}"] if lo < EIGENVALUE_FLOOR else []
        assert rho.state_violations() == expected
        assert (lo < EIGENVALUE_FLOOR) == (scale > 1)

    @staticmethod
    def _state_at_the_floor(r: int, d: int, scale: float) -> DensityMatrix:
        """A state whose one negative eigenvalue is scale * EIGENVALUE_FLOOR."""
        dim = d**r
        rng = np.random.default_rng(dim)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        spectrum = np.full(dim, 0.0)
        spectrum[0] = EIGENVALUE_FLOOR * scale
        spectrum[1:] = (1 - spectrum[0]) / (dim - 1)
        m = (q * spectrum) @ q.conj().T
        m = (m + m.conj().T) / 2
        m[np.diag_indices(dim)] += (1 - np.trace(m).real) / dim
        return DensityMatrix(r, d, m)

    @pytest.mark.parametrize("route", ["zpotrf", "numpy"])
    @pytest.mark.parametrize("r, d", [(1, 2), (2, 3), (4, 2), (8, 2)])
    @pytest.mark.parametrize("scale", [0.4, 1 - 1e-3, 1 + 1e-3, 1 - 1e-6, 1 + 1e-6])
    def test_both_factorizations_give_the_eigvalsh_verdict(self, monkeypatch, route, r, d, scale):
        # the in-place zpotrf and its np.linalg.cholesky fallback, each on
        # a negative eigenvalue just above and just below the floor; the
        # factor certifies alone only above half the floor
        if route == "zpotrf" and _lapack._zpotrf() is None:
            pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
        if route == "numpy":
            monkeypatch.setattr(_lapack, "_zpotrf", lambda: None)
        rho = self._state_at_the_floor(r, d, scale)
        lo = float(np.min(np.linalg.eigvalsh(rho.entries)))
        assert (lo < EIGENVALUE_FLOOR) == (scale > 1)
        assert (states._minimum_eigenvalue(rho.entries)[1] == "cholesky") == (scale < 0.5)
        expected = [f"minimum eigenvalue {lo:.3e} < {EIGENVALUE_FLOOR}"] if scale > 1 else []
        assert rho.state_violations() == expected

    @pytest.mark.skipif(_lapack._zpotrf() is None, reason="numpy's BLAS is not its bundled OpenBLAS")
    def test_in_place_factor_reads_the_lower_triangle(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 64):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = g @ g.conj().T + np.eye(n)
            a = np.tril(h) + np.triu(np.full((n, n), 1e3 + 1e3j), 1)  # the upper triangle is never read
            assert _lapack._factor_in_place(a)
            # the factor replaces the lower triangle, in a's own buffer
            assert np.allclose(np.tril(a), np.linalg.cholesky(h))
            assert not _lapack._factor_in_place(h - 2 * np.linalg.norm(h, 2) * np.eye(n))

    def test_certificate_taken_on_valid_states(self):
        for rho in (random_state(2, 2, seed=1), ghz_state(3, 2), bell_pair_state(2, 3, 1, 2)):
            assert rho.state_violations() == []
            assert rho.__dict__["_positivity"] == "cholesky"
