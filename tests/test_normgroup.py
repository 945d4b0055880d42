"""The norm-preserving group and the criterion class census."""

import itertools
import math

import numpy as np
import pytest

from permsep import (
    CanonicalKey,
    canonical_key,
    census_by_type,
    census_records,
    class_count,
    classify,
    compose,
    enumerate_classes,
    generators,
    global_transpose,
    group_elements,
    identity,
    inverse,
    is_norm_preserving,
    parse_permutation,
    representative_permutation,
    type_label,
)
from permsep import normgroup
from permsep.arrows import _arrows_of_sets, _permutation_of_arrows, _reduced_key
from permsep.normgroup import MAX_CLASS_R, _parity_filter
from conftest import random_permutation


class TestMembership:
    def test_global_transpose(self):
        for r in (1, 2, 3, 4, 5):
            assert is_norm_preserving(global_transpose(2 * r))

    def test_odd_odd_transposition(self):
        assert is_norm_preserving(parse_permutation("(1,3)", 4))

    def test_partial_transpose_is_not(self):
        assert not is_norm_preserving(parse_permutation("(1,2)", 4))

    def test_agrees_with_trivial_key(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            r = int(rng.integers(1, 5))
            p = random_permutation(rng, 2 * r)
            assert is_norm_preserving(p) == canonical_key(p).is_trivial

    def test_classify(self):
        assert classify(parse_permutation("(1,3)", 4)) == "preserving"
        assert classify(global_transpose(4)) == "swapping"
        with pytest.raises(ValueError, match="not norm-preserving"):
            classify(parse_permutation("(1,2)", 4))


class TestGroupElements:
    def test_orders(self):
        for r, want in ((1, 2), (2, 8), (3, 72), (4, 1152)):
            assert len(group_elements(r)) == want == 2 * math.factorial(r) ** 2

    def test_constructions_coincide(self):
        for r in (1, 2, 3, 4):
            assert _parity_filter(r) == group_elements(r)

    def test_generators_are_members(self):
        for r in (2, 3, 4):
            group = group_elements(r)
            for g in generators(r):
                assert g in group

    def test_closed_under_composition_and_inverse(self):
        for r in (2, 3):
            group = group_elements(r)
            for a in group:
                assert inverse(a) in group
            for a in group:
                for b in group:
                    assert compose(a, b) in group

    def test_closure_r4_exhaustive(self):
        # 1152^2 products; raw image tuples keep this under a second
        group = group_elements(4)
        images = sorted(p.images for p in group)
        image_set = set(images)
        for a in group:
            assert inverse(a) in group
        for a in images:
            for b in images:
                assert tuple(b[x - 1] for x in a) in image_set

    def test_r5_closure_order(self):
        assert len(group_elements(5)) == 2 * math.factorial(5) ** 2

    def test_guards(self):
        with pytest.raises(ValueError, match="1..5"):
            group_elements(6)

    @pytest.mark.parametrize("r", [2.0, True, "2"])
    def test_non_integer_r_named(self, r):
        with pytest.raises(TypeError, match=f"^r must be an integer, got {r!r}$"):
            group_elements(r)
        with pytest.raises(TypeError, match=f"^r must be an integer, got {r!r}$"):
            generators(r)
        assert len(group_elements(np.int64(2))) == 8


class TestEnumerateClasses:
    def test_counts(self):
        for r, want in ((1, 1), (2, 3), (3, 10), (4, 35), (8, 6435)):
            keys = enumerate_classes(r)
            assert len(keys) == want == class_count(r)
            assert all(isinstance(key, CanonicalKey) for key in keys)
            assert sum(1 for key in keys if not key.is_trivial) == want - 1

    def test_r2_classes_in_order(self):
        labels = [key.type_label for key in enumerate_classes(2)]
        assert labels == ["trivial", "QT", "R"]

    def test_keys_are_reduced_and_sorted(self):
        for r in (2, 3, 4):
            keys = enumerate_classes(r)
            ranks = [key.rank for key in keys]
            assert ranks == sorted(ranks)
            for key in keys:
                assert 2 * key.arrow_count + key.loop_count <= r

    @pytest.mark.parametrize("r", range(1, 9))
    def test_same_keys_as_set_and_sort(self, r):
        # the earlier enumeration: reduce all C(2r, r) pairs, drop the
        # duplicates through a set, and sort by rank
        subsystems = range(1, r + 1)
        keys = {
            _reduced_key(r, heads, tails)
            for k in range(r + 1)
            for heads in itertools.combinations(subsystems, k)
            for tails in itertools.combinations(subsystems, k)
        }
        got = enumerate_classes(r)
        assert got == sorted(keys, key=lambda key: key.rank)
        assert all(CanonicalKey(r, key.heads, key.tails) == key for key in got)

    def test_trivial_flag_matches_identity_key(self):
        for r in (1, 2, 3):
            identity_key = canonical_key(identity(2 * r))
            for key in enumerate_classes(r):
                assert key.is_trivial == (key == identity_key)

    def test_guard(self):
        with pytest.raises(ValueError, match="1..8"):
            enumerate_classes(9)

    def test_fresh_list_each_call(self):
        keys = enumerate_classes(3)
        keys.clear()
        rows = census_records(3)
        rows.clear()
        assert len(enumerate_classes(3)) == 10
        assert sum(row.count for row in census_records(3)) == 9

    @pytest.mark.parametrize("r", [2.0, True, "2"])
    def test_non_integer_r_named(self, r):
        with pytest.raises(TypeError, match=f"^r must be an integer, got {r!r}$"):
            enumerate_classes(r)
        assert len(enumerate_classes(np.int64(2))) == 3

    @pytest.mark.parametrize("r", [2.5, 2.0, False])
    def test_class_count_of_non_integer_r_named(self, r):
        with pytest.raises(TypeError, match=f"^r must be an integer, got {r!r}$"):
            class_count(r)
        assert class_count(np.int64(3)) == 10


@pytest.fixture
def fresh_table():
    """The tables of representatives built anew in the test, and dropped after it."""
    normgroup._representatives.cache_clear()
    yield
    normgroup._representatives.cache_clear()


class TestRepresentative:
    def test_examples(self):
        assert representative_permutation(
            CanonicalKey(2, (1,), (1,))
        ) == parse_permutation("(1,2)", 4)
        assert representative_permutation(
            CanonicalKey(2, (2,), (1,))
        ) == parse_permutation("(2,3)", 4)
        assert representative_permutation(CanonicalKey(3, (), ())) == identity(6)

    def test_right_inverse_of_key_up_to_r6(self):
        for r in range(1, 7):
            for key in enumerate_classes(r):
                assert canonical_key(representative_permutation(key)) == key

    @pytest.mark.parametrize("r", range(1, MAX_CLASS_R + 1))
    def test_table_holds_the_construction(self, r):
        for key in enumerate_classes(r):
            rep = representative_permutation(key)
            assert rep == _permutation_of_arrows(r, _arrows_of_sets(key.heads, key.tails))
            assert type(rep.images) is tuple and canonical_key(rep) == key

    def test_each_representative_checked_once(self, fresh_table, monkeypatch):
        calls = []
        real = normgroup.canonical_key
        monkeypatch.setattr(normgroup, "canonical_key", lambda p: calls.append(p) or real(p))
        for _ in range(3):
            for key in enumerate_classes(4):
                representative_permutation(key)
        assert len(calls) == class_count(4)

    def test_corrupted_construction_fails_when_the_table_is_built(self, fresh_table, monkeypatch):
        real = normgroup._arrows_of_sets
        monkeypatch.setattr(normgroup, "_arrows_of_sets", lambda h, t: real(h, t)[:-1])
        with pytest.raises(RuntimeError, match="fails to round-trip"):
            representative_permutation(CanonicalKey(3, (), ()))
        monkeypatch.undo()
        # a failed build leaves no table behind
        assert representative_permutation(CanonicalKey(3, (2,), (1,))) == parse_permutation("(2,3)", 6)

    def test_key_beyond_the_table(self, monkeypatch):
        key = CanonicalKey(MAX_CLASS_R + 4, (1, 5, 9), (5, 7, 12))
        monkeypatch.setattr(normgroup, "_representatives", None)  # never consulted
        rep = representative_permutation(key)
        assert rep == _permutation_of_arrows(key.r, _arrows_of_sets(key.heads, key.tails))
        assert canonical_key(rep) == key
        real = normgroup._arrows_of_sets
        monkeypatch.setattr(normgroup, "_arrows_of_sets", lambda h, t: real(h, t)[:-1])
        with pytest.raises(RuntimeError, match="fails to round-trip"):
            representative_permutation(key)


class TestCensus:
    def test_type_labels(self):
        assert type_label(0, 0) == "trivial"
        assert type_label(0, 1) == "QT"
        assert type_label(0, 2) == "2QT"
        assert type_label(1, 0) == "R"
        assert type_label(1, 1) == "R+QT"
        assert type_label(1, 2) == "R+2QT"
        assert type_label(2, 0) == "2R"

    def test_counts_by_type(self):
        assert census_by_type(2) == {"QT": 1, "R": 1}
        assert census_by_type(3) == {"QT": 3, "R": 6}
        assert census_by_type(4) == {
            "QT": 4,
            "2QT": 3,
            "R": 12,
            "R+QT": 12,
            "2R": 3,
        }

    def test_flip_partner_labels(self):
        rows = {row.type_label: row.partner_label for row in census_records(4)}
        assert rows == {
            "QT": "3QT",
            "2QT": "2QT",
            "R": "R+2QT",
            "R+QT": "R+QT",
            "2R": "2R",
        }

    def test_totals_match_class_count(self):
        for r in range(1, 8):
            assert sum(census_by_type(r).values()) == class_count(r) - 1

    def test_binomial_identity(self):
        for r in range(1, 11):
            assert sum(math.comb(r, k) ** 2 for k in range(r + 1)) == math.comb(
                2 * r, r
            )


class TestPartition:
    def test_blocks_have_group_size(self):
        # partition S_2r by key: every block has size |group|, block count
        # is half the central binomial coefficient
        for r in (2, 3):
            from permsep import Permutation

            blocks = {}
            for images in itertools.permutations(range(1, 2 * r + 1)):
                blocks.setdefault(canonical_key(Permutation(images)), []).append(images)
            assert len(blocks) == class_count(r)
            size = 2 * math.factorial(r) ** 2
            assert all(len(v) == size for v in blocks.values())
