"""The rewrite system: rules, normal forms, canonical keys, equivalence."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from permsep import (
    Arrow,
    ArrowConfiguration,
    CanonicalKey,
    Permutation,
    as_permutation,
    canonical_key,
    canonicalize,
    chop,
    compose,
    enumerate_classes,
    equivalent,
    exchange_heads,
    flip,
    generators,
    global_transpose,
    identity,
    inverse,
    is_norm_preserving,
    normal_form,
    parse_permutation,
    permutation_from_cycles,
    prune,
    representative_permutation,
    type_label,
)
from permsep.arrows import _exchanged, _flip_sets, _reduce_sets, _reduce_sorted, _transpose_key
from permsep.arrows import RewriteStep, _configuration, _prune_cycles, _rewrite, _rewritten
from permsep.arrows import key_of_configuration
from permsep.perms import _cycles_of_images, _render_cycles
from conftest import (
    coset_partition_bruteforce,
    parity_profile,
    permutations_of_degree,
    property_settings,
    random_permutation,
)


def config(r, *arrows):
    return ArrowConfiguration(r, frozenset(Arrow(t, h) for t, h in arrows))


class TestPrune:
    def test_table_example(self):
        assert prune([(3, 12, 1, 2, 10, 8), (4, 5, 6)]) == ((3, 12, 1, 8), (4, 5))

    def test_all_same_parity_vanishes(self):
        assert prune([(1, 3)]) == ()

    def test_opposite_parity_untouched(self):
        assert prune([(1, 2)]) == ((1, 2),)

    def test_no_equal_parity_neighbours_remain(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = random_permutation(rng, 10)
            for cyc in prune([list(c) for c in canonicalize(p).input_cycles]):
                for i in range(len(cyc)):
                    assert (cyc[i] % 2) != (cyc[(i + 1) % len(cyc)] % 2)

    def test_one_pass_matches_restarting_scan_exhaustively(self):
        # all of S_2, S_4, S_6 and S_8: 41066 permutations
        for r in range(1, 5):
            for images in itertools.permutations(range(1, 2 * r + 1)):
                _assert_prunes_agree(_cycles_of_images(images))

    @property_settings
    @given(st.integers(5, 12).flatmap(permutations_of_degree))
    def test_one_pass_matches_restarting_scan_at_large_r(self, sigma):
        _assert_prunes_agree(_cycles_of_images(sigma.images))

    @property_settings
    @given(st.lists(st.lists(st.integers(1, 9), max_size=8), max_size=4))
    def test_one_pass_matches_restarting_scan_on_any_cycles(self, cycles):
        # the public prune takes any cycles, repeats and 1-cycles included
        _assert_prunes_agree(cycles)


def _prune_restarting(cycles, steps):
    """The reference prune: after each removal the scan starts again at
    the front of the cycle."""
    work = [list(c) for c in cycles]
    for c in work:
        changed = True
        while changed and len(c) > 1:
            changed = False
            for i in range(len(c)):
                n1, n2 = c[i], c[(i + 1) % len(c)]
                if (n1 ^ n2) & 1 == 0:
                    del c[i]
                    steps.append(
                        RewriteStep(
                            rule="prune",
                            detail=f"drop {n1} (equal parity neighbour {n2})",
                            multiplier=((n1, n2),),
                            state=_render_cycles([x for x in work if len(x) > 1]),
                        )
                    )
                    changed = True
                    break
    return [c for c in work if len(c) > 1]


def _assert_prunes_agree(cycles):
    want_steps, got_steps = [], []
    want = _prune_restarting(cycles, want_steps)
    assert _prune_cycles(cycles, got_steps) == want
    assert _prune_cycles(cycles, None) == want
    # RewriteStep compares its fields in order, as dataclasses.astuple()
    # would, without astuple's deep copy (a second over S_8)
    assert got_steps == want_steps


class TestChop:
    def test_table_example(self):
        assert chop([(3, 12, 1, 8), (5, 4)]) == ((3, 12), (1, 8), (5, 4))

    def test_single_transposition(self):
        assert chop([(1, 2)]) == ((1, 2),)

    def test_four_cycle(self):
        assert chop([(2, 3, 4, 1)]) == ((2, 3), (4, 1))

    def test_rejects_unpruned(self):
        with pytest.raises(ValueError, match="not pruned"):
            chop([(1, 3, 2, 4)])
        with pytest.raises(ValueError, match="not pruned"):
            chop([(1, 2, 3)])

    def test_output_disjoint(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = random_permutation(rng, 12)
            transpositions = chop(prune([list(c) for c in canonicalize(p).input_cycles]))
            support = [x for t in transpositions for x in t]
            assert len(support) == len(set(support))


class TestExchangeHeads:
    def test_chain_collapses(self):
        c = config(3, (1, 2), (2, 3))
        out = exchange_heads(c, Arrow(1, 2), Arrow(2, 3))
        assert out == config(3, (1, 3), (2, 2))

    def test_closed_pair_becomes_loops(self):
        c = config(2, (1, 2), (2, 1))
        out = exchange_heads(c, Arrow(1, 2), Arrow(2, 1))
        assert out == config(2, (1, 1), (2, 2))

    def test_with_a_loop(self):
        c = config(3, (1, 1), (2, 3))
        out = exchange_heads(c, Arrow(1, 1), Arrow(2, 3))
        assert out == config(3, (1, 3), (2, 1))

    def test_multiplier_is_norm_preserving_right_factor(self):
        # sigma' = sigma * (2h1-1, 2h2-1)(2t1, 2t2) for every ordered pair of
        # distinct arrows of every valid configuration at r <= 3; an exchange
        # keeps the head and tail sets, so every result is valid
        checked = 0
        for r in (1, 2, 3):
            for c in _all_valid_configs(r):
                for a, b in itertools.permutations(c.sorted_arrows(), 2):
                    out = exchange_heads(c, a, b)
                    cycles = ((2 * a.head - 1, 2 * b.head - 1), (2 * a.tail, 2 * b.tail))
                    assert _exchanged(a, b)[2] == cycles  # what _untangle records
                    mult = permutation_from_cycles(cycles, 2 * r)
                    assert is_norm_preserving(mult)
                    assert compose(as_permutation(c), mult) == as_permutation(out)
                    checked += 1
        assert checked == 76

    def test_requires_membership(self):
        c = config(3, (1, 2), (2, 3))
        with pytest.raises(ValueError, match="belong"):
            exchange_heads(c, Arrow(1, 2), Arrow(1, 3))
        with pytest.raises(ValueError, match="itself"):
            exchange_heads(c, Arrow(1, 2), Arrow(1, 2))


class TestFlip:
    def test_empty_gains_all_loops(self):
        assert flip(config(2)) == config(2, (1, 1), (2, 2))

    def test_arrow_reverses_free_loops(self):
        assert flip(config(3, (1, 2))) == config(3, (2, 1), (3, 3))

    def test_involution_on_all_disjoint_configs(self):
        for r in range(1, 6):
            for c in _all_disjoint_configs(r):
                assert flip(flip(c)) == c

    def test_requires_disjoint(self):
        with pytest.raises(ValueError, match="disjoint"):
            flip(config(3, (1, 2), (2, 3)))

    def test_same_coset(self):
        # flipping composes with norm-preserving right factors only
        for r in range(1, 5):
            for c in _all_disjoint_configs(r):
                delta = compose(inverse(as_permutation(flip(c))), as_permutation(c))
                assert is_norm_preserving(delta)

    def test_fixed_point_free_on_keys(self):
        for r in range(1, 7):
            subsystems = range(1, r + 1)
            for k in range(r + 1):
                for heads in itertools.combinations(subsystems, k):
                    for tails in itertools.combinations(subsystems, k):
                        assert _flip_sets(r, heads, tails) != (heads, tails)

    def test_reduction_is_the_lower_ranked_partner(self):
        # canonical_key and the CanonicalKey check both call _reduce_sorted,
        # so only an oracle outside it can catch a wrong shortcut
        ties = 0
        for r in range(1, 8):
            subsystems = range(1, r + 1)
            for k in range(r + 1):
                for heads in itertools.combinations(subsystems, k):
                    for tails in itertools.combinations(subsystems, k):
                        want = _lower_ranked(r, heads, tails)
                        assert _reduce_sorted(r, heads, tails) == want
                        assert _reduce_sets(r, heads, tails) == want
                        assert _reduce_sets(r, reversed(heads), set(tails)) == want
                        ties += 2 * k == r
        assert ties == sum(math.comb(r, r // 2) ** 2 for r in (2, 4, 6))

    @property_settings
    @given(
        st.integers(1, 12).flatmap(
            lambda r: st.integers(0, r).flatmap(
                lambda k: st.tuples(
                    st.just(r), *[st.lists(st.integers(1, r), min_size=k, max_size=k, unique=True)] * 2
                )
            )
        )
    )
    def test_reduction_of_sets_in_any_order(self, case):
        r, heads, tails = case
        want = _lower_ranked(r, heads, tails)
        assert _reduce_sorted(r, tuple(sorted(heads)), tuple(sorted(tails))) == want
        for form in (list, frozenset, lambda s: (k for k in s)):
            assert _reduce_sets(r, form(heads), form(tails)) == want


def _lower_ranked(r, heads, tails):
    """The flip reduction by brute force: both drawings of the class, as
    sets, each ranked by (#heads, tails, heads), without the set-size
    shortcut or the sorted-tuple flip."""
    everything = set(range(1, r + 1))
    drawings = [(set(heads), set(tails)), (everything - set(heads), everything - set(tails))]
    _, tails, heads = min((len(h), tuple(sorted(t)), tuple(sorted(h))) for h, t in drawings)
    return heads, tails


def _all_valid_configs(r):
    """Every partial bijection from tails to heads, loops included."""
    subsystems = range(1, r + 1)
    for k in range(r + 1):
        for tails in itertools.combinations(subsystems, k):
            for heads in itertools.permutations(subsystems, k):
                yield config(r, *zip(tails, heads))


def _all_disjoint_configs(r):
    subsystems = list(range(1, r + 1))
    for loop_count in range(r + 1):
        for loops in itertools.combinations(subsystems, loop_count):
            rest = [s for s in subsystems if s not in loops]
            for a in range(len(rest) // 2 + 1):
                for tails in itertools.combinations(rest, a):
                    remaining = [s for s in rest if s not in tails]
                    for heads in itertools.combinations(remaining, a):
                        for image in itertools.permutations(heads):
                            yield config(
                                r,
                                *[(k, k) for k in loops],
                                *zip(tails, image),
                            )


class TestConfigurationValidity:
    def test_shared_head_rejected(self):
        with pytest.raises(ValueError, match="share head"):
            config(3, (1, 3), (2, 3))

    def test_shared_tail_rejected(self):
        with pytest.raises(ValueError, match="share tail"):
            config(3, (1, 2), (1, 3))

    def test_arrow_touching_loop_rejected(self):
        # a loop holds both slots of its subsystem, so a touching arrow
        # always collides on the shared head or tail
        with pytest.raises(ValueError, match="share tail 1"):
            config(3, (1, 1), (1, 2))
        with pytest.raises(ValueError, match="share head 2"):
            config(3, (2, 2), (1, 2))

    @pytest.mark.parametrize(
        "r, error, message",
        [
            (0, ValueError, "r must be positive, got 0"),
            (-2, ValueError, "r must be positive, got -2"),
            (-(10**5000), ValueError, "r must be positive, got -<16610-bit integer>"),
            (10**5000, ValueError, r"r must be at most sys\.maxsize // 2, got <16610-bit integer>"),
            (sys.maxsize // 2 + 1, ValueError, rf"r must be at most sys\.maxsize // 2, got {sys.maxsize // 2 + 1}"),
            # 2r wraps around in 64 bits
            (np.int64(sys.maxsize // 2 + 1), ValueError, rf"r must be at most sys\.maxsize // 2, got {sys.maxsize // 2 + 1}"),
            (2.0, TypeError, "r must be an integer, got 2.0"),
            (True, TypeError, "r must be an integer, got True"),
        ],
        ids=["zero", "negative", "huge-negative", "huge", "degree-beyond-maxsize", "numpy-degree-beyond-maxsize", "float", "bool"],
    )
    def test_r_checked_as_the_key_checks_it(self, r, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            ArrowConfiguration(r, frozenset())
        with pytest.raises(error, match=f"^{message}$"):
            CanonicalKey(r, (), ())

    def test_largest_r_prints(self):
        # the largest r whose degree 2r passes perms._check_degree
        r = sys.maxsize // 2
        assert repr(ArrowConfiguration(r, frozenset())) == f"ArrowConfiguration(r={r}, arrows=frozenset())"
        assert str(CanonicalKey(r, (), ())) == f"CanonicalKey(r={r}, heads=(), tails=())"
        with pytest.raises(ValueError, match=rf"^arrow 0->1 leaves subsystems 1\.\.{r}$"):
            ArrowConfiguration(r, frozenset({Arrow(0, 1)}))

    def test_chain_valid_but_not_disjoint(self):
        c = config(3, (1, 2), (2, 3))
        assert not c.is_disjoint()
        assert config(3, (1, 2), (3, 3)).is_disjoint()

    def test_render(self):
        assert config(3).render() == "()"
        assert config(3, (2, 2), (3, 1)).render() == "@2, 3->1"


class TestAsPermutation:
    def test_loop_on_second_subsystem(self):
        assert as_permutation(config(6, (2, 2))) == parse_permutation("(3,4)", 12)

    def test_single_arrow(self):
        assert as_permutation(config(2, (1, 2))) == parse_permutation("(2,3)", 4)

    def test_empty_is_identity(self):
        assert as_permutation(config(3)) == identity(6)


class TestNormalForm:
    def test_worked_example(self):
        nf = normal_form(parse_permutation("(3,12,1,2,10,8)(4,5,6)", 12))
        assert nf == config(6, (2, 2), (4, 1), (6, 3))
        assert nf == normal_form(parse_permutation("(3,4)(1,8)(5,12)", 12))

    def test_identity_empty(self):
        assert normal_form(identity(8)) == config(4)

    def test_global_transpose_all_loops(self):
        for r in range(1, 6):
            nf = normal_form(global_transpose(2 * r))
            assert nf == config(r, *[(k, k) for k in range(1, r + 1)])

    def test_rewritten_configuration_passes_the_public_checks(self):
        # normal_form and canonicalize skip the constructor's checks
        for r in range(1, 5):
            for images in itertools.permutations(range(1, 2 * r + 1)):
                arrows = _rewrite(images)
                assert _rewritten(r, arrows) == _configuration(r, arrows)

    @property_settings
    @given(st.integers(5, 12).flatmap(permutations_of_degree))
    def test_rewritten_configuration_passes_the_public_checks_at_large_r(self, sigma):
        arrows = _rewrite(sigma.images)
        config = _configuration(sigma.subsystems, arrows)
        assert _rewritten(sigma.subsystems, arrows) == config == normal_form(sigma)

    def test_always_disjoint_and_coset_sound(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            r = int(rng.integers(1, 5))
            sigma = random_permutation(rng, 2 * r)
            nf = normal_form(sigma)
            assert nf.is_disjoint()
            assert is_norm_preserving(compose(inverse(as_permutation(nf)), sigma))


class TestRewriteSoundness:
    def test_trace_multipliers_telescoped(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            r = int(rng.integers(1, 5))
            sigma = random_permutation(rng, 2 * r)
            trace = canonicalize(sigma)
            current = sigma
            for step in trace.steps:
                if not step.multiplier:
                    continue
                mult = permutation_from_cycles(step.multiplier, 2 * r)
                assert is_norm_preserving(mult), step
                current = compose(current, mult)
            assert current == as_permutation(trace.configuration)
            assert trace.key == canonical_key(sigma)


class TestCanonicalKey:
    def test_identity_key_empty(self):
        key = canonical_key(identity(6))
        assert (key.heads, key.tails) == ((), ())
        assert key.is_trivial

    def test_partial_transpose_r2(self):
        key = canonical_key(parse_permutation("(1,2)", 4))
        assert (key.heads, key.tails) == ((1,), (1,))

    def test_reshuffle_pair_share_key(self):
        k1 = canonical_key(parse_permutation("(2,3)", 4))
        k2 = canonical_key(parse_permutation("(1,4)", 4))
        assert k1 == k2
        assert (k1.heads, k1.tails) == ((2,), (1,))

    def test_key_counts_small(self):
        for r, want in ((1, 1), (2, 3), (3, 10)):
            keys = {
                canonical_key(Permutation(images))
                for images in itertools.permutations(range(1, 2 * r + 1))
            }
            assert len(keys) == want == math.comb(2 * r, r) // 2

    def test_constant_on_cosets(self):
        from permsep import group_elements

        rng = np.random.default_rng(53)
        for _ in range(500):
            r = int(rng.integers(1, 5))
            sigma = random_permutation(rng, 2 * r)
            group = sorted(group_elements(r), key=lambda p: p.images)
            t = group[int(rng.integers(len(group)))]
            assert canonical_key(sigma) == canonical_key(compose(sigma, t))

    def test_separates_cosets_exhaustively(self):
        for r in (2, 3):
            bruteforce = coset_partition_bruteforce(r)
            by_key = {}
            by_profile = {}
            for images in itertools.permutations(range(1, 2 * r + 1)):
                p = Permutation(images)
                by_key.setdefault(canonical_key(p), set()).add(images)
                by_profile.setdefault(parity_profile(p), set()).add(images)
            blocks_bf = {}
            for images, label in bruteforce.items():
                blocks_bf.setdefault(label, set()).add(images)
            assert set(map(frozenset, by_key.values())) == set(
                map(frozenset, blocks_bf.values())
            )
            assert set(map(frozenset, by_profile.values())) == set(
                map(frozenset, by_key.values())
            )
            expected_block = 2 * math.factorial(r) ** 2
            assert all(len(b) == expected_block for b in by_key.values())

    def test_built_keys_pass_the_public_checks(self):
        # canonical_key and enumerate_classes skip the constructor's checks
        for r in range(1, 9):
            for key in enumerate_classes(r):
                assert CanonicalKey(r, key.heads, key.tails) == key
        rng = np.random.default_rng(19)
        for r in (5, 8, 12):
            for _ in range(200):
                key = canonical_key(random_permutation(rng, 2 * r))
                assert CanonicalKey(r, key.heads, key.tails) == key

    def test_reduction_enforced_by_constructor(self):
        with pytest.raises(ValueError, match="not flip-reduced"):
            CanonicalKey(3, (1, 3), (1, 3))  # partner ({2},{2}) ranks lower
        with pytest.raises(ValueError, match="sorted"):
            CanonicalKey(3, (3, 1), (1, 3))
        with pytest.raises(ValueError, match="equal size"):
            CanonicalKey(3, (1,), (1, 2))

    def test_constructor_names_a_bad_field(self):
        # lists used to fail as "not flip-reduced", and r <= 0 was accepted
        with pytest.raises(TypeError, match="heads must be a tuple"):
            CanonicalKey(2, [1], (1,))
        with pytest.raises(TypeError, match="tails must be a tuple"):
            CanonicalKey(2, (1,), [1])
        for bad in (2.0, "2", True, None):
            with pytest.raises(TypeError, match="r must be an integer"):
                CanonicalKey(bad, (), ())
        for bad in (0, -1):
            with pytest.raises(ValueError, match="r must be positive"):
                CanonicalKey(bad, (), ())
        assert CanonicalKey(np.int64(2), (1,), (1,)) == CanonicalKey(2, (1,), (1,))

    def test_non_integer_entries_named(self):
        # True and 2.0 equal subsystems, and True rendered as H={True}
        with pytest.raises(TypeError, match="^heads entry must be an integer, got True$"):
            CanonicalKey(3, (True,), (2,))
        with pytest.raises(TypeError, match="^tails entry must be an integer, got 2.0$"):
            CanonicalKey(3, (1,), (2.0,))
        assert CanonicalKey(3, (np.int64(1),), (np.int64(2),)) == CanonicalKey(3, (1,), (2,))


class TestClosedFormKey:
    """The parity-profile key against the rewrite normal form it summarizes."""

    def test_matches_rewrite_exhaustively(self):
        for r in range(1, 5):
            for images in itertools.permutations(range(1, 2 * r + 1)):
                sigma = Permutation(images)
                assert canonical_key(sigma) == key_of_configuration(normal_form(sigma))

    @property_settings
    @given(st.integers(5, 12).flatmap(permutations_of_degree))
    def test_matches_rewrite_at_large_r(self, sigma):
        assert canonical_key(sigma) == key_of_configuration(normal_form(sigma))

    @property_settings
    @given(st.data())
    def test_invariant_under_generator_products(self, data):
        r = data.draw(st.integers(2, 8))
        sigma = data.draw(permutations_of_degree(r))
        g = identity(2 * r)
        for factor in data.draw(st.lists(st.sampled_from(generators(r)), max_size=12)):
            g = compose(g, factor)
        assert canonical_key(compose(sigma, g)) == canonical_key(sigma)


class TestTransposeKey:
    """The global transpose acting on keys, against the composed permutation."""

    def test_matches_canonical_key_of_composition(self):
        for r in range(2, 9):
            tau = global_transpose(2 * r)
            for key in enumerate_classes(r):
                rep = representative_permutation(key)
                assert _transpose_key(key) == canonical_key(compose(tau, rep))


class TestKeyDrawing:
    """A key's loops, arrows and labels, against the rewrite route."""

    def test_normal_form_of_representative_draws_the_key(self):
        for r in range(1, 9):
            for key in enumerate_classes(r):
                config = normal_form(representative_permutation(key))
                loops = set(key.heads) & set(key.tails)
                assert config.loops == loops
                assert (config.heads, config.tails) == (set(key.heads), set(key.tails))
                assert len(config.arrows) - len(loops) == key.arrow_count
                assert key.type_label == _label(config)
                assert key.partner_label == _label(flip(config))


def _label(config: ArrowConfiguration) -> str:
    return type_label(len(config.arrows) - len(config.loops), len(config.loops))


class TestEquivalent:
    def test_reshuffle_orientations(self):
        assert equivalent(parse_permutation("(2,3)", 4), parse_permutation("(1,4)", 4))

    def test_transpose_vs_reshuffle(self):
        assert not equivalent(
            parse_permutation("(1,2)", 4), parse_permutation("(2,3)", 4)
        )

    def test_right_multiplication_invariance(self):
        from permsep import group_elements

        rng = np.random.default_rng(61)
        group = sorted(group_elements(3), key=lambda p: p.images)
        for _ in range(100):
            sigma = random_permutation(rng, 6)
            t = group[int(rng.integers(len(group)))]
            assert equivalent(sigma, compose(sigma, t))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            equivalent(identity(4), identity(6))
