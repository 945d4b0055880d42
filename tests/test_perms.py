"""Permutation arithmetic: parsing, composition, inversion, cycles."""

import ast
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permsep import (
    Permutation,
    PermutationParseError,
    compose,
    cycle_decomposition,
    global_transpose,
    identity,
    inverse,
    parse_permutation,
    permutation_from_cycles,
)
from permsep.arrows import _permutation_of_arrows
from permsep.perms import _TABLE_DEGREE, _read_cycles, _shown, _walk
from conftest import permutations_of_degree, property_settings, random_permutation

# the grammar's characters, blanks that str.isspace accepts, and digits
# that only Unicode calls digits
_PARSE_ALPHABET = st.sampled_from(list("0123456789()[], \t\nx") + ["\xa0", "²", "٣", "２"])
_FOUND = re.compile(r"found (.+) \(at position \d+\)$")
# what a fault injected into blank-free cycle text may insert
_FAULT = st.sampled_from(list("0123456789(),[] ") + ["00", ")(", "²", "\xa0"])


def _outcome(parse, text, degree):
    """The images, or the error's message and position."""
    try:
        return parse(text, degree).images
    except PermutationParseError as exc:
        return str(exc), exc.position


def _inject(draw, text, fault, alphabet):
    """text with the named fault at a drawn position: an insertion or a
    replacement drawn from alphabet, or a deletion; otherwise text."""
    i = draw(st.integers(0, len(text)))
    if fault == "insert":
        return text[:i] + draw(alphabet) + text[i:]
    if fault == "delete":
        return text[:i] + text[i + 1 :]
    if fault == "replace":
        return text[:i] + draw(alphabet) + text[i + 1 :]
    return text


@st.composite
def _faulty_cycle_text(draw):
    """str() of a random permutation, with at most one fault injected, and
    a degree of 2..24 that may be too small for its points."""
    r = draw(st.integers(1, 12))
    text = str(draw(permutations_of_degree(r)))
    fault = draw(st.sampled_from(["none", "insert", "delete", "replace", "append"]))
    text = _inject(draw, text, fault, _FAULT)
    if fault == "append":  # cycles that repeat points of the first ones
        text += str(draw(permutations_of_degree(r)))
    return text, draw(st.integers(max(1, r - 1), min(12, r + 1))) * 2


# the largest degree the point table covers, and the next, which the
# walker reads
_EDGE_DEGREES = (_TABLE_DEGREE, _TABLE_DEGREE + 2)
# what a fault at those degrees may insert: the points at the table's edge,
# with and without leading zeros, and a run one digit too long
_EDGE_FAULT = st.sampled_from(
    [str(_TABLE_DEGREE + d) for d in (-1, 0, 1, 2, 3)]
    + ["0" + str(_TABLE_DEGREE), "0001", "00001", "0", ",", ")(", "("]
)


@st.composite
def _edge_cycle_text(draw):
    """Cycle text at a degree of _EDGE_DEGREES, with at most one fault: the
    str() of a full random permutation, or of one that moves a few points,
    mostly near the top."""
    degree = draw(st.sampled_from(_EDGE_DEGREES))
    images = list(range(1, degree + 1))
    if draw(st.booleans()):
        draw(st.randoms(use_true_random=False)).shuffle(images)
    else:
        points = st.integers(degree - 3, degree) | st.integers(1, degree)
        moved = draw(st.lists(points, unique=True, max_size=6))
        for point, image in zip(moved, draw(st.permutations(moved))):
            images[point - 1] = image
    fault = draw(st.sampled_from(["none", "insert", "delete", "replace"]))
    return _inject(draw, str(Permutation(tuple(images))), fault, _EDGE_FAULT), degree


class TestParse:
    def test_table_example(self):
        p = parse_permutation("(3,12,1,2,10,8)(4,5,6)", 12)
        mapping = {3: 12, 12: 1, 1: 2, 2: 10, 10: 8, 8: 3, 4: 5, 5: 6, 6: 4}
        for x in range(1, 13):
            assert p(x) == mapping.get(x, x)

    def test_empty_is_identity(self):
        assert parse_permutation("", 4) == identity(4)
        assert parse_permutation("()", 4) == identity(4)

    def test_global_transpose_r2(self):
        assert parse_permutation("(1,2)(3,4)", 4) == global_transpose(4)

    def test_one_line(self):
        p = parse_permutation("[2 1 4 3]", 4)
        assert p == global_transpose(4)

    def test_whitespace_ignored(self):
        assert parse_permutation(" ( 1 , 2 ) ( 3 , 4 ) ", 4) == global_transpose(4)

    def test_duplicate_point_reports_position(self):
        with pytest.raises(PermutationParseError, match="duplicate point 2"):
            parse_permutation("(1,2)(2,3)", 6)
        try:
            parse_permutation("(1,2)(2,3)", 6)
        except PermutationParseError as exc:
            assert exc.position == 6

    def test_point_out_of_range(self):
        with pytest.raises(PermutationParseError, match="out of range"):
            parse_permutation("(1,5)", 4)

    def test_odd_degree_rejected(self):
        with pytest.raises(PermutationParseError, match="even"):
            parse_permutation("(1,2)", 5)

    @pytest.mark.parametrize("degree", [4.0, True, "4"])
    def test_non_integer_degree_named(self, degree):
        message = f"^degree must be an integer, got {degree!r}$"
        with pytest.raises(TypeError, match=message):
            parse_permutation("(1,2)", degree)
        assert parse_permutation("(1,2)", np.int64(4)).images == (2, 1, 3, 4)

    def test_malformed_syntax(self):
        for bad in ["(1,2", "(1)", "1,2", "(1,,2)", "[1 2 3]", "[1 2 2 3]"]:
            with pytest.raises(PermutationParseError):
                parse_permutation(bad, 4)

    def test_only_ascii_digits(self):
        # str.isdigit accepts all four; int() rejects '²' and '³' and reads
        # '٣' and '２' as 3 and 2
        for text, pos in (("(1,²)", 3), ("(٣,2)", 1), ("(1,２)", 3), ("[1 2 ³ 4]", 5)):
            message = f"expected a point, found {text[pos]!r}"
            with pytest.raises(PermutationParseError, match=message) as info:
                parse_permutation(text, 4)
            assert info.value.position == pos

    def test_one_point_cycle_reports_its_close(self):
        # the position names the ')', not a blank after it
        for text in ("(1)  (2,3)", "(1) "):
            with pytest.raises(PermutationParseError, match="at least two points") as info:
                parse_permutation(text, 4)
            assert info.value.position == 2

    def test_over_long_point_out_of_range(self):
        # longer than int()'s 4300-digit limit, which raised a bare ValueError
        text = "(" + "1" * 5000 + ",2)"
        with pytest.raises(PermutationParseError, match=r"out of range 1\.\.4 \(at position 1\)$"):
            parse_permutation(text, 4)
        with pytest.raises(PermutationParseError, match=r"^point 5 out of range 1\.\.4 \(at position 1\)$"):
            parse_permutation("(005,1)", 4)
        assert parse_permutation("[0002 00001]", 2) == global_transpose(2)

    @property_settings
    @given(
        st.one_of(st.text(_PARSE_ALPHABET, max_size=16), st.text(max_size=16)),
        st.integers(1, 8).map(lambda r: 2 * r),
    )
    def test_any_text_parses_or_fails_at_a_position(self, text, degree):
        try:
            parse_permutation(text, degree)
        except PermutationParseError as exc:
            position = exc.position
            assert position is None or 0 <= position <= len(text)
            # an error names a token, never a blank
            assert position in (None, len(text)) or not text[position].isspace()
            if str(exc).startswith("unclosed"):
                assert position == len(text)
            found = _FOUND.search(str(exc))
            if found:
                char = ast.literal_eval(found.group(1))
                if char == "end of input":
                    assert position == len(text)
                else:
                    assert text[position] == char
                    expected = str(exc)[: found.start()]
                    assert repr(char) not in expected
                    assert not ("a point" in expected and char in "0123456789")

    @property_settings
    @given(st.integers(1, 6).flatmap(permutations_of_degree))
    def test_format_round_trip(self, p):
        one_line = "[" + " ".join(map(str, p.images)) + "]"
        assert parse_permutation(str(p), p.degree) == p
        assert parse_permutation(one_line, p.degree) == p

    @pytest.mark.parametrize(
        "text, degree",
        [
            ("(1,2)(2,1)", 4),  # composes to a bijection, names 2 twice
            ("(1,2,1)", 4),
            ("(005,1)", 4),
            ("(01,2)", 4),  # longer than the digits of 4, still in range
            ("(01,2)", 10),
            ("()()", 4),
            ("(1,2)()", 4),
            ("(3)", 4),
            ("(1,,2)", 4),
            ("(,1,2)", 4),
            ("(1,2,)", 4),
            ("((1,2))", 4),
            ("(1,2)(3,4", 4),
            ("(1,²)", 4),
            ("(" + "1" * 5000 + ",2)", 4),
            ("(1,2)(3,4)", np.int64(4)),
        ],
    )
    def test_str_route_agrees_with_the_walker(self, text, degree):
        assert _outcome(parse_permutation, text, degree) == _outcome(_walk, text, degree)

    def test_str_route_leaves_faults_to_the_walker(self):
        with pytest.raises(PermutationParseError, match=r"^duplicate point 2 \(at position 6\)$"):
            parse_permutation("(1,2)(2,1)", 4)
        for text in ("(1,2)(2,1)", "(1,2,1)", "(005,1)", "(3)", "(1,,2)", "(1,²)", "(0,1)"):
            assert _read_cycles(text, 4) is None
        assert _read_cycles("(01,2)", 10) == [2, 1, 3, 4, 5, 6, 7, 8, 9, 10]
        assert _read_cycles("()()", 2) == [1, 2]

    @property_settings
    @given(st.integers(1, 12).flatmap(permutations_of_degree))
    def test_str_route_reads_rendered_text(self, p):
        assert _read_cycles(str(p), p.degree) == list(p.images)

    @property_settings
    @given(
        st.one_of(
            st.tuples(
                st.text(_PARSE_ALPHABET, max_size=24), st.integers(1, 12).map(lambda r: 2 * r)
            ),
            _faulty_cycle_text(),
        )
    )
    def test_same_images_and_errors_as_the_walker(self, case):
        text, degree = case
        assert _outcome(parse_permutation, text, degree) == _outcome(_walk, text, degree)

    @settings(parent=property_settings, max_examples=100)
    @given(_edge_cycle_text())
    def test_same_images_and_errors_at_the_table_bound(self, case):
        text, degree = case
        assert _outcome(parse_permutation, text, degree) == _outcome(_walk, text, degree)
        if degree > _TABLE_DEGREE:
            assert _read_cycles(text, degree) is None

    @pytest.mark.parametrize("degree", _EDGE_DEGREES)
    def test_table_route_ends_at_its_bound(self, degree):
        text = f"(0001,{degree})({degree - 1},{degree - 2})"
        want = [degree, *range(2, degree - 2), degree - 1, degree - 2, 1]
        assert (_read_cycles(text, degree) == want) == (degree <= _TABLE_DEGREE)
        assert list(parse_permutation(text, degree).images) == want
        for run in ("1" * 5000, "0" * 4999 + "1"):
            assert _read_cycles(f"({run},2)", degree) is None
            assert _read_cycles(f"(1,2)(3,{run})", degree) is None

    @pytest.mark.parametrize("degree", [2, 10, 24, 100, _TABLE_DEGREE])
    def test_numpy_degree_reads_the_same_images(self, degree):
        text = f"(1,{degree})" + ("(2,03)" if degree > 2 else "")
        images = _read_cycles(text, np.int64(degree))
        assert images == _read_cycles(text, degree) and images is not None
        assert all(type(p) is int for p in images)
        assert parse_permutation(text, np.int64(degree)) == parse_permutation(text, degree)

    def test_degree_never_inferred(self):
        p = parse_permutation("(1,2)", 8)
        assert p.degree == 8
        assert p(7) == 7


def _passes_the_constructor(p):
    """True when the checked constructor accepts p's images and gives p."""
    return type(p.images) is tuple and Permutation(p.images) == p


class TestBuiltWithoutRecheck:
    """Results that skip the constructor's check, against the constructor."""

    @property_settings
    @given(
        st.one_of(
            st.integers(1, 12).flatmap(permutations_of_degree).map(lambda p: (str(p), p.degree)),
            _faulty_cycle_text(),
        )
    )
    def test_str_route_parse(self, case):
        text, degree = case
        if _read_cycles(text, degree) is not None:
            assert _passes_the_constructor(parse_permutation(text, degree))

    @property_settings
    @given(st.integers(1, 12).flatmap(lambda r: st.tuples(*[permutations_of_degree(r)] * 2)))
    def test_compose_and_inverse(self, pair):
        a, b = pair
        product, inv = compose(a, b), inverse(a)
        assert _passes_the_constructor(product) and _passes_the_constructor(inv)
        assert product.images == tuple(b(a(x)) for x in range(1, a.degree + 1))
        assert all(inv(a(x)) == x for x in range(1, a.degree + 1))

    @property_settings
    @given(
        st.integers(1, 8).flatmap(
            lambda r: st.tuples(
                st.just(r), st.lists(st.tuples(st.integers(1, r), st.integers(1, r)), max_size=12)
            )
        )
    )
    def test_product_of_arrows(self, case):
        # any list of arrows, so chains, repeats and shared heads too
        r, arrows = case
        cycles = [(2 * t - 1, 2 * t) if t == h else (2 * t, 2 * h - 1) for t, h in arrows]
        p = _permutation_of_arrows(r, arrows)
        assert _passes_the_constructor(p)
        assert p == permutation_from_cycles(cycles, 2 * r)


@pytest.mark.parametrize(
    "build",
    [
        identity,
        global_transpose,
        lambda degree: permutation_from_cycles([(1, 2)], degree),
        lambda degree: parse_permutation("(1,2)", degree),
    ],
    ids=["identity", "global_transpose", "permutation_from_cycles", "parse_permutation"],
)
@pytest.mark.parametrize(
    "degree, error, message",
    [
        (10**5000, ValueError, r"^degree <16610-bit integer> exceeds sys\.maxsize$"),
        (sys.maxsize + 1, ValueError, rf"^degree {sys.maxsize + 1} exceeds sys\.maxsize$"),
        (-(10**5000), ValueError, "^degree must be a positive even integer, got -<16610-bit integer>$"),
        (-3, ValueError, "^degree must be a positive even integer, got -3$"),
        (0, ValueError, "^degree must be a positive even integer, got 0$"),
        (5, ValueError, "^degree must be a positive even integer, got 5$"),
        (2.0, TypeError, r"^degree must be an integer, got 2\.0$"),
        (True, TypeError, "^degree must be an integer, got True$"),
    ],
    ids=["huge", "maxsize+1", "huge-negative", "negative", "zero", "odd", "float", "bool"],
)
def test_constructors_share_the_degree_rule(build, degree, error, message):
    # these used to overflow in range() or report the length they built
    with pytest.raises(error, match=message):
        build(degree)
    assert build(np.int64(4)).degree == 4


class TestInvariants:
    def test_bijection_checked(self):
        with pytest.raises(ValueError, match="bijection"):
            Permutation((1, 1, 2, 3))

    def test_degree_must_be_even(self):
        with pytest.raises(ValueError, match="even"):
            Permutation((2, 3, 1))

    def test_images_must_be_a_tuple(self):
        # a list would compare unequal to the same tuple and not hash
        with pytest.raises(TypeError, match=r"^images must be a tuple, got \[2, 1, 3, 4\]$"):
            Permutation([2, 1, 3, 4])
        with pytest.raises(TypeError, match="images must be a tuple"):
            Permutation(range(1, 5))

    def test_non_integer_images_named(self):
        # 2.0 and True equal points, so they used to pass and break str()
        for images in ((2.0, 1.0, 3, 4), (2, True, 3, 4), (2, 1, 3.0, 4)):
            with pytest.raises(TypeError, match="^images entry must be an integer"):
                Permutation(images)
        p = Permutation(tuple(np.array([2, 1, 3, 4])))
        assert str(p) == "(1,2)"
        assert p == Permutation((2, 1, 3, 4))


def test_messages_show_integers_in_decimal_up_to_64_bits():
    # beyond 64 bits, by sign and bit length: str() may refuse the digits
    assert [_shown(x) for x in (2**64 - 1, -(2**64) + 1, np.int64(-3), True)] == [
        str(2**64 - 1), str(-(2**64) + 1), "-3", "True"
    ]
    assert [_shown(x) for x in (2**64, -(10**5000))] == ["<65-bit integer>", "-<16610-bit integer>"]
    assert _shown((np.int8(1),)) == "(1,)" and _shown([2, 10**30]) == "[2, <100-bit integer>]"
    assert [_shown(x) for x in ("3", 1.5, (), (1, "a"))] == ["'3'", "1.5", "()", "(1, 'a')"]


class TestCompose:
    def test_identity_neutral(self):
        p = parse_permutation("(1,2)", 4)
        assert compose(p, identity(4)) == p
        assert compose(identity(4), p) == p

    def test_left_to_right(self):
        # x -> (2,3)((1,2)(x)): 1->3, 3->2, 2->1
        p = compose(parse_permutation("(1,2)", 4), parse_permutation("(2,3)", 4))
        assert p == parse_permutation("(1,3,2)", 4)

    def test_inverse_cancels(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_permutation(rng, 8)
            assert compose(p, inverse(p)) == identity(8)
            assert compose(inverse(p), p) == identity(8)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            compose(identity(4), identity(6))

    def test_associative(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a, b, c = (random_permutation(rng, 10) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestInverse:
    def test_transposition_involution(self):
        p = parse_permutation("(1,2)", 4)
        assert inverse(p) == p

    def test_cycle_reversal(self):
        assert inverse(parse_permutation("(1,3,2)", 4)) == parse_permutation("(1,2,3)", 4)

    def test_global_transpose_involution(self):
        assert inverse(global_transpose(8)) == global_transpose(8)


class TestCycles:
    def test_identity_empty(self):
        assert cycle_decomposition(identity(6)) == ()

    def test_table_example_minimum_first(self):
        p = parse_permutation("(3,12,1,2,10,8)(4,5,6)", 12)
        assert cycle_decomposition(p) == ((1, 2, 10, 8, 3, 12), (4, 5, 6))

    def test_single_transposition(self):
        assert cycle_decomposition(parse_permutation("(2,3)", 4)) == ((2, 3),)

    def test_multiply_back_both_orders(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = random_permutation(rng, 12)
            cycles = cycle_decomposition(p)
            assert permutation_from_cycles(cycles, 12) == p
            assert permutation_from_cycles(tuple(reversed(cycles)), 12) == p

    def test_str_canonical_form(self):
        p = parse_permutation("(3,12,1,2,10,8)(4,5,6)", 12)
        assert str(p) == "(1,2,10,8,3,12)(4,5,6)"
        assert str(identity(4)) == "()"
