"""Permutation arithmetic: parsing, composition, inversion, cycles."""

import ast
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from conftest import permutations_of_degree, property_settings, random_permutation

# the grammar's characters, blanks that str.isspace accepts, and digits
# that only Unicode calls digits
_PARSE_ALPHABET = st.sampled_from(list("0123456789()[], \t\nx") + ["\xa0", "²", "٣", "２"])
_FOUND = re.compile(r"found (.+) \(at position \d+\)$")


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

    def test_degree_never_inferred(self):
        p = parse_permutation("(1,2)", 8)
        assert p.degree == 8
        assert p(7) == 7


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
