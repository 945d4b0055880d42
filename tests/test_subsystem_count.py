"""The subsystem-count rule (``perms._check_r``) at every name that takes r.

Each name accepts exactly the integers 1..its limit, Python or NumPy,
goes on with r as a Python int, and rejects everything else: a
non-integer with TypeError, an integer out of range with ValueError, and
both messages begin with the name r.
"""

import math
import re
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from conftest import property_settings
from permsep import (
    ArrowConfiguration,
    CanonicalKey,
    census_records,
    class_count,
    enumerate_classes,
    generators,
    group_elements,
)
from permsep.arrows import as_permutation, flip
from permsep.cli import main
from permsep.normgroup import MAX_CLASS_R, MAX_COUNT_R, MAX_GENERATOR_R, MAX_GROUP_R
from permsep.perms import _shown

# with no limit, r may be as large as its degree 2r allows
NO_LIMIT = sys.maxsize // 2

NUMPY_TYPES = (np.int8, np.int16, np.int64, np.uint8)


def _numpy_integers(t):
    info = np.iinfo(t)
    return st.integers(int(info.min), int(info.max)).map(t)


integers = st.one_of(
    st.integers(),
    st.integers(-2, MAX_CLASS_R + 2),
    st.integers(NO_LIMIT - 2, NO_LIMIT + 2),
    st.sampled_from(NUMPY_TYPES).flatmap(_numpy_integers),
    st.integers(NO_LIMIT - 2, NO_LIMIT + 2).map(np.int64),
)

non_integers = st.one_of(
    st.floats(),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.sampled_from([np.float64(2.0), np.bool_(True), (2,)]),
)


def _configuration(r, n):
    config = ArrowConfiguration(r, frozenset())
    assert type(config.r) is int and config.r == n


def _key(r, n):
    key = CanonicalKey(r, (), ())
    assert type(key.r) is int and key.r == n


def _generators(r, n):
    gens = generators(r)
    assert len(gens) == n * (n - 1) + 1
    assert {g.degree for g in gens} == {2 * n}


def _class_count(r, n):
    count = class_count(r)
    assert type(count) is int and count == math.comb(2 * n, n) // 2


def _group(r, n):
    group = group_elements(r)
    assert len(group) == 2 * math.factorial(n) ** 2
    assert {g.degree for g in group} == {2 * n}


def _classes(r, n):
    keys = enumerate_classes(r)
    assert len(keys) == math.comb(2 * n, n) // 2
    assert {(type(key.r), key.r) for key in keys} == {(int, n)}


def _census(r, n):
    rows = census_records(r)
    assert sum(row.count for row in rows) == math.comb(2 * n, n) // 2 - 1
    assert all(type(row.r) is int and row.r == n for row in rows)


# (check, limit, largest r whose check is cheap): group_elements(5) takes
# about a second and is checked in test_normgroup.py; the others are
# checked up to where their result stays small
NAMES = {
    "ArrowConfiguration": (_configuration, NO_LIMIT, NO_LIMIT),
    "CanonicalKey": (_key, NO_LIMIT, NO_LIMIT),
    "generators": (_generators, MAX_GENERATOR_R, 24),
    "class_count": (_class_count, MAX_COUNT_R, MAX_COUNT_R),
    "group_elements": (_group, MAX_GROUP_R, MAX_GROUP_R - 1),
    "enumerate_classes": (_classes, MAX_CLASS_R, MAX_CLASS_R),
    "census_records": (_census, MAX_CLASS_R, MAX_CLASS_R),
}


@pytest.mark.parametrize("name", NAMES)
class TestOneRule:
    @settings(parent=property_settings, max_examples=150)
    @given(r=integers)
    def test_integers_accepted_in_range_and_rejected_outside(self, name, r):
        check, limit, cheap = NAMES[name]
        n = int(r)
        if 1 <= n <= limit:
            if n <= cheap:
                check(r, n)
            return
        message = f"r must be in 1..{limit}, got " if limit != NO_LIMIT else "r must be "
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            check(r, n)

    @settings(parent=property_settings, max_examples=50)
    @given(r=non_integers)
    def test_non_integers_rejected(self, name, r):
        check, _, _ = NAMES[name]
        with pytest.raises(TypeError, match=f"^r must be an integer, got {re.escape(repr(r))}$"):
            check(r, None)


@settings(parent=property_settings, max_examples=100)
@given(r=st.one_of(st.integers(), st.integers(-2, MAX_CLASS_R + 2)))
def test_cli_r_takes_the_rule(r):
    for args in (["list", "-r", str(r), "--format", "csv"], ["canon", "-r", str(r), "(1,2)"]):
        result = CliRunner().invoke(main, args)
        if 1 <= r <= MAX_CLASS_R:
            assert result.exit_code == 0, result.output
        else:
            assert result.exit_code == 2
            assert f"-r must be in 1..{MAX_CLASS_R}, got {_shown(r)}\n" in result.output


@pytest.mark.parametrize("r", [np.int8(127), 127])
def test_int8_configuration_of_127_subsystems(r):
    # 127 + 1 wrapped to -128 in 8 bits: no free subsystems, a RuntimeWarning,
    # an empty flip and a degree of -2
    config = ArrowConfiguration(r, frozenset())
    assert config.free == frozenset(range(1, 128))
    assert flip(config).loops == frozenset(range(1, 128))
    assert as_permutation(config).degree == 254


@pytest.mark.parametrize("call, want", [
    (lambda: len(generators(np.int8(MAX_GENERATOR_R))), MAX_GENERATOR_R * (MAX_GENERATOR_R - 1) + 1),
    (lambda: class_count(np.int8(100)), math.comb(200, 100) // 2),
    (lambda: type(enumerate_classes(np.int8(3))[0].r), int),
    (lambda: type(census_records(np.uint8(3))[0].r), int),
], ids=["generators-int8", "class-count-int8", "classes-int8", "census-uint8"])
def test_numpy_r_goes_on_as_a_python_int(call, want):
    assert call() == want


@pytest.mark.parametrize("call, message", [
    (lambda: generators(0), f"r must be in 1..{MAX_GENERATOR_R}, got 0"),  # named the degree
    (lambda: class_count(0), f"r must be in 1..{MAX_COUNT_R}, got 0"),  # returned 0
    (lambda: class_count(-3), f"r must be in 1..{MAX_COUNT_R}, got -3"),  # math.comb's message
    (lambda: generators(NO_LIMIT + 1), f"r must be in 1..{MAX_GENERATOR_R}, got {NO_LIMIT + 1}"),
], ids=["generators-zero", "class-count-zero", "class-count-negative", "generators-past-maxsize"])
def test_r_generic_names_reject_r_by_the_rule(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("name, call, limit", [
    ("generators", generators, MAX_GENERATOR_R),
    ("class_count", class_count, MAX_COUNT_R),
])
def test_r_generic_names_answer_fast_at_their_limit(name, call, limit):
    # generators(300) took 7.4 s and class_count(10**6) 38.4 s before the
    # limits; at each limit the call is well under 0.1 s
    start = time.perf_counter()
    call(limit)
    assert time.perf_counter() - start < 0.1, name
    with pytest.raises(ValueError, match=f"^r must be in 1..{limit}, got {limit + 1}$"):
        call(limit + 1)


def test_class_count_at_its_limit_prints():
    # str() refuses an int of more than sys.get_int_max_str_digits() digits
    assert len(str(class_count(MAX_COUNT_R))) < sys.get_int_max_str_digits()
