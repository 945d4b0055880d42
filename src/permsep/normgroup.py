"""The group of norm-preserving index permutations and the class census.

A permutation leaves every operator's trace norm unchanged exactly when it
maps all points to the same parity (a product of a row permutation and a
column permutation of the subsystems) or swaps the parity of every point
(the same followed by a global transpose).  This group has order
2 * r! * r!; the separability criteria correspond to its right cosets, of
which there are C(2r, r) / 2, one of them trivial.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .perms import Permutation, global_transpose, identity, permutation_from_cycles
from .perms import _built, _check_r, _parity_kind
from .arrows import CanonicalKey, canonical_key, type_label
from .arrows import _adopted_key, _permutation_of_arrows, _reduce_sorted

__all__ = [
    "is_norm_preserving",
    "classify",
    "generators",
    "group_elements",
    "enumerate_classes",
    "representative_permutation",
    "census_by_type",
    "census_records",
    "type_label",
    "class_count",
]

MAX_GROUP_R = 5
MAX_CLASS_R = 8
# generators(32) takes about 8 ms, and class_count(4096) 2 ms for a count
# of 2464 digits, which str() still prints (its default limit is 4300)
MAX_GENERATOR_R = 32
MAX_COUNT_R = 4096


def is_norm_preserving(sigma: Permutation) -> bool:
    """Parity membership test: every point keeps or every point swaps parity."""
    return _parity_kind(sigma.images) is not None


def classify(sigma: Permutation) -> str:
    """"preserving" or "swapping"; ValueError when sigma is not norm-preserving."""
    kind = _parity_kind(sigma.images)
    if kind is None:
        raise ValueError(f"{sigma} is not norm-preserving")
    return kind


def generators(r: int) -> list[Permutation]:
    """Even-even transpositions, odd-odd transpositions, global transpose."""
    r = _check_r(r, MAX_GENERATOR_R)
    degree = 2 * r
    gens: list[Permutation] = []
    for k in range(1, r + 1):
        for l in range(k + 1, r + 1):
            for cycle in ((2 * k, 2 * l), (2 * k - 1, 2 * l - 1)):
                gens.append(permutation_from_cycles([cycle], degree))
    gens.append(global_transpose(degree))
    return gens


def _closure(r: int) -> frozenset[Permutation]:
    gen_images = [g.images for g in generators(r)]
    start = identity(2 * r).images
    seen: set[tuple[int, ...]] = {start}
    frontier = [start]
    while frontier:
        nxt: list[tuple[int, ...]] = []
        for images in frontier:
            for g in gen_images:
                prod = tuple(g[x - 1] for x in images)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return frozenset(Permutation(im) for im in seen)


def _parity_filter(r: int) -> frozenset[Permutation]:
    """The group by scanning all (2r)! permutations: the reference that the
    selftest and the tests compare the closure with."""
    degree = 2 * r
    return frozenset(
        Permutation(images)
        for images in itertools.permutations(range(1, degree + 1))
        if _parity_kind(images) is not None
    )


def group_elements(r: int) -> frozenset[Permutation]:
    """All 2 * r! * r! norm-preserving permutations of degree 2r: the
    breadth-first product closure of the generators, r <= 5."""
    r = _check_r(r, MAX_GROUP_R)
    closure = _closure(r)
    expected = 2 * math.factorial(r) ** 2
    if len(closure) != expected:
        raise RuntimeError(
            f"norm-preserving group has {len(closure)} elements, expected {expected}"
        )
    return closure


# --- classes ------------------------------------------------------------------


def class_count(r: int) -> int:
    r = _check_r(r, MAX_COUNT_R)
    return math.comb(2 * r, r) // 2


def _class_sets(r: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The flip-reduced (heads, tails) pairs of ``enumerate_classes(r)``, one
    at a time, in its order."""
    subsystems = range(1, r + 1)
    return (
        (heads, tails)
        for k in range(r // 2 + 1)
        for tails in itertools.combinations(subsystems, k)
        for heads in itertools.combinations(subsystems, k)
        if 2 * k < r or _reduce_sorted(r, heads, tails) == (heads, tails)
    )


def enumerate_classes(r: int) -> list[CanonicalKey]:
    """One key per flip-reduced (heads, tails) pair, trivial included, in
    rank order (#arrows + #loops, tails, heads).

    A flip turns k heads into r - k, so pairs with 2k < r are reduced and
    pairs with 2k > r are not; at 2k = r ``_reduce_sorted`` decides.  Sets
    from ``itertools.combinations`` come in lexicographic order, so k,
    then tails, then heads is rank order, and no set or sort is needed.
    """
    r = _check_r(r, MAX_CLASS_R)
    out = [_adopted_key(r, heads, tails) for heads, tails in _class_sets(r)]
    if len(out) != class_count(r):
        raise RuntimeError(
            f"enumerated {len(out)} classes for r={r}, expected {class_count(r)}"
        )
    return out


def _representative(key: CanonicalKey) -> Permutation:
    """The representative of the key's class, the product of its drawing's
    transpositions, checked to round-trip through ``canonical_key``."""
    perm = _permutation_of_arrows(key.r, key.drawing)
    if canonical_key(perm) != key:
        raise RuntimeError(f"representative of {key.render()} fails to round-trip")
    return perm


@functools.cache
def _representatives(r: int) -> dict[bytes, bytes]:
    """The images of every class representative at r <= MAX_CLASS_R, under
    the key's bytes(heads + tails) (|H| = |T|, so the split is known), each
    checked to round-trip once per process.

    Bytes, not keys and permutations: at r = 8 the 6435 entries hold
    0.86 MB, where the objects held 4.25 MB (tracemalloc); and the sets
    come from a generator, so that no key list lives while the table is
    built.
    """
    return {
        bytes(heads + tails): bytes(_representative(_adopted_key(r, heads, tails)).images)
        for heads, tails in _class_sets(r)
    }


def representative_permutation(key: CanonicalKey) -> Permutation:
    """Simplest permutation in the class: the transpositions of the key's
    loops and arrows, as ``CanonicalKey.drawing`` pairs them.

    Up to r = MAX_CLASS_R it is read from the table of its r, built on
    first use; larger keys are built and checked at each call.
    """
    if key.r > MAX_CLASS_R:
        return _representative(key)
    return _built(tuple(_representatives(key.r)[bytes(key.heads + key.tails)]))


@dataclass(frozen=True)
class CensusRow:
    r: int
    arrow_count: int
    loop_count: int
    type_label: str
    partner_label: str
    count: int


def census_records(r: int) -> list[CensusRow]:
    """Nontrivial class counts by the reduced representative's type, a arrows
    and l loops, in rank order; the flip partner's type rides along since
    one class can be displayed in either form.

    Choosing the loops, then the arrows' heads, then their tails gives
    C(r, l) * C(r - l, a) * C(r - l - a, a) set pairs of a type: each one a
    class's reduced pair when 2(a + l) < r, and none when 2(a + l) > r; at
    2(a + l) = r the flip keeps the type and puts two pairs in each class.
    A count over ``enumerate_classes`` cross-checks it (selftest and tests).
    """
    r = _check_r(r, MAX_CLASS_R)
    rows = []
    for n in range(1, r // 2 + 1):
        for a in range(n + 1):
            l = n - a
            count = math.comb(r, l) * math.comb(r - l, a) * math.comb(r - l - a, a)
            if 2 * n == r:
                count //= 2
            rows.append(CensusRow(r, a, l, type_label(a, l), type_label(a, r - 2 * a - l), count))
    return rows


def census_by_type(r: int) -> dict[str, int]:
    """Mapping from reduced-representative type label to class count."""
    return {row.type_label: row.count for row in census_records(r)}
