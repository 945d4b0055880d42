"""The group of norm-preserving index permutations and the class census.

A permutation leaves every operator's trace norm unchanged exactly when it
maps all points to the same parity (a product of a row permutation and a
column permutation of the subsystems) or swaps the parity of every point
(the same followed by a global transpose).  This group has order
2 * r! * r!; the separability criteria correspond to its right cosets, of
which there are C(2r, r) / 2, one of them trivial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .perms import Permutation, global_transpose, identity
from .arrows import CanonicalKey, canonical_key, _flip_sets, _reduced_key

__all__ = [
    "NormGroupElement",
    "ClassDescriptor",
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


def _parity_kind(images: tuple[int, ...]) -> str | None:
    """"preserving", "swapping", or None when sigma mixes parities."""
    first = (images[0] ^ 1) & 1
    for point, img in enumerate(images, start=1):
        if ((point ^ img) & 1) != first:
            return None
    return "preserving" if first == 0 else "swapping"


def is_norm_preserving(sigma: Permutation) -> bool:
    """Parity membership test: every point keeps or every point swaps parity."""
    return _parity_kind(sigma.images) is not None


@dataclass(frozen=True)
class NormGroupElement:
    """A norm-preserving permutation tagged with its parity behaviour."""

    permutation: Permutation
    parity_kind: str

    def __post_init__(self) -> None:
        if _parity_kind(self.permutation.images) != self.parity_kind:
            raise ValueError(
                f"{self.permutation} is not parity-{self.parity_kind}"
            )


def classify(sigma: Permutation) -> NormGroupElement:
    kind = _parity_kind(sigma.images)
    if kind is None:
        raise ValueError(f"{sigma} is not norm-preserving")
    return NormGroupElement(sigma, kind)


def generators(r: int) -> list[Permutation]:
    """Even-even transpositions, odd-odd transpositions, global transpose."""
    degree = 2 * r
    gens: list[Permutation] = []
    for k in range(1, r + 1):
        for l in range(k + 1, r + 1):
            for a, b in ((2 * k, 2 * l), (2 * k - 1, 2 * l - 1)):
                images = list(range(1, degree + 1))
                images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
                gens.append(Permutation(tuple(images)))
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
    degree = 2 * r
    return frozenset(
        Permutation(images)
        for images in itertools.permutations(range(1, degree + 1))
        if _parity_kind(images) is not None
    )


def group_elements(r: int, method: str = "auto") -> frozenset[Permutation]:
    """All 2 * r! * r! norm-preserving permutations of degree 2r.

    ``method`` is "closure" (breadth-first product closure of the
    generators, r <= 5), "parity_filter" (scan the full symmetric group,
    r <= 4), or "auto", which runs both where feasible and checks that
    they coincide.
    """
    if not 1 <= r <= MAX_GROUP_R:
        raise ValueError(f"r must be in 1..{MAX_GROUP_R}, got {r}")
    if method == "closure":
        return _closure(r)
    if method == "parity_filter":
        if r > 4:
            raise ValueError("parity_filter scans (2r)! permutations; r <= 4 only")
        return _parity_filter(r)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    closure = _closure(r)
    if r <= 4:
        filtered = _parity_filter(r)
        if closure != filtered:
            raise RuntimeError(
                "generator closure and parity filter disagree for r =" f" {r}"
            )
    expected = 2 * math.factorial(r) ** 2
    if len(closure) != expected:
        raise RuntimeError(
            f"norm-preserving group has {len(closure)} elements, expected {expected}"
        )
    return closure


# --- classes ------------------------------------------------------------------


def type_label(arrow_count: int, loop_count: int) -> str:
    """Structural label: arrows as "R", loops as "QT", coefficient 1 omitted."""
    if arrow_count == 0 and loop_count == 0:
        return "trivial"
    parts = []
    if arrow_count:
        parts.append("R" if arrow_count == 1 else f"{arrow_count}R")
    if loop_count:
        parts.append("QT" if loop_count == 1 else f"{loop_count}QT")
    return "+".join(parts)


@dataclass(frozen=True)
class ClassDescriptor:
    """One equivalence class of criteria, described by its reduced key."""

    key: CanonicalKey

    @property
    def arrow_count(self) -> int:
        return self.key.arrow_count

    @property
    def loop_count(self) -> int:
        return self.key.loop_count

    @property
    def type_label(self) -> str:
        return type_label(self.arrow_count, self.loop_count)

    @property
    def partner_label(self) -> str:
        """Type of the flip partner, the other drawing of the same class."""
        heads, tails = _flip_sets(self.key.r, self.key.heads, self.key.tails)
        loops = len(set(heads) & set(tails))
        return type_label(len(heads) - loops, loops)

    @property
    def trivial(self) -> bool:
        return self.key.is_trivial


def class_count(r: int) -> int:
    return math.comb(2 * r, r) // 2


def enumerate_classes(r: int) -> list[ClassDescriptor]:
    """One descriptor per flip-reduced (heads, tails) pair, trivial included.

    Enumerates the C(2r, r) head/tail set pairs rather than the (2r)!
    permutations, keeps the flip-reduced member of each pair, and sorts by
    (#arrows + #loops, tails, heads).
    """
    if not 1 <= r <= MAX_CLASS_R:
        raise ValueError(f"r must be in 1..{MAX_CLASS_R}, got {r}")
    subsystems = range(1, r + 1)
    keys = {
        _reduced_key(r, heads, tails)
        for k in range(r + 1)
        for heads in itertools.combinations(subsystems, k)
        for tails in itertools.combinations(subsystems, k)
    }
    out = [ClassDescriptor(key) for key in sorted(keys, key=lambda key: key.rank)]
    if len(out) != class_count(r):
        raise RuntimeError(
            f"enumerated {len(out)} classes for r={r}, expected {class_count(r)}"
        )
    return out


def representative_permutation(key: CanonicalKey) -> Permutation:
    """Simplest permutation in the class: loops on heads & tails, arrows
    pairing the remaining sorted tails with the remaining sorted heads."""
    loops = sorted(set(key.heads) & set(key.tails))
    arrow_tails = [t for t in key.tails if t not in loops]
    arrow_heads = [h for h in key.heads if h not in loops]
    cycles: list[tuple[int, int]] = [(2 * k - 1, 2 * k) for k in loops]
    cycles.extend(
        (2 * t, 2 * h - 1) for t, h in zip(arrow_tails, arrow_heads)
    )
    degree = 2 * key.r
    images = list(range(1, degree + 1))
    for a, b in cycles:
        images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
    perm = Permutation(tuple(images))
    if canonical_key(perm) != key:
        raise RuntimeError(f"representative of {key.render()} fails to round-trip")
    return perm


@dataclass(frozen=True)
class CensusRow:
    r: int
    arrow_count: int
    loop_count: int
    type_label: str
    partner_label: str
    count: int


def census_records(r: int) -> list[CensusRow]:
    """Nontrivial class counts grouped by the reduced representative's
    structural type; the flip partner's type rides along since one class
    can be displayed in either form."""
    groups: dict[tuple[int, int], list[ClassDescriptor]] = {}
    for desc in enumerate_classes(r):
        if desc.trivial:
            continue
        groups.setdefault((desc.arrow_count, desc.loop_count), []).append(desc)
    rows = []
    for (a, l), members in sorted(groups.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        partners = {m.partner_label for m in members}
        if len(partners) != 1:
            raise RuntimeError(f"mixed partner labels in type group ({a}, {l})")
        rows.append(
            CensusRow(
                r=r,
                arrow_count=a,
                loop_count=l,
                type_label=type_label(a, l),
                partner_label=partners.pop(),
                count=len(members),
            )
        )
    return rows


def census_by_type(r: int) -> dict[str, int]:
    """Mapping from reduced-representative type label to class count."""
    return {row.type_label: row.count for row in census_records(r)}
