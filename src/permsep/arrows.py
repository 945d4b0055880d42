"""Arrow configurations and the rewrite system that canonicalizes permutations.

A permutation of {1, ..., 2r} acts on the row/column indices of an
r-subsystem density matrix.  Modulo the group of norm-preserving
permutations, every permutation reduces to a product of disjoint
transpositions drawn from a small dictionary:

    arrow k -> l   <->  transposition (2k, 2l-1)     (a reshuffle)
    loop @k        <->  transposition (2k-1, 2k)     (a partial transpose)

Such a product is drawn as a set of arrows and loops on the subsystems
{1, ..., r}.  Four rewrite rules, each realized by multiplying a
norm-preserving permutation from the right, reduce any permutation to a
*disjoint* configuration (no two arrows touch a common subsystem):

    prune           drop a point whose cyclic neighbour has equal parity
    chop            split an alternating-parity cycle into transpositions
    exchange heads  swap the heads of two arrows (collapses chains)
    flip            reverse arrows, trade loops for free subsystems

The class of a permutation is the pair (head set, tail set) of its
disjoint configuration, taken modulo flipping.  ``canonical_key`` picks a
fixed representative of each class; two permutations yield the same
separability criterion exactly when their keys agree.

``canonical_key`` reads the key off the parity profile of sigma (which
points it sends to odd slots): heads = {l : sigma(2l-1) even} and tails =
{k : sigma(2k) odd}, flip-reduced, since a norm-preserving right factor
keeps that profile or complements it, and complementing is a flip.  The
rewrite rules produce the normal form and the trace that explain the key.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .perms import Permutation, compose, cycle_decomposition, inverse
from .perms import _built, _check_degree, _cycles_of_images, _parity_kind
from .perms import _check_integer, _render_cycles, _shown

__all__ = [
    "Arrow",
    "ArrowConfiguration",
    "CanonicalKey",
    "RewriteStep",
    "CanonicalizationTrace",
    "prune",
    "chop",
    "exchange_heads",
    "flip",
    "normal_form",
    "as_permutation",
    "canonical_key",
    "equivalent",
    "canonicalize",
    "type_label",
]


class Arrow(NamedTuple):
    tail: int
    head: int

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head

    def render(self) -> str:
        if self.is_loop:
            return f"@{self.tail}"
        return f"{self.tail}->{self.head}"


def _check_r(r) -> None:
    """The constructors' rule for r: an integer whose degree 2r passes
    ``perms._check_degree``, so that r can always be printed."""
    _check_integer("r", r)
    r = operator.index(r)  # a numpy integer's 2 * r would wrap around
    if r < 1:
        raise ValueError(f"r must be positive, got {_shown(r)}")
    if 2 * r > sys.maxsize:
        raise ValueError(f"r must be at most sys.maxsize // 2, got {_shown(r)}")


@dataclass(frozen=True)
class ArrowConfiguration:
    """A valid set of arrows/loops on subsystems {1, ..., r}.

    Valid means: no two arrows share a head, no two share a tail, and no
    arrow other than a loop itself touches a loop's subsystem.  Validity
    keeps the corresponding transpositions unambiguous; disjointness
    (``is_disjoint``) is the stronger normal-form property that no two
    arrows touch a common subsystem at all.
    """

    r: int
    arrows: frozenset[Arrow]

    def __post_init__(self) -> None:
        _check_r(self.r)
        # a loop occupies its subsystem as both head and tail, so the two
        # uniqueness checks also ban arrows touching a loop's subsystem
        heads: set[int] = set()
        tails: set[int] = set()
        for a in sorted(self.arrows):
            if not (1 <= a.tail <= self.r and 1 <= a.head <= self.r):
                raise ValueError(f"arrow {a.render()} leaves subsystems 1..{_shown(self.r)}")
            if a.head in heads:
                raise ValueError(f"two arrows share head {a.head}")
            if a.tail in tails:
                raise ValueError(f"two arrows share tail {a.tail}")
            heads.add(a.head)
            tails.add(a.tail)

    @property
    def heads(self) -> frozenset[int]:
        return frozenset(a.head for a in self.arrows)

    @property
    def tails(self) -> frozenset[int]:
        return frozenset(a.tail for a in self.arrows)

    @property
    def loops(self) -> frozenset[int]:
        return frozenset(a.tail for a in self.arrows if a.is_loop)

    @property
    def free(self) -> frozenset[int]:
        touched = self.heads | self.tails
        return frozenset(k for k in range(1, self.r + 1) if k not in touched)

    def sorted_arrows(self) -> tuple[Arrow, ...]:
        return tuple(sorted(self.arrows))

    def is_disjoint(self) -> bool:
        """True when the supports of all pairs of arrows are disjoint."""
        seen: set[int] = set()
        for a in self.arrows:
            support = {a.tail, a.head}
            if seen & support:
                return False
            seen |= support
        return True

    def render(self) -> str:
        return _render_arrows(self.arrows)


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
class CanonicalKey:
    """Flip-reduced (head set, tail set) pair: one criterion class.

    Loops belong to both sets.  Of the two flip-related candidates the
    constructor demands the one with the smaller rank
    (#heads, tails, heads); ``canonical_key`` always produces that form.
    """

    r: int
    heads: tuple[int, ...]
    tails: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_r(self.r)
        for name, seq in (("heads", self.heads), ("tails", self.tails)):
            if not isinstance(seq, tuple):
                raise TypeError(f"{name} must be a tuple, got {_shown(seq)}")
            for k in seq:
                _check_integer(f"{name} entry", k)
            if list(seq) != sorted(set(seq)):
                raise ValueError(f"{name} must be strictly sorted: {_shown(seq)}")
            if seq and not (1 <= seq[0] and seq[-1] <= self.r):
                raise ValueError(f"{name} leave subsystems 1..{_shown(self.r)}: {_shown(seq)}")
        if len(self.heads) != len(self.tails):
            raise ValueError("head and tail sets must have equal size")
        if _reduce_sorted(self.r, self.heads, self.tails) != (self.heads, self.tails):
            raise ValueError(
                f"key H={set(self.heads) or {}} T={set(self.tails) or {}} "
                "is not flip-reduced"
            )

    @property
    def is_trivial(self) -> bool:
        return not self.heads

    @property
    def loop_count(self) -> int:
        return len(set(self.heads) & set(self.tails))

    @property
    def arrow_count(self) -> int:
        return len(self.heads) - self.loop_count

    @property
    def type_label(self) -> str:
        loops = self.loop_count
        return type_label(len(self.heads) - loops, loops)

    @property
    def partner_label(self) -> str:
        """Type of the flip partner, the other drawing of the same class: the
        arrows reversed, and a loop on each of the r - 2a - l free subsystems."""
        return type_label(self.arrow_count, self.r - len(set(self.heads) | set(self.tails)))

    @property
    def rank(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """Deterministic sort rank: (#arrows + #loops, tails, heads)."""
        return (len(self.heads), self.tails, self.heads)

    @property
    def key(self) -> "CanonicalKey":
        """The key itself, so a class and a ``ClassNorm`` both read ``.key``."""
        return self

    def render(self) -> str:
        h = "{" + ",".join(map(str, self.heads)) + "}"
        t = "{" + ",".join(map(str, self.tails)) + "}"
        return f"H={h} T={t}"


@dataclass(frozen=True)
class RewriteStep:
    """One rule application: ``after = before * multiplier`` exactly.

    ``multiplier`` is a tuple of cycles composed left to right; it is
    always norm-preserving.  ``state`` renders the decomposition or the
    configuration after the step.
    """

    rule: str
    detail: str
    multiplier: tuple[tuple[int, ...], ...]
    state: str


@dataclass(frozen=True)
class CanonicalizationTrace:
    degree: int
    input_cycles: tuple[tuple[int, ...], ...]
    steps: tuple[RewriteStep, ...]
    configuration: ArrowConfiguration
    key: CanonicalKey


# --- the rewrite rules on plain data  ---------------------------------------
#
# The workers below operate on lists of ints so that exhaustive runs over
# whole symmetric groups stay cheap.  `steps` is either None or a list
# collecting RewriteStep records.


def _prune_cycles(
    cycles: list[list[int]], steps: list[RewriteStep] | None
) -> list[list[int]]:
    """Drop points that sit next to an equal-parity point, cyclically.

    Scans each cycle once, left to right, and removes the first point of
    each matching pair; the removal multiplies the permutation by the
    transposition of the pair, which preserves parity.  After c[i] goes,
    its left neighbour c[i-1] (of the other parity than c[i]) meets c[i+1]
    (of the same parity as c[i]), so the pairs left of i still alternate
    and the scan goes on at i: the same removals, in the same order, as a
    scan that restarts from the front after each one.
    """
    work = [list(c) for c in cycles]
    for c in work:
        i = 0
        while len(c) > 1 and i < len(c):
            n1 = c[i]
            n2 = c[(i + 1) % len(c)]
            if (n1 ^ n2) & 1:
                i += 1
                continue
            del c[i]
            if steps is not None:
                steps.append(
                    RewriteStep(
                        rule="prune",
                        detail=f"drop {n1} (equal parity neighbour {n2})",
                        multiplier=((n1, n2),),
                        state=_render_cycles([x for x in work if len(x) > 1]),
                    )
                )
    return [c for c in work if len(c) > 1]


def _check_pruned(cycles: Sequence[Sequence[int]]) -> None:
    for c in cycles:
        if len(c) < 2 or len(c) % 2 != 0:
            raise ValueError(f"cycle {tuple(c)} is not pruned (odd length)")
        for i in range(len(c)):
            if (c[i] ^ c[(i + 1) % len(c)]) & 1 == 0:
                raise ValueError(
                    f"cycle {tuple(c)} is not pruned: {c[i]} and "
                    f"{c[(i + 1) % len(c)]} have equal parity"
                )


def _chop_cycles(
    cycles: Sequence[Sequence[int]], steps: list[RewriteStep] | None
) -> list[tuple[int, int]]:
    """Split pruned cycles into disjoint transpositions.

    A pruned cycle (n1, p1, ..., nk, pk) alternates parity, so the points
    n1, n3, ... in even positions share one parity; multiplying by the
    cycle (n1, nk, ..., n2) on those points yields (n1,p1)...(nk,pk).
    """
    _check_pruned(cycles)
    out: list[tuple[int, int]] = []
    multipliers: list[tuple[int, ...]] = []
    for c in cycles:
        out.extend((c[i], c[i + 1]) for i in range(0, len(c), 2))
        ns = list(c[0::2])
        if len(ns) >= 2:
            multipliers.append((ns[0], *reversed(ns[1:])))
    if steps is not None and multipliers:
        steps.append(
            RewriteStep(
                rule="chop",
                detail="split cycles into disjoint transpositions",
                multiplier=tuple(multipliers),
                state=_render_cycles(out),
            )
        )
    return out


def _arrow_of_transposition(t: tuple[int, int]) -> tuple[int, int]:
    a, b = t
    even, odd = (a, b) if a % 2 == 0 else (b, a)
    if even % 2 != 0 or odd % 2 != 1:
        raise ValueError(f"transposition {t} does not mix parities")
    return (even // 2, (odd + 1) // 2)


def _transposition_of_arrow(tail: int, head: int) -> tuple[int, int]:
    if tail == head:
        return (2 * tail - 1, 2 * tail)
    return (2 * tail, 2 * head - 1)


def _arrows_of_sets(heads: Iterable[int], tails: Iterable[int]) -> list[tuple[int, int]]:
    """(tail, head) pairs of the simplest drawing of these head and tail
    sets: a loop on each subsystem in both, then the remaining tails paired
    in sorted order with the remaining heads."""
    loops = set(heads) & set(tails)
    arrow_heads = sorted(set(heads) - loops)
    arrow_tails = sorted(set(tails) - loops)
    return [(k, k) for k in sorted(loops)] + list(zip(arrow_tails, arrow_heads))


def _permutation_of_arrows(r: int, arrows: Iterable[tuple[int, int]]) -> Permutation:
    """Product of the arrows' transpositions, composed in the given order.

    The arrows must lie on subsystems 1..r.  Each factor (a, b) swaps the
    values a and b among the images, found through the index of where each
    value sits; a product of transpositions is a bijection, so the result
    skips the constructor's check.
    """
    _check_degree(2 * r)
    images = list(range(2 * r + 1))  # 1-based, images[0] unused
    where = images[:]
    for t, h in arrows:
        a, b = _transposition_of_arrow(t, h)
        i, j = where[a], where[b]
        images[i], images[j] = b, a
        where[a], where[b] = j, i
    return _built(tuple(images[1:]))


def _exchanged(
    a: tuple[int, int], b: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int], tuple[tuple[int, int], ...]]:
    """The exchange-heads rule: (t1 -> h1, t2 -> h2) becomes
    (t1 -> h2, t2 -> h1), realized by the norm-preserving right factor
    (2*h1-1, 2*h2-1)(2*t1, 2*t2).  Returns both new arrows and the factor."""
    (t1, h1), (t2, h2) = a, b
    return (t1, h2), (t2, h1), ((2 * h1 - 1, 2 * h2 - 1), (2 * t1, 2 * t2))


def _render_arrows(arrows: Iterable[tuple[int, int]]) -> str:
    items = sorted(arrows)
    if not items:
        return "()"
    return ", ".join(Arrow(*a).render() for a in items)


def _untangle(
    arrows: list[tuple[int, int]], steps: list[RewriteStep] | None
) -> list[tuple[int, int]]:
    """Exchange heads until the configuration is disjoint.

    Deterministic order: among arrows whose head is the tail of another
    arrow, pick the one with the lowest tail and exchange heads with that
    successor.  The exchange turns the pair (t -> h, h -> h') into
    (t -> h', loop @h); closed paths dissolve into loops, open paths into
    interior loops plus one start-to-end arrow.
    """
    work = sorted(arrows)
    while True:
        tails = {t: (t, h) for t, h in work}
        pick = None
        for t, h in work:
            if t != h and h in tails:
                pick = ((t, h), tails[h])
                break
        if pick is None:
            return work
        a, b = pick
        assert a != b and b[0] != b[1], "chain successor must be a non-loop arrow"
        new_a, new_b, multiplier = _exchanged(a, b)
        work.remove(a)
        work.remove(b)
        work.extend([new_a, new_b])
        work.sort()
        if steps is not None:
            steps.append(
                RewriteStep(
                    rule="exchange-heads",
                    detail=(
                        f"exchange heads of {_render_arrows([a])} "
                        f"and {_render_arrows([b])}"
                    ),
                    multiplier=multiplier,
                    state=_render_arrows(work),
                )
            )


def _flip_sets(
    r: int, heads: Iterable[int], tails: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(head, tail) sets of the flipped configuration, as sorted tuples.

    Flipping reverses arrows, removes loops, and puts loops on every free
    subsystem: new heads are the old non-loop tails plus the old free set,
    which is the complement of the old heads, and symmetrically for tails.
    The complements are read off 1..r in order, so they need no sort; the
    membership tests go through sets, which keeps a key of thousands of
    subsystems from a quadratic scan.
    """
    subsystems = range(1, r + 1)
    heads, tails = set(heads), set(tails)
    return (
        tuple([k for k in subsystems if k not in heads]),
        tuple([k for k in subsystems if k not in tails]),
    )


def _reduce_sorted(
    r: int, heads: tuple[int, ...], tails: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The lower-ranked of the (heads, tails) pair of sorted tuples and its
    flip partner: the one copy of the flip reduction.

    The rank leads with #heads, and a flip turns k heads into r - k, so
    the set sizes decide unless 2k = r; only then are (tails, heads)
    compared.  Equal ranks mean equal sets, and flipping has no fixed
    point, so the choice is never a tie.
    """
    twice = 2 * len(heads)
    if twice < r:
        return heads, tails
    flipped_heads, flipped_tails = _flip_sets(r, heads, tails)
    if twice > r or (flipped_tails, flipped_heads) < (tails, heads):
        return flipped_heads, flipped_tails
    return heads, tails


def _reduce_sets(
    r: int, heads: Iterable[int], tails: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``_reduce_sorted`` of sets given in any order, as any iterables."""
    return _reduce_sorted(r, tuple(sorted(heads)), tuple(sorted(tails)))


def _reduced_key(r: int, heads: Iterable[int], tails: Iterable[int]) -> CanonicalKey:
    """The key of the class with these (heads, tails) sets."""
    return _adopted_key(r, *_reduce_sets(r, heads, tails))


def _adopted_key(r: int, heads: tuple[int, ...], tails: tuple[int, ...]) -> CanonicalKey:
    """The key with these sorted, flip-reduced set tuples, which the caller
    has just produced (``_reduce_sorted`` does by construction).

    Skips the constructor's checks, which would only repeat the reduction.
    """
    key = object.__new__(CanonicalKey)
    key.__dict__.update(r=r, heads=heads, tails=tails)
    return key


def _transpose_key(key: CanonicalKey) -> CanonicalKey:
    """Key of compose(global transpose, sigma) for sigma in key's class.

    The transpose sends row slots to column slots on the input side, so the
    parity profile turns heads into complemented tails and back: the sets
    swap roles and are flip-reduced.
    """
    return _adopted_key(key.r, *_reduce_sorted(key.r, key.tails, key.heads))


def _rewrite(
    images: Sequence[int], steps: list[RewriteStep] | None = None
) -> list[tuple[int, int]]:
    """The rewrite route: cycles -> prune -> chop -> read arrows -> untangle.

    Returns the (tail, head) pairs of the disjoint configuration.
    """
    pruned = _prune_cycles(_cycles_of_images(images), steps)
    arrows = [_arrow_of_transposition(t) for t in _chop_cycles(pruned, steps)]
    if steps is not None:
        steps.append(
            RewriteStep(
                rule="read-arrows",
                detail="read arrows off the transpositions",
                multiplier=(),
                state=_render_arrows(arrows),
            )
        )
    return _untangle(arrows, steps)


def _configuration(r: int, arrows: Iterable[tuple[int, int]]) -> ArrowConfiguration:
    return ArrowConfiguration(r, frozenset(Arrow(t, h) for t, h in arrows))


def _rewritten(r: int, arrows: Iterable[tuple[int, int]]) -> ArrowConfiguration:
    """The configuration of the rewrite route's (tail, head) pairs.

    Skips the constructor's checks: chop yields disjoint transpositions, so
    heads and tails are unique subsystems of 1..r, and every exchange of
    heads keeps both sets.
    """
    config = object.__new__(ArrowConfiguration)
    config.__dict__.update(r=r, arrows=frozenset(Arrow(t, h) for t, h in arrows))
    return config


# --- public operations -------------------------------------------------------


def prune(
    cycles: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], ...]:
    """Remove cyclically adjacent equal-parity points from every cycle.

    Each removal multiplies the permutation by the transposition of the
    offending pair, a norm-preserving move.  Cycles that shrink to a
    single point are dropped.
    """
    return tuple(tuple(c) for c in _prune_cycles([list(c) for c in cycles], None))


def chop(cycles: Sequence[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    """Split pruned cycles into disjoint transpositions.

    Raises ValueError when a cycle still has an equal-parity adjacency.
    """
    return tuple(_chop_cycles([list(c) for c in cycles], None))


def exchange_heads(
    config: ArrowConfiguration, a: Arrow, b: Arrow
) -> ArrowConfiguration:
    """Swap the heads of two arrows of the configuration.

    (t1 -> h1, t2 -> h2) becomes (t1 -> h2, t2 -> h1); one or both arrows
    may be loops.  Realized by the norm-preserving right multiplier
    (2*h1-1, 2*h2-1)(2*t1, 2*t2).
    """
    if a not in config.arrows or b not in config.arrows:
        raise ValueError("both arrows must belong to the configuration")
    if a == b:
        raise ValueError("cannot exchange an arrow with itself")
    new_a, new_b, _ = _exchanged(a, b)
    return _configuration(config.r, (set(config.arrows) - {a, b}) | {new_a, new_b})


def flip(config: ArrowConfiguration) -> ArrowConfiguration:
    """Reverse every arrow, drop every loop, and loop every free subsystem.

    Corresponds to composing with the global transpose followed by a
    norm-preserving correction; flipping twice is the identity.
    """
    if not config.is_disjoint():
        raise ValueError("flip requires a disjoint configuration")
    new: set[Arrow] = set()
    for a in config.arrows:
        if not a.is_loop:
            new.add(Arrow(a.head, a.tail))
    for k in config.free:
        new.add(Arrow(k, k))
    return ArrowConfiguration(config.r, frozenset(new))


def as_permutation(config: ArrowConfiguration) -> Permutation:
    """Product of the transpositions encoded by the arrows.

    For a disjoint configuration the order is irrelevant; chained but
    valid configurations compose in ascending tail order.
    """
    return _permutation_of_arrows(config.r, config.sorted_arrows())


def normal_form(sigma: Permutation) -> ArrowConfiguration:
    """Disjoint arrow configuration equivalent to sigma.

    Pipeline: disjoint cycles, prune, chop, read off arrows, then exchange
    heads (lowest tail first) until no arrow's head is another's tail.
    The result differs from sigma by a norm-preserving right factor.
    """
    return _rewritten(sigma.subsystems, _rewrite(sigma.images))


def canonical_key(sigma: Permutation) -> CanonicalKey:
    """Flip-reduced (heads, tails) pair of sigma's disjoint configuration.

    Read off the parity profile: heads are the l with sigma(2l-1) even,
    tails the k with sigma(2k) odd.  Two permutations of equal degree
    share a key exactly when one is the other times a norm-preserving
    permutation on the right.
    """
    images = sigma.images
    heads = tuple([l for l, img in enumerate(images[0::2], start=1) if not img & 1])
    tails = tuple([k for k, img in enumerate(images[1::2], start=1) if img & 1])
    r = len(images) // 2
    return _adopted_key(r, *_reduce_sorted(r, heads, tails))


def key_of_configuration(config: ArrowConfiguration) -> CanonicalKey:
    return _reduced_key(config.r, config.heads, config.tails)


def _equivalence(
    sigma: Permutation, tau: Permutation
) -> tuple[CanonicalKey, CanonicalKey, Permutation, bool]:
    """(key of sigma, key of tau, witness tau^-1 * sigma, verdict); see
    ``equivalent``."""
    if sigma.degree != tau.degree:
        raise ValueError(f"degree mismatch: {sigma.degree} vs {tau.degree}")
    key1, key2 = canonical_key(sigma), canonical_key(tau)
    witness = compose(inverse(tau), sigma)
    same = key1 == key2
    if same != (_parity_kind(witness.images) is not None):
        raise RuntimeError(
            "internal error: canonical keys and the parity membership test "
            f"disagree for {sigma} and {tau}"
        )
    return key1, key2, witness, same


def equivalent(sigma: Permutation, tau: Permutation) -> bool:
    """True when sigma and tau define the same separability criterion.

    Computes both canonical keys and, independently, the parity membership
    test on tau^-1 * sigma; the two routes must agree or a RuntimeError is
    raised.
    """
    return _equivalence(sigma, tau)[3]


def canonicalize(sigma: Permutation) -> CanonicalizationTrace:
    """Full canonicalization with a step-by-step rewrite trace."""
    steps: list[RewriteStep] = []
    config = _rewritten(sigma.subsystems, _rewrite(sigma.images, steps))
    return CanonicalizationTrace(
        degree=sigma.degree,
        input_cycles=cycle_decomposition(sigma),
        steps=tuple(steps),
        configuration=config,
        key=key_of_configuration(config),
    )
