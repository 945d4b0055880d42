"""Exact arithmetic on permutations of {1, ..., 2r}.

Points are 1-based in every public interface.  Products are evaluated left
to right: ``compose(f, g)`` maps ``x`` to ``g(f(x))``, i.e. ``f`` acts
first.  Degrees are always even; point ``2k - 1`` is the row index and
``2k`` the column index of subsystem ``k``.
"""

from __future__ import annotations

import functools
import numbers
import re
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "Permutation",
    "PermutationParseError",
    "parse_permutation",
    "compose",
    "inverse",
    "cycle_decomposition",
    "permutation_from_cycles",
    "identity",
    "global_transpose",
]


class PermutationParseError(ValueError):
    """Malformed permutation text; ``position`` is a 0-based index into the input."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


def _shown(value) -> str:
    """value as an error message echoes it: an integer in decimal, alone or
    in a tuple or list, and anything else by its repr; except that an
    integer beyond 64 bits is shown by its sign and bit length, since str()
    refuses one of more than sys.get_int_max_str_digits() digits (4300 by
    default) and its error would replace the message."""
    if isinstance(value, (tuple, list)):
        shown = ", ".join(map(_shown, value))
        if isinstance(value, list):
            return f"[{shown}]"
        return f"({shown},)" if len(value) == 1 else f"({shown})"
    if not isinstance(value, numbers.Integral):
        return repr(value)
    if -(1 << 64) < value < 1 << 64:
        return str(value)
    return f"{'-' if value < 0 else ''}<{int(value).bit_length()}-bit integer>"


def _check_integer(name: str, value) -> None:
    """TypeError naming the argument unless value is a non-bool integer.

    A float would pass the range guards and fail deep inside, in range()
    or an array shape, with a message that names nothing.
    """
    if type(value) is int:  # the ABC check below costs about 0.7 us a call
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., degree}; ``images[k - 1]`` is the image of point k.

    The constructor checks its images.  Permutations that the library has
    just built and proven valid skip that re-check (``_built``): the
    table parse of cycle text (``_read_cycles``), ``compose``, ``inverse``
    and products of arrow transpositions (``arrows._permutation_of_arrows``).
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        # a list would compare unequal to the same tuple and not hash
        if type(self.images) is not tuple:
            raise TypeError(f"images must be a tuple, got {_shown(self.images)}")
        n = len(self.images)
        if n < 2 or n % 2 != 0:
            raise ValueError(f"degree must be even and >= 2, got {n}")
        ordered = sorted(self.images)
        if ordered != list(range(1, n + 1)):
            raise ValueError(f"images are not a bijection of 1..{n}: {_shown(self.images)}")
        # 2.0 or True equals a point; a sum of ints is an int, and True can
        # only stand in for 1, so all-int images pay no per-entry check
        if type(sum(self.images)) is not int or ordered[0] is True:
            for image in self.images:
                _check_integer("images entry", image)

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def subsystems(self) -> int:
        """Number of subsystems r = degree / 2."""
        return len(self.images) // 2

    def __call__(self, point: int) -> int:
        if not 1 <= point <= len(self.images):
            raise ValueError(f"point {_shown(point)} out of range 1..{len(self.images)}")
        return self.images[point - 1]

    def __str__(self) -> str:
        return _render_cycles(_cycles_of_images(self.images))


def _built(images: tuple[int, ...]) -> Permutation:
    """The permutation with these images, which the caller has just built
    and proven a bijection of 1..n, n even and >= 2.

    Skips the constructor's check, which would only repeat that proof.
    """
    sigma = object.__new__(Permutation)
    sigma.__dict__["images"] = images
    return sigma


def _check_degree(degree, error: type[ValueError] = ValueError) -> None:
    """The degree rule: an integer, even, >= 2 and no larger than any
    sequence can be; a fault raises ``error`` (TypeError for a non-integer)."""
    _check_integer("degree", degree)
    if degree < 2 or degree % 2 != 0:
        raise error(f"degree must be a positive even integer, got {_shown(degree)}")
    if degree > sys.maxsize:  # no sequence is that long
        raise error(f"degree {_shown(degree)} exceeds sys.maxsize")


def identity(degree: int) -> Permutation:
    _check_degree(degree)
    return Permutation(tuple(range(1, degree + 1)))


def global_transpose(degree: int) -> Permutation:
    """The full-transpose permutation (1,2)(3,4)...(2r-1,2r)."""
    _check_degree(degree)  # before a factor list as long as the degree
    return permutation_from_cycles([(k, k + 1) for k in range(1, degree, 2)], degree)


def compose(first: Permutation, second: Permutation) -> Permutation:
    """Left-to-right product: the result maps x to second(first(x))."""
    if first.degree != second.degree:
        raise ValueError(f"degree mismatch: {first.degree} vs {second.degree}")
    s = second.images
    return _built(tuple(s[x - 1] for x in first.images))


def inverse(sigma: Permutation) -> Permutation:
    inv = [0] * sigma.degree
    for point, img in enumerate(sigma.images, start=1):
        inv[img - 1] = point
    return _built(tuple(inv))


def _parity_kind(images: Sequence[int]) -> str | None:
    """"preserving", "swapping", or None when sigma mixes parities: the
    norm-preserving permutations keep every row and column slot in its kind
    or swap every one."""
    first = (images[0] ^ 1) & 1
    for point, img in enumerate(images, start=1):
        if ((point ^ img) & 1) != first:
            return None
    return "preserving" if first == 0 else "swapping"


def cycle_decomposition(sigma: Permutation) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles of sigma, each starting at its minimum point, sorted
    by that minimum.  Fixed points are omitted; the identity yields ()."""
    return tuple(tuple(c) for c in _cycles_of_images(sigma.images))


def _cycles_of_images(images: Sequence[int]) -> list[list[int]]:
    n = len(images)
    seen = bytearray(n + 1)
    cycles: list[list[int]] = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        seen[start] = 1
        nxt = images[start - 1]
        if nxt == start:
            continue
        cyc = [start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = 1
            nxt = images[nxt - 1]
        cycles.append(cyc)
    return cycles


def _render_cycles(cycles: Sequence[Sequence[int]]) -> str:
    """Cycle notation "(a,b,...)(c,...)"; no cycles renders as "()"."""
    if not cycles:
        return "()"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)


def permutation_from_cycles(
    cycles: Iterable[Sequence[int]], degree: int
) -> Permutation:
    """Product of the given cycles, applied left to right.

    The cycles need not be disjoint; overlapping factors compose in the
    listed order.  Used to rebuild permutations from decompositions and to
    materialize rewrite multipliers.
    """
    _check_degree(degree)
    images = list(range(1, degree + 1))
    for cyc in cycles:
        if len(cyc) < 2:
            continue
        step = {cyc[i]: cyc[(i + 1) % len(cyc)] for i in range(len(cyc))}
        if len(step) != len(cyc):
            raise ValueError(f"cycle contains a repeated point: {_shown(tuple(cyc))}")
        for p in cyc:
            if not 1 <= p <= degree:
                raise ValueError(f"point {_shown(p)} out of range 1..{degree}")
        images = [step.get(x, x) for x in images]
    return Permutation(tuple(images))


# --- parsing ---------------------------------------------------------------

# A point is a run of ASCII digits (\d would also take '²', '٣' and '２');
# every other non-blank character is a token of its own.
_TOKEN = re.compile(r"[0-9]+|\S")


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse cycle notation "(a,b,...)(c,d,...)" or one-line "[p1 p2 ... pn]".

    ``degree`` is explicit and never inferred from the text (cycle strings
    omit fixed points).  Unnamed points stay fixed.  "()" and the empty
    string both denote the identity.  Blanks may sit between any two tokens.

    Blank-free ASCII cycle text, the form ``str(Permutation)`` writes, is
    read by looking each point up in a table of the degree's point names
    (``_read_cycles``); all other text, degrees above the table's bound,
    and every fault go to the token walker, which alone reports errors.
    Both routes give the same images for the text they both accept.
    """
    _check_degree(degree, PermutationParseError)
    images = _read_cycles(text, degree)
    if images is not None:  # a bijection: see _read_cycles
        return _built(tuple(images))
    return _walk(text, degree)


def _walk(text: str, degree: int) -> Permutation:
    """The token walker: reads either grammar and reports every fault."""
    tokens = _TOKEN.findall(text) + [""]  # "" marks the end of the input
    parse = _parse_one_line if tokens[0] == "[" else _parse_cycles
    return parse(text, tokens, degree, len(str(degree)))


# Degrees up to this bound read cycle text through a table of point names
# (``_point_table``), built on first use: degree 1024 gives 2131 names in
# about 180 KiB.  Larger degrees go to the walker, and at most 32 tables
# are kept, so their memory is bounded whatever degrees a caller parses at.
_TABLE_DEGREE = 1024


@functools.lru_cache(maxsize=32)
def _point_table(degree: int) -> dict[str, int]:
    """Every name of a point of 1..degree: each run of at most the digits of
    degree that names one, leading zeros included, mapped to that point."""
    return {
        str(point).zfill(n): point
        for n in range(1, len(str(degree)) + 1)
        for point in range(1, min(degree, 10**n - 1) + 1)
    }


def _read_cycles(text: str, degree: int) -> list[int] | None:
    """Images of blank-free ASCII cycle text, or None for the walker.

    Returns None, without raising, unless degree is at most _TABLE_DEGREE,
    every cycle is "()" or names at least two points, and every point is a
    digit run no longer than the digits of degree, lies in 1..degree and is
    named once in the whole text.  Every character but the delimiters lies
    in a point, so the table also turns away non-ASCII text.  Repeats are
    checked on the points, not on the images: "(1,2)(2,1)" composes to a
    bijection, but the walker rejects it.
    """
    if not (isinstance(text, str) and text[:1] == "(" and text[-1:] == ")"):
        return None
    if degree > _TABLE_DEGREE:
        return None
    point = _point_table(degree).get
    cycles = []
    points: list[int] = []
    for body in text[1:-1].split(")("):
        if body:
            cycle = list(map(point, body.split(",")))
            if len(cycle) < 2 or None in cycle:
                return None
            cycles.append(cycle)
            points += cycle
    if len(set(points)) != len(points):
        return None
    images = list(range(1, degree + 1))
    for cycle in cycles:
        last = cycle[-1]
        for p in cycle:
            images[last - 1] = p
            last = p
    return images


def _error(text: str, k: int, message: str) -> PermutationParseError:
    """The error at token k's offset; "{}" in message becomes the character
    found there, or 'end of input'.  Only errors rescan, with the same
    pattern, so offsets and tokens cannot disagree."""
    offsets = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
    position = offsets[k]
    found = text[position] if position < len(text) else "end of input"
    return PermutationParseError(message.format(repr(found)), position)


def _point(
    text: str, tokens: list[str], k: int, degree: int, width: int, seen: set[int]
) -> int:
    """Token k as a point of 1..degree not yet in seen, which it joins.  A run
    longer than the ``width`` digits of degree is out of range before int()."""
    digits = tokens[k]
    if not "0" <= digits < ":":  # only a digit run starts with 0-9
        raise _error(text, k, "expected a point, found {}")
    digits = digits.lstrip("0") or "0"
    if len(digits) > width or not 1 <= (point := int(digits)) <= degree:
        raise _error(text, k, f"point {digits} out of range 1..{degree}")
    if point in seen:
        raise _error(text, k, f"duplicate point {point}")
    seen.add(point)
    return point


def _parse_cycles(text: str, tokens: list[str], degree: int, width: int) -> Permutation:
    images = list(range(1, degree + 1))
    seen: set[int] = set()
    k = 0
    while tokens[k]:
        if tokens[k] != "(":
            raise _error(text, k, "expected '(', found {}")
        if tokens[k + 1] == ")":  # "()" is an explicit identity factor
            k += 2
            continue
        cycle = [_point(text, tokens, k + 1, degree, width, seen)]
        k += 2
        while tokens[k] == ",":
            cycle.append(_point(text, tokens, k + 1, degree, width, seen))
            k += 2
        if not tokens[k]:
            raise _error(text, k, "unclosed cycle")
        if tokens[k] != ")":
            raise _error(text, k, "expected ',' or ')', found {}")
        if len(cycle) < 2:
            raise _error(text, k, "a cycle needs at least two points")
        k += 1
        for j, p in enumerate(cycle):
            images[p - 1] = cycle[(j + 1) % len(cycle)]
    return Permutation(tuple(images))


def _parse_one_line(text: str, tokens: list[str], degree: int, width: int) -> Permutation:
    points: list[int] = []
    seen: set[int] = set()
    k = 1
    while tokens[k] not in ("]", ""):
        points.append(_point(text, tokens, k, degree, width, seen))
        k += 1
    if not tokens[k]:
        raise _error(text, k, "unclosed '['")
    if tokens[k + 1]:
        raise _error(text, k + 1, "unexpected trailing text {}")
    if len(points) != degree:
        raise PermutationParseError(
            f"one-line form needs exactly {degree} points, got {len(points)}"
        )
    return Permutation(tuple(points))
