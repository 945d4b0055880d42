"""Shared helpers and independent oracles for the test suite.

The oracles deliberately avoid the code paths they check: coset labels
come from parity profiles or brute-force coset multiplication, and the
index relabeling oracle walks every matrix entry with explicit loops.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import settings, strategies as st

from permsep import Permutation, compose, group_elements

# derandomized so that every run draws the same examples
property_settings = settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)


def permutations_of_degree(r):
    images = st.permutations(range(1, 2 * r + 1))
    return images.map(lambda p: Permutation(tuple(p)))


def random_permutation(rng: np.random.Generator, degree: int) -> Permutation:
    return Permutation(tuple(int(x) + 1 for x in rng.permutation(degree)))


def parity_profile(p: Permutation) -> frozenset[frozenset[int]]:
    """Complete coset invariant, independent of the rewrite system.

    The set X of points mapped to odd points changes at most into its
    complement under right multiplication by a norm-preserving
    permutation, and the number of unordered {X, complement} values equals
    the number of cosets, so the pair labels cosets exactly.
    """
    x = frozenset(pt for pt in range(1, p.degree + 1) if p(pt) % 2 == 1)
    complement = frozenset(range(1, p.degree + 1)) - x
    return frozenset({x, complement})


def coset_partition_bruteforce(r: int) -> dict[tuple[int, ...], int]:
    """Label every element of S_2r by its right coset, found by multiplying
    out the whole norm-preserving group.  Exponential; r <= 3 only."""
    group = sorted(g.images for g in group_elements(r))
    label_of: dict[tuple[int, ...], int] = {}
    next_label = 0
    for images in itertools.permutations(range(1, 2 * r + 1)):
        if images in label_of:
            continue
        sigma = Permutation(images)
        for t in group:
            member = tuple(t[x - 1] for x in sigma.images)
            label_of[member] = next_label
        next_label += 1
    return label_of


def _row_col(subscripts: tuple[int, ...], r: int, d: int) -> tuple[int, int]:
    row = col = 0
    for j in range(r):
        row = row * d + subscripts[2 * j]
        col = col * d + subscripts[2 * j + 1]
    return row, col


def apply_permutation_reference(entries: np.ndarray, sigma: Permutation, r: int, d: int) -> np.ndarray:
    """Entry-by-entry relabeling: out at (i_1 ... i_2r) reads the input at
    (i_sigma(1) ... i_sigma(2r))."""
    out = np.zeros_like(entries)
    for subs in itertools.product(range(d), repeat=2 * r):
        src = tuple(subs[sigma(p) - 1] for p in range(1, 2 * r + 1))
        out[_row_col(subs, r, d)] = entries[_row_col(src, r, d)]
    return out


def trace_norm_hermitian_reference(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues; valid for Hermitian matrices only."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def mult_out(cycles, degree: int, start: Permutation | None = None) -> Permutation:
    """Compose a sequence of cycles left to right on top of ``start``."""
    from permsep import permutation_from_cycles, identity

    current = start if start is not None else identity(degree)
    return compose(current, permutation_from_cycles(cycles, degree))
