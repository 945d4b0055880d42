"""Dense numerics: states, index-permutation maps, trace norms, criteria.

A state on r subsystems of local dimension d is stored as its d^r x d^r
matrix.  The entry at row multi-index (i1, i3, ..., i_{2r-1}) and column
multi-index (i2, i4, ..., i_{2r}) carries the 2r subscripts i1 ... i_{2r};
odd subscripts are row indices, even subscripts column indices, and the
first subsystem is the most significant digit of the linearized index.

``apply_permutation`` relabels those subscripts: the output entry at
(i1, ..., i_{2r}) is the input entry at (i_{s(1)}, ..., i_{s(2r)}).  A
state is separable only if every such relabeling keeps its trace norm at
most 1, so any value above 1 certifies entanglement.
"""

from __future__ import annotations

import functools
import itertools
import logging
import numbers
import operator
import sys
import time
from dataclasses import dataclass

import numpy as np

from ._defaults import VERDICT_TOLERANCE
from .perms import Permutation, _check_integer, _shown
from .normgroup import MAX_CLASS_R, enumerate_classes, representative_permutation
from .arrows import CanonicalKey, _arrows_of_sets, _reduced_key, _transpose_key
from ._lapack import _blas_threads_for, _factor_in_place, _share, _worker_count

__all__ = [
    "MAX_DIM",
    "VERDICT_TOLERANCE",
    "DensityMatrix",
    "StateValidationError",
    "StateFileError",
    "apply_permutation",
    "trace_norm",
    "swap_operator",
    "basis_product_state",
    "bell_pair_state",
    "ghz_state",
    "maximally_mixed_state",
    "random_separable_state",
    "random_state",
    "detector_state",
    "ClassNorm",
    "CriterionReport",
    "evaluate_criteria",
    "read_state_file",
    "write_state_file",
]

MAX_DIM = 4096

_log = logging.getLogger("permsep")

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9

# bytes of the block of rows that each blockwise O(dim^2) pass reads at a time
_BLOCK_BYTES = 1 << 16
# bytes of the complex matrices, and at least one, that an evaluation's dense
# route stacks into one np.linalg call: 4 at dim 128 and 1 from dim 182 on.
# np.linalg holds the GIL on one small matrix but not on a stack of enough of
# them (``permsep._lapack``), so stacks let the worker threads overlap; a
# budget this small adds little to an evaluation's peak memory.
_STACK_BYTES = 1 << 20


def _row_blocks(dim: int):
    """Slices of consecutive rows of a dim x dim complex matrix, _BLOCK_BYTES
    (and at least one row) each, in increasing order."""
    rows = max(1, _BLOCK_BYTES // (16 * dim))
    return (slice(i, i + rows) for i in range(0, dim, rows))


class StateValidationError(ValueError):
    """A matrix violates the state invariants; lists every violation."""


class StateFileError(ValueError):
    """Malformed state file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _hermitian_deviation(m: np.ndarray) -> float:
    """max |m - m^dagger|, a block of rows at a time, so that no dim x dim
    temporary is held."""
    return max(
        float(np.max(np.abs(m[rows] - m[:, rows].conj().T))) for rows in _row_blocks(len(m))
    )


def _minimum_eigenvalue(m: np.ndarray) -> tuple[float | None, str]:
    """The minimum eigenvalue of the Hermitian matrix m, or None where a
    Cholesky factorization certifies that it is above EIGENVALUE_FLOOR;
    and the route taken, "cholesky" or "eigvalsh".

    If m + (|floor| / 2) I has a Cholesky factor, the eigenvalues of m are
    above floor / 2 less a backward error of about dim * eps * |m|, far
    above the floor, so no eigendecomposition is needed.  Both routes read
    the lower triangle, and run under ``_blas_threads_for``, so that they
    leave no OpenBLAS helper thread spinning into the evaluation that
    usually follows.
    """
    shifted = m.copy()
    shifted.flat[:: len(m) + 1] -= EIGENVALUE_FLOOR / 2
    with _blas_threads_for(len(m)):
        if not _factor_in_place(shifted):
            return float(np.min(np.linalg.eigvalsh(m))), "eigvalsh"
    return None, "cholesky"


def _check_dims(r: int, d: int) -> int:
    _check_integer("subsystem count", r)
    _check_integer("local dimension", d)
    r, d = operator.index(r), operator.index(d)  # a numpy integer's d**r wraps around
    if r < 1:
        raise ValueError(f"subsystem count must be positive, got {_shown(r)}")
    if d < 1:
        raise ValueError(f"local dimension must be positive, got {_shown(d)}")
    if d > MAX_DIM:  # then d**r > MAX_DIM, and d may have too many digits to print
        raise ValueError(f"local dimension exceeds guard {MAX_DIM}")
    if d > 1 and r > MAX_DIM.bit_length():  # then d**r > MAX_DIM: skip the power
        # and r, which may have too many digits to print
        raise ValueError(
            f"total dimension {d}^r for r > {MAX_DIM.bit_length()} exceeds guard {MAX_DIM}"
        )
    dim = d**r
    if dim > MAX_DIM:
        raise ValueError(f"total dimension {d}^{r} = {dim} exceeds guard {MAX_DIM}")
    return dim


def _entries_of(r: int, d: int, entries: np.ndarray) -> np.ndarray:
    """entries checked against r and d, C-contiguous and read-only."""
    dim = _check_dims(r, d)
    if entries.shape != (dim, dim):
        raise ValueError(
            f"entries must be {dim}x{dim} for r={r}, d={d}; got {entries.shape}"
        )
    entries = np.ascontiguousarray(entries, dtype=np.complex128)
    entries.setflags(write=False)
    return entries


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A d^r x d^r complex operator with subsystem metadata.

    States satisfy the invariants checked by ``validate_state``; results
    of index permutations reuse the same wrapper without them.  A state
    owns one read-only, C-contiguous complex128 array.  The constructor
    copies the array it is given, since the caller may still hold it;
    the matrices the library builds itself (the state factories,
    ``detector_state``, ``apply_permutation``, ``read_state_file``) are
    adopted without a copy.  States compare and hash by identity: compare
    their ``entries`` to compare matrices.
    """

    r: int
    d: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=np.complex128, order="C")
        object.__setattr__(self, "entries", _entries_of(self.r, self.d, entries))

    @property
    def dim(self) -> int:
        return len(self.entries)  # d^r, which the constructor checked

    def state_violations(self) -> list[str]:
        """Human-readable list of violated state invariants (empty if none)."""
        m = self.entries
        if not np.isfinite(m).all():
            # every comparison with NaN is False, so the checks below cannot run
            nan, inf = int(np.isnan(m).sum()), int(np.isinf(m).sum())
            return [f"non-finite entries: {nan} NaN, {inf} inf"]
        out = []
        herm = _hermitian_deviation(m)
        if herm > HERMITICITY_TOL:
            out.append(f"not Hermitian: max deviation {herm:.3e} > {HERMITICITY_TOL}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            out.append(f"trace is {tr:.12g}, not 1 within {TRACE_TOL}")
        if not out:
            lo, route = _minimum_eigenvalue(m)
            object.__setattr__(self, "_positivity", route)  # for read_state_file's log
            if lo is not None and lo < EIGENVALUE_FLOOR:
                out.append(f"minimum eigenvalue {lo:.3e} < {EIGENVALUE_FLOOR}")
        return out

    def validate_state(self) -> "DensityMatrix":
        # the state owns its read-only entries, so a passed check stays
        # passed: reading a file and then evaluating it validates once
        if self.__dict__.get("_valid"):
            return self
        violations = self.state_violations()
        if violations:
            raise StateValidationError("; ".join(violations))
        object.__setattr__(self, "_valid", True)
        return self


def _adopt(r: int, d: int, entries: np.ndarray) -> DensityMatrix:
    """A state that takes over a matrix the library has just built.

    Runs the constructor's checks without its copy, so no one else may
    hold entries, or the array it views, afterwards.
    """
    rho = object.__new__(DensityMatrix)
    rho.__dict__.update(r=r, d=d, entries=_entries_of(r, d, entries))
    return rho


def _axis_of_point(point: int, r: int) -> int:
    # tensor layout: axes 0..r-1 are row subscripts i1, i3, ..., axes r..2r-1
    # are column subscripts i2, i4, ...
    if point % 2 == 1:
        return (point - 1) // 2
    return r + point // 2 - 1


def apply_permutation(rho: DensityMatrix, sigma: Permutation) -> DensityMatrix:
    """Relabel the 2r matrix subscripts of rho by sigma.

    The output entry at subscripts (i1, ..., i_{2r}) equals the input
    entry at (i_{s(1)}, ..., i_{s(2r)}).  The map is linear, invertible,
    and a pure relabeling, so it acts as a tensor transpose.  The result
    is a fresh array, except that a permutation that moves no entry (the
    identity, or any permutation when d = 1) returns a view of rho's own
    read-only array.
    """
    r, d = rho.r, rho.d
    if sigma.degree != 2 * r:
        raise ValueError(f"permutation degree {sigma.degree} != 2r = {2 * r}")
    # input subscript p carries the output subscript s(p)
    axes = [0] * (2 * r)
    for point, image in enumerate(sigma.images, start=1):
        axes[_axis_of_point(image, r)] = _axis_of_point(point, r)
    tensor = rho.entries.reshape((d,) * (2 * r))
    return _adopt(r, d, tensor.transpose(axes).reshape(rho.dim, rho.dim))


def trace_norm(operator: DensityMatrix | np.ndarray) -> float:
    """Sum of singular values of a square matrix.

    Up to dim 361 the SVD runs on one OpenBLAS thread, and the caller's
    count comes back afterwards (``_blas_threads_for``), so that no helper
    thread spins into whatever follows.
    """
    m = operator.entries if isinstance(operator, DensityMatrix) else np.asarray(operator)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"trace norm needs a square matrix, got shape {m.shape}")
    with _blas_threads_for(len(m)):
        return float(np.linalg.svd(m, compute_uv=False).sum())


def _check_pair(r: int, k: int, l: int) -> None:
    _check_integer("k", k)
    _check_integer("l", l)
    if not (1 <= k < l <= r):
        raise ValueError(f"need 1 <= k < l <= r, got k={_shown(k)}, l={_shown(l)}, r={r}")


def swap_operator(r: int, d: int, k: int, l: int) -> np.ndarray:
    """Unitary permutation matrix exchanging subsystems k and l."""
    dim = _check_dims(r, d)
    _check_pair(r, k, l)
    swapped = (
        np.arange(dim).reshape((d,) * r).swapaxes(k - 1, l - 1).reshape(dim)
    )
    v = np.zeros((dim, dim), dtype=np.complex128)
    v[np.arange(dim), swapped] = 1.0
    return v


# --- state factory ------------------------------------------------------------


def _ghz_matrix(r: int, d: int) -> np.ndarray:
    """|psi><psi| for psi the uniform superposition of |i i ... i>."""
    psi = np.zeros(d**r, dtype=np.complex128)
    repunit = sum(d**j for j in range(r))  # linear index of |i ... i> is i * repunit
    for i in range(d):
        psi[i * repunit] = 1.0 / np.sqrt(d)
    return np.outer(psi, psi.conj())


def _pairs_state(r: int, d: int, pairs: list[tuple[int, int]]) -> DensityMatrix:
    """A maximally entangled pair on each of the disjoint subsystem pairs,
    maximally mixed elsewhere."""
    used = {k for pair in pairs for k in pair}
    rest = [j for j in range(1, r + 1) if j not in used]
    entangled = _ghz_matrix(2, d)
    eye = np.eye(d, dtype=np.complex128) / d
    blocks = [entangled] * len(pairs) + [eye] * len(rest)
    matrix = functools.reduce(np.kron, blocks)
    # slot i of the product carries subsystem order[i - 1]
    order = [k for pair in pairs for k in pair] + rest
    images = tuple(p for k in order for p in (2 * k - 1, 2 * k))
    return apply_permutation(_adopt(r, d, matrix), Permutation(images)).validate_state()


def basis_product_state(r: int, d: int, levels: tuple[int, ...] | None = None) -> DensityMatrix:
    """|levels><levels| in the computational basis (default all zeros)."""
    dim = _check_dims(r, d)
    if levels is None:
        levels = (0,) * r
    for x in levels:
        _check_integer("level", x)
    if len(levels) != r or not all(0 <= x < d for x in levels):
        raise ValueError(f"levels must be r={r} integers in 0..{d - 1}, got {_shown(levels)}")
    index = 0
    for x in levels:
        index = index * d + x
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[index, index] = 1.0
    return _adopt(r, d, m).validate_state()


def bell_pair_state(r: int, d: int, k: int, l: int) -> DensityMatrix:
    """Maximally entangled pair on subsystems (k, l), maximally mixed rest."""
    _check_dims(r, d)
    _check_pair(r, k, l)
    return _pairs_state(r, d, [(k, l)])


def ghz_state(r: int, d: int) -> DensityMatrix:
    """Pure superposition of |i i ... i> over all levels i."""
    _check_dims(r, d)
    return _adopt(r, d, _ghz_matrix(r, d)).validate_state()


def maximally_mixed_state(r: int, d: int) -> DensityMatrix:
    dim = _check_dims(r, d)
    return _adopt(r, d, np.eye(dim, dtype=np.complex128) / dim)


def _random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _check_seed(seed) -> None:
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {_shown(seed)}")


def random_separable_state(r: int, d: int, terms: int = 10, seed: int = 0) -> DensityMatrix:
    """Convex mixture of ``terms`` random pure product states.

    Deterministic per seed; the weights and the local vectors both come
    from the seeded generator.
    """
    dim = _check_dims(r, d)
    _check_integer("terms", terms)
    if terms < 1:
        raise ValueError(f"need at least one product term, got {_shown(terms)}")
    if terms > sys.maxsize:  # no weight array is that long
        raise ValueError(f"terms {_shown(terms)} exceeds sys.maxsize")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    weights = rng.random(terms)
    weights /= weights.sum()
    m = np.zeros((dim, dim), dtype=np.complex128)
    for w in weights:
        psi = np.ones(1, dtype=np.complex128)
        for _ in range(r):
            psi = np.kron(psi, _random_unit_vector(rng, d))
        m += w * np.outer(psi, psi.conj())
    return _adopt(r, d, m).validate_state()


def random_state(r: int, d: int, seed: int = 0) -> DensityMatrix:
    """Random density matrix G G^dagger / tr, G complex Gaussian."""
    dim = _check_dims(r, d)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    with _blas_threads_for(dim):  # leaves no OpenBLAS helper thread spinning
        m = g @ g.conj().T
    return _adopt(r, d, m / np.trace(m)).validate_state()


def detector_state(key: CanonicalKey, d: int) -> DensityMatrix:
    """A state whose criterion value for this class is d^(arrows + loops).

    Places a maximally entangled pair across each arrow and across each
    (loop, free subsystem) pairing, maximally mixed elsewhere.  A key is
    flip-reduced, so it has at most r/2 heads, and its free subsystems
    number its loops plus r - 2 * heads: every loop has a free partner.
    """
    if key.is_trivial:
        raise ValueError("the trivial class detects nothing")
    r = key.r
    _check_dims(r, d)
    if d < 2:
        raise ValueError(f"local dimension must be at least 2, got {_shown(d)}")
    arrows = _arrows_of_sets(key.heads, key.tails)
    loops = [t for t, h in arrows if t == h]
    free = sorted(set(range(1, r + 1)) - set(key.heads) - set(key.tails))
    pairs = [(t, h) for t, h in arrows if t != h] + list(zip(loops, free))
    return _pairs_state(r, d, pairs)


# --- criterion evaluation -------------------------------------------------------


@dataclass(frozen=True)
class ClassNorm:
    key: CanonicalKey
    representative: Permutation
    norm: float


@dataclass(frozen=True)
class CriterionReport:
    """Trace norms of one state under every nontrivial criterion class."""

    r: int
    d: int
    records: tuple[ClassNorm, ...]
    max_norm: float
    verdict: str
    tolerance: float


def _valid_tolerance(tolerance: float) -> float:
    # "not >=" also rejects nan, which would call every state undetected
    if not tolerance >= 0:
        raise ValueError(f"{tolerance} is not >= 0")
    return tolerance


@functools.cache
def _plan(r: int) -> tuple[tuple[CanonicalKey, Permutation, int | None], ...]:
    """(key, representative, partner) of every nontrivial class at r, in
    rank order.  partner is the index of the earlier entry whose class is
    this one's global-transpose partner, or None when this entry is the
    first of its pair and must be decomposed."""
    index_of: dict[CanonicalKey, int] = {}
    plan = []
    for key in enumerate_classes(r):
        if key.is_trivial:
            continue
        # look up before registering: a self-paired class has no earlier partner
        partner = index_of.get(_transpose_key(key))
        index_of[key] = len(plan)
        plan.append((key, representative_permutation(key), partner))
    return tuple(plan)


# The structured routes below stand in for the dense one, a decomposition of
# one d^r x d^r complex matrix per orbit, where the state allows it.
#
# The pure route and the subsystem-swap pairing are taken only when their
# certificate, a bound on every norm's error, is below this share of the
# verdict tolerance, the tolerance capped at VERDICT_TOLERANCE so that a
# loose verdict margin does not loosen the norms.
_BOUND_SHARE = 1e-3
# tr(rho^2) of a state that the certificate accepts is 1 within about
# 2 * TRACE_TOL; a state below this screen is mixed and skips the certificate
_PURITY_SCREEN = 1 - 1e-6


def _distance(m: np.ndarray, block) -> float:
    """||m - B||_F, for block(rows) a fresh array of B's rows, summed a block
    of rows at a time, so that no dim x dim temporary is held."""
    square = 0.0
    for rows in _row_blocks(len(m)):
        b = block(rows)
        np.subtract(m[rows], b, out=b)
        square += np.vdot(b, b).real
    return float(np.sqrt(square))


def _pure_vector(m: np.ndarray) -> tuple[np.ndarray | None, float]:
    """(psi, ||m - psi psi^dagger||_F) for the Hermitian m, where psi is
    m's column j over sqrt(m[j, j]) at its largest diagonal entry; or
    (None, inf) when m's purity tr(m^2) shows that it is mixed.

    Then psi psi^dagger and m share column j.
    """
    if np.vdot(m, m).real < _PURITY_SCREEN:
        return None, np.inf
    j = int(np.argmax(m.diagonal().real))
    psi = m[:, j] / np.sqrt(m[j, j].real)
    bra = psi.conj()
    return psi, _distance(m, lambda rows: np.outer(psi[rows], bra))


def _factored_norms(psi: np.ndarray, r: int, d: int, keys: list) -> tuple[list[float], int]:
    """The norms of psi psi^dagger under the classes of keys, and the number
    of Schmidt SVDs they took.

    Under sigma, the psi subscript of subsystem k lands on an output row
    when sigma(2k - 1) is odd, and its conjugate's when sigma(2k) is.  With
    A and B those two sets of subsystems, the permuted matrix is
    Psi_A (x) conj(Psi_B) up to row and column order, where Psi_X is psi
    with the subsystems in X as its row index.  So the norm is S(A) S(B),
    with S(X) the trace norm of Psi_X.  A is the complement of sigma's head
    set and B its tail set, so they are the key's H and T or both their
    complements, and S(X) = S(X^c): the norm is S(H) S(T).  A nontrivial
    key's sets are neither empty nor everything, so at most 2^(r-1) - 1
    SVDs are needed.
    """
    tensor = psi.reshape((d,) * r)
    everyone = frozenset(range(r))
    sums: dict[frozenset[int], float] = {}  # S(X) by row subsystems

    def schmidt(subsystems: tuple[int, ...]) -> float:
        rows = frozenset(k - 1 for k in subsystems)
        rest = everyone - rows
        # the shorter side is the row index, and of two equal sides the one
        # with subsystem 0, so that X and X^c share one entry
        if (len(rows), 0 in rest) > (len(rest), 0 in rows):
            rows, rest = rest, rows
        if rows not in sums:
            m = tensor.transpose(sorted(rows) + sorted(rest)).reshape(d ** len(rows), -1)
            # trace_norm takes square matrices; zero rows add only zero singular values
            square = np.zeros((m.shape[1], m.shape[1]), dtype=np.complex128)
            square[: len(m)] = m
            sums[rows] = trace_norm(square)
        return sums[rows]

    norms = [schmidt(key.heads) * schmidt(key.tails) for key in keys]
    return norms, len(sums)


def _involution_basis(r: int, d: int, pairs) -> np.ndarray:
    """The basis permutation s, read-only, of the subsystem involution that
    swaps each of the disjoint pairs (k, l): its P has P rho P^dagger =
    rho[s][:, s]."""
    pi = list(range(r))
    for k, l in pairs:
        pi[k - 1], pi[l - 1] = l - 1, k - 1
    s = np.arange(d**r).reshape((d,) * r).transpose(pi).reshape(-1)
    s.setflags(write=False)
    return s


@functools.cache
def _swap_bases(r: int, d: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """The subsystem pairs (k, l), k < l, at r, and the basis permutation s
    of each pair's swap, one row per pair (``_involution_basis``)."""
    pairs = tuple(itertools.combinations(range(1, r + 1), 2))
    swapped = [_involution_basis(r, d, [pair]) for pair in pairs]
    bases = np.array(swapped, dtype=np.intp).reshape(len(pairs), d**r)
    bases.setflags(write=False)
    return pairs, bases


@functools.cache
def _swap_orbits(r: int, swaps: tuple[tuple[int, int], ...]) -> tuple:
    """(partners, depth, borrowed): the orbits of the classes of ``_plan(r)``
    under the global transpose and the swaps of these subsystem pairs.

    partners[i] is the plan index of the first class of class i's orbit, or
    None for that first class.  depth is the most swaps on the shortest way
    from the first class to a class of its orbit, and borrowed the number of
    classes whose norm comes through a swap rather than from their own
    transpose pair.

    Swapping subsystems k and l of the input relabels a class's key by the
    transposition pi = (k l): with g the subscript swap (2k-1 2l-1)(2k 2l),
    the class of compose(g, sigma), sigma applied after g, has the key
    (pi(H), pi(T)).  The transpose commutes with every swap, so the search
    runs on transpose pairs, each named by its first class, as the plan's
    partners give it.
    """
    plan = _plan(r)
    index_of = {key: i for i, (key, _, _) in enumerate(plan)}
    pair = [i if partner is None else partner for i, (_, _, partner) in enumerate(plan)]
    moves = [{k: l, l: k} for k, l in swaps]
    first: dict[int, int] = {}
    depth = 0
    for start in pair:
        if start in first:
            continue
        first[start] = start
        frontier, steps = [start], 0
        while frontier:
            reached = []
            for i in frontier:
                key = plan[i][0]
                for move in moves:
                    image = _reduced_key(
                        r,
                        [move.get(h, h) for h in key.heads],
                        [move.get(t, t) for t in key.tails],
                    )
                    j = pair[index_of[image]]
                    if j not in first:
                        first[j] = start
                        reached.append(j)
            frontier = reached
            steps += bool(reached)
        depth = max(depth, steps)
    partners = tuple(None if first[p] == i else first[p] for i, p in enumerate(pair))
    return partners, depth, sum(first[p] != p for p in pair)


def _swap_pairing(herm: DensityMatrix, limit: float) -> tuple[tuple | None, str]:
    """(partners, note): the partners of ``_swap_orbits`` under the subsystem
    swaps certified on the Hermitian herm, or None when none is taken; and
    a note for the debug record.

    A swap P is unitary and a subscript relabeling keeps the Frobenius norm,
    so a class norm on P herm P^dagger differs from the one on herm by at most
    sqrt(dim) * delta, delta = ||herm - P herm P^dagger||_F; along a path of
    swaps the errors add.  So a swap is certified when sqrt(dim) * delta is
    below limit, and the pairing is taken only when sqrt(dim) * depth *
    (the largest delta) is too.  The norm of the diagonal of
    herm - P herm P^dagger is at most delta, so an O(dim) screen on it rules
    out most swaps of a generic state before delta is summed.
    """
    m, root = herm.entries, np.sqrt(herm.dim)
    pairs, bases = _swap_bases(herm.r, herm.d)
    diagonal = m.diagonal()
    screen = root * np.linalg.norm(diagonal - diagonal[bases], axis=1)
    past = np.flatnonzero(screen < limit)
    deltas = {pairs[i]: _distance(m, lambda rows, s=bases[i]: m[s[rows, None], s]) for i in past}
    if not deltas:
        return None, "no swap past the screen"
    certified = tuple(pair for pair, delta in deltas.items() if root * delta < limit)
    if certified:
        partners, depth, borrowed = _swap_orbits(herm.r, certified)
        bound = root * depth * max(deltas[pair] for pair in certified)
        if bound < limit:
            names = "".join(f"({k},{l})" for k, l in certified)
            return partners, (
                f"swaps {names} certified: bound {bound:.1e} < {limit:.0e}, "
                f"{borrowed} classes borrowed"
            )
    else:
        bound = root * min(deltas.values())
    names = "".join(f"({k},{l})" for k, l in deltas)
    return None, f"swaps {names} past the screen: bound {bound:.1e} >= {limit:.0e}"


@functools.cache
def _real_layout(key: CanonicalKey, d: int) -> np.ndarray | None:
    """The basis permutation s of the class's subsystem involution pi, or None.

    conj(h) is the Hermitian h permuted by the global transpose t, so
    sigma t sigma^-1 takes h permuted by the representative sigma to its
    conjugate.  It sends each 2k - 1 to 2 pi(k) - 1 and 2k to 2 pi(k)
    exactly for the self-paired arrow classes, whose key the transpose
    keeps; there pi swaps the tail and head of each of sigma's arrows.
    """
    if not key.arrow_count or _transpose_key(key) != key:
        return None
    return _involution_basis(key.r, d, _arrows_of_sets(key.heads, key.tails))


def _real_form(a: np.ndarray, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Re a - (Im a) P, P the permutation matrix of s, written into the
    float64 out, or else over the C-contiguous a's own buffer, which no one
    reads afterwards.

    As P a P = conj(a), which a[s][:, s] == conj(a) states, and P^2 = I,
    U = (I + iP) / sqrt(2) is unitary and U^dagger a U is that real matrix,
    whose entry (i, j) is Re a[i, j] - Im a[i, s[j]].  Its float64 row i lies
    within a's complex row i // 2, so blocks of rows, each read whole before
    it is written, in increasing order, overwrite no row before it is read.
    """
    if out is None:
        out = a.view(np.float64).reshape(-1)[: a.size].reshape(a.shape)
    for rows in _row_blocks(len(a)):
        out[rows] = a[rows].real - a[rows].imag[:, s]
    return out


def _chunks(herm: DensityMatrix, firsts: list[int]) -> list[tuple[str, list[int]]]:
    """(route, plan indices) of the orbits among firsts that one np.linalg
    call decomposes together on the Hermitian herm: "eigvalsh" for loop-only
    classes, "real svd" for self-paired arrow classes (``_real_layout``) and
    "svd" for the others, each route's orbits cut into chunks of at most
    _STACK_BYTES of complex matrices, and at least one matrix."""
    plan, size = _plan(herm.r), max(1, _STACK_BYTES // (16 * herm.dim**2))
    routes: dict[str, list[int]] = {"eigvalsh": [], "real svd": [], "svd": []}
    for i in firsts:
        key = plan[i][0]
        if key.arrow_count == 0:
            routes["eigvalsh"].append(i)
        else:
            routes["svd" if _real_layout(key, herm.d) is None else "real svd"].append(i)
    return [
        (route, orbits[k : k + size])
        for route, orbits in routes.items()
        for k in range(0, len(orbits), size)
    ]


def _stack_buffers(dim: int, chunks: list[tuple[str, list[int]]], workers: int) -> list[np.ndarray]:
    """One complex buffer per thread at work, each the size of the longest
    stack of ``chunks``, for ``_decompose_chunk`` to borrow; none when every
    chunk holds one orbit.

    The calling thread allocates them, so that they come from its own
    malloc arena.  A worker thread lives for one evaluation, and glibc gives
    a new thread a fresh arena when the last worker has not yet released
    its own.  Such an arena's heap grows once to hold the largest block it
    serves (glibc's mmap threshold rises to a freed stack's size), so
    stacks allocated on the workers raised RSS by a step of up to 2.5 MiB at
    some evaluation when the workers shared one CPU (``taskset -c 0``,
    2-core host), and by at most 0.34 MiB from the caller's buffers.
    """
    longest = max((len(orbits) for _, orbits in chunks), default=1)
    if longest == 1:
        return []
    return [np.empty(longest * dim * dim, np.complex128) for _ in range(workers)]


def _decompose_chunk(
    herm: DensityMatrix, norms: list, stacks: list[np.ndarray], chunk: tuple[str, list[int]]
) -> None:
    """Write the norm of each orbit of the chunk (``_chunks``) into norms at
    its plan index, from one np.linalg call on the stack of the orbits'
    matrices: herm permuted by each class's representative, or for "real
    svd" that matrix's real form (``_real_form``).  The stack is laid out
    in a buffer borrowed from ``stacks`` (``_stack_buffers``), which holds
    one for each thread at work.

    A chunk of one orbit decomposes the permuted array itself, so that no
    large matrix is copied; its real form is written over its own rows.
    """
    route, orbits = chunk
    plan, dim = _plan(herm.r), herm.dim
    if len(orbits) > 1:
        buffer = stacks.pop()
        flat = buffer.view(np.float64) if route == "real svd" else buffer
        stack = flat[: len(orbits) * dim * dim].reshape(len(orbits), dim, dim)
    for j, i in enumerate(orbits):
        key, rep, _ = plan[i]
        a = apply_permutation(herm, rep).entries
        if len(orbits) == 1:
            if route == "real svd":
                if np.may_share_memory(a, herm.entries):  # d = 1: a view of herm's array
                    a = a.copy()
                a.setflags(write=True)  # else this call's own array
                a = _real_form(a, _real_layout(key, herm.d))
            stack = a[None]
        elif route == "real svd":
            _real_form(a, _real_layout(key, herm.d), stack[j])
        else:
            stack[j] = a
    if route == "eigvalsh":
        values = np.abs(np.linalg.eigvalsh(stack))
    else:
        values = np.linalg.svd(stack, compute_uv=False)
    for i, row in zip(orbits, values):
        norms[i] = float(row.sum())
    if len(orbits) > 1:
        stacks.append(buffer)


def evaluate_criteria(
    rho: DensityMatrix, tolerance: float = VERDICT_TOLERANCE
) -> CriterionReport:
    """Evaluate every nontrivial class representative on a valid state.

    The verdict is "entangled" exactly when some class norm exceeds
    1 + tolerance; otherwise "undetected" (the criteria are necessary,
    not sufficient, for separability).  At r = 1 every class is trivial,
    so the report has no records, max_norm 0.0 and verdict "undetected".

    The norms are those of the Hermitian part (rho + rho^dagger) / 2,
    which is rho itself, bit for bit, for exactly Hermitian input.  A
    Hermitian state's transpose is its entrywise conjugate, so the class of
    sigma and the class of (global transpose) * sigma have equal norms; one
    decomposition serves both.  Loop-only classes are partial transposes,
    Hermitian, and take the sum of absolute eigenvalues; the others the sum
    of singular values.  Each kind of decomposition is made on stacks of
    orbits, one np.linalg call per stack of at most 1 MiB of complex
    matrices (``_chunks``); a stack of one is the permuted array itself, so
    a large state's matrix is not copied.  np.linalg treats each matrix of a
    stack as it treats the matrix alone, so every norm is the one a
    separate call would give, bit for bit, and a matrix it cannot decompose
    raises its LinAlgError.  The classes, representatives and pairs of each
    r are computed once per process.  A negative or NaN tolerance raises
    ValueError.

    Two routes, read off the class's key, replace that dense one where the
    state allows it.  A pure state's norm is S(H) S(T), Schmidt sums of its
    vector across the key's sets (``_factored_norms``), used only when the
    certificate sqrt(dim) * ||rho - psi psi^dagger||_F, a bound on every
    norm's error, is below 1e-3 * min(tolerance, VERDICT_TOLERANCE): a
    tolerance of 0 always takes the dense route.  A self-paired arrow
    class's matrix A has P A P = conj(A), for P the involution that swaps
    each arrow's tail and head (``_real_layout``), so the unitary
    U = (I + iP) / sqrt(2) takes it to the real Re A - (Im A) P, whose SVD
    is cheaper; that form is written over A's own rows (``_real_form``).

    Off the pure route, classes are also paired by the subsystem swaps that
    leave the state unchanged within a certificate (``_swap_pairing``).
    Swapping subsystems k and l relabels a key's sets by the transposition
    (k l), and a swap P keeps every norm of a state with P rho P^dagger =
    rho.  A swap whose O(dim) screen on the diagonal passes has its distance
    delta = ||rho - P rho P^dagger||_F summed a block of rows at a time.  One
    decomposition then serves each orbit under the transpose and the
    certified swaps, when sqrt(dim) * depth * (the largest delta), with depth
    the most swaps that lead from an orbit's decomposed class to another of
    its classes, bounds every borrowed norm's error below the same
    1e-3 * min(tolerance, VERDICT_TOLERANCE).  A GHZ state mixed with white
    noise under U x U x U then needs 2 decompositions instead of 6, and the
    maximally mixed state 9, 9 and 14 at r = 6, 7 and 8; the orbits of each
    r and set of swaps are computed once per process.

    Up to dim 361, the decompositions run on one thread of numpy's bundled
    OpenBLAS, which is faster there than several, and so does the state's
    positivity check before them: on two threads it would leave a helper
    thread spinning into the decompositions, which made a dim-64 evaluation
    right after a read take 0.10-0.14 s instead of 0.07 s.  That thread
    count is a process-wide setting: it is changed for the duration of the
    call and then restored, so another thread that runs BLAS meanwhile runs
    it on one thread, and one that sets the count meanwhile may race with
    the restore.

    On one OpenBLAS thread, the stacks of a state off the pure route are
    shared among one worker per stack that np.linalg decomposes without
    holding the GIL, up to 2, the caller one of them, and no more than the
    usable CPUs.  Dims outside 32 to 128 stay serial: above, a 1 MiB stack
    holds too few matrices to release the GIL, and below, no r has two
    stacks that do; ``permsep._lapack`` holds that rule and its
    measurements.  Each norm is stored by its class's index, so the report
    does not depend on which thread finishes first, and an error in any
    thread is raised here once all have stopped.  ``apply_permutation`` is
    looked up as a module global for each orbit, so a function put in its
    place is called from several threads at once and must be thread-safe.
    """
    _valid_tolerance(tolerance)
    r, m = rho.r, rho.entries
    plan = _plan(r)  # enumerate_classes' guard on r fails before validation
    rho.validate_state()
    herm = rho
    if not np.array_equal(m, m.conj().T):
        herm = _adopt(r, rho.d, (m + m.conj().T) / 2)
    partners = [partner for _, _, partner in plan]
    norms: list[float | None] = [None] * len(plan)  # by plan index
    workers, chunks = 1, []
    with _blas_threads_for(rho.dim) as one_thread:
        limit = _BOUND_SHARE * min(tolerance, VERDICT_TOLERANCE)
        psi, delta = _pure_vector(herm.entries)
        bound = np.sqrt(rho.dim) * delta
        pure = psi is not None and bound < limit
        if not pure:
            route = "mixed" if psi is None else f"bound {bound:.1e} >= {limit:.0e}"
            swapped, swaps = _swap_pairing(herm, limit)
            if swapped is not None:
                partners = swapped
        firsts = [i for i, partner in enumerate(partners) if partner is None]
        if pure:  # on the caller alone: the Schmidt sums are one plain dict
            factored, svds = _factored_norms(psi, r, rho.d, [plan[i][0] for i in firsts])
            for i, norm in zip(firsts, factored):
                norms[i] = norm
            route = f"bound {bound:.1e} < {limit:.0e}, {svds} schmidt svd"
            swaps = "swaps unchecked"
        else:
            chunks = _chunks(herm, firsts)
            if one_thread:
                workers = _worker_count(rho.dim, [len(orbits) for _, orbits in chunks])
            stacks = _stack_buffers(rho.dim, chunks, workers)
            _share(chunks, functools.partial(_decompose_chunk, herm, norms, stacks), workers)
    for i, partner in enumerate(partners):
        if partner is not None:
            norms[i] = norms[partner]
    kinds = [kind for kind, orbits in chunks for _ in orbits]
    records = tuple(
        ClassNorm(key, rep, norm) for (key, rep, _), norm in zip(plan, norms)
    )
    max_norm = max(norms, default=0.0)
    verdict = "entangled" if max_norm > 1.0 + tolerance else "undetected"
    _log.debug(
        "evaluate r=%d d=%d: %d classes, %d orbits, %d svd, %d eigvalsh, "
        "%d real svd, %d pure (%s), %s, %s, %d worker%s",
        r, rho.d, len(records), len(firsts),
        *map(kinds.count, ("svd", "eigvalsh", "real svd")), len(firsts) if pure else 0,
        route, swaps, "1 blas thread" if one_thread else "blas threads unchanged",
        workers, "" if workers == 1 else "s",
    )
    return CriterionReport(
        r=r,
        d=rho.d,
        records=records,
        max_norm=max_norm,
        verdict=verdict,
        tolerance=tolerance,
    )


# --- state files -----------------------------------------------------------------
#
# Text format: first data line "r d"; then d^r lines, each holding
# 2 * d^r whitespace-separated floats, the real and imaginary part of one
# matrix row in alternation.  Lines whose first non-blank character is '#'
# are comments; blank lines are skipped.  The file is ASCII.  A row is the
# float64 view of one complex128 matrix row, so the writer and both
# readers go through that view and every entry keeps the file's bits.


def _check_file_guard(r: int, line: int | None = None) -> None:
    # eval has no classes beyond the guard: the reader fails before reading
    # the rows, and the writer before creating the file
    if r > MAX_CLASS_R:
        raise StateFileError(f"subsystem count {r} exceeds guard {MAX_CLASS_R}", line)


def write_state_file(path, rho: DensityMatrix) -> None:
    """Write rho in the text format; a state with r above the class guard
    raises the reader's StateFileError, and no file is created."""
    _check_file_guard(rho.r)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{rho.r} {rho.d}\n")
        np.savetxt(fh, rho.entries.view(np.float64), fmt="%.16e")


def _data_lines(lines):
    """(line number, line) of every line that is neither blank nor a comment."""
    for number, line in enumerate(lines, start=1):
        stripped = line.lstrip()
        if stripped and not stripped.startswith("#"):
            yield number, line


def _parse_header(number: int, line: str) -> tuple[int, int, int]:
    header = line.strip()
    parts = header.split()
    if len(parts) != 2:
        raise StateFileError(f"header must be 'r d', got {header!r}", number)
    try:
        r, d = int(parts[0]), int(parts[1])
    except ValueError:
        raise StateFileError(f"header must be two integers, got {header!r}", number)
    _check_file_guard(r, number)
    try:
        dim = _check_dims(r, d)
    except ValueError as exc:
        raise StateFileError(str(exc), number)
    return r, d, dim


def _read_streamed(path) -> tuple[int, int, np.ndarray] | None:
    """Parse all rows in one ``np.loadtxt`` call, streaming the lines.

    Returns None, without raising, whenever the file is not a well-formed
    state file in the grammar ``loadtxt`` shares with ``float``; the row
    loop then decides, so its errors and its float grammar stay the
    answer.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = _data_lines(fh)
            header = next(lines, None)
            if header is None:
                return None
            r, d, dim = _parse_header(*header)
            rows = (line for _, line in lines)
            first = next(rows, None)
            if first is None:  # loadtxt warns on empty input
                return None
            a = np.loadtxt(
                itertools.chain([first], rows),
                dtype=np.float64,
                comments=None,
                ndmin=2,
                max_rows=dim,
            )
            if a.shape != (dim, 2 * dim) or next(rows, None) is not None:
                return None
            return r, d, a.view(np.complex128)
    except ValueError:  # also UnicodeDecodeError and StateFileError
        return None


def _read_rows(path) -> tuple[int, int, np.ndarray]:
    """Parse the file row by row with ``float``: the reference route, and
    the one that reports what is wrong with a malformed file."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        raw = fh.readlines()
    for number, line in enumerate(raw, start=1):
        if not line.isascii():
            # surrogateescape decodes byte b as the code point 0xDC00 + b
            byte = next(ord(c) - 0xDC00 for c in line if not c.isascii())
            raise StateFileError(f"non-ASCII byte 0x{byte:02x}", number)
    lines = list(_data_lines(raw))
    if not lines:
        raise StateFileError("empty state file")
    r, d, dim = _parse_header(*lines[0])
    data = lines[1:]
    if len(data) != dim:
        raise StateFileError(
            f"expected {dim} matrix rows for r={r}, d={d}, found {len(data)}"
        )
    m = np.empty((dim, dim), dtype=np.complex128)
    for i, (number, line) in enumerate(data):
        tokens = line.split()
        if len(tokens) != 2 * dim:
            raise StateFileError(
                f"row {i + 1} needs {2 * dim} numbers, found {len(tokens)}", number
            )
        try:
            values = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise StateFileError(f"row {i + 1}: {exc}", number)
        m.view(np.float64)[i] = values
    return r, d, m


def read_state_file(path, validate: bool = True) -> DensityMatrix:
    """Read a state file, and by default validate the state it holds.

    The streamed parse gives the entries; where it cannot, the row loop
    does, or raises the StateFileError that names the fault.  One debug
    record per read gives the routes taken and the parse time.
    """
    start = time.perf_counter()
    parsed = _read_streamed(path)
    route = "streamed"
    if parsed is None:
        parsed = _read_rows(path)
        route = "row loop"
    rho = _adopt(*parsed)
    seconds = time.perf_counter() - start
    try:
        if validate:
            rho.validate_state()
    except StateValidationError as exc:
        raise StateValidationError(f"state file {path}: {exc}")
    finally:
        _log.debug(
            "read r=%d d=%d: %d rows in %.3f s, %s parse, %s positivity check",
            rho.r, rho.d, rho.dim, seconds, route, rho.__dict__.get("_positivity", "no"),
        )
    return rho
