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
import time
from dataclasses import dataclass

import numpy as np

from .perms import Permutation, _check_integer
from .normgroup import MAX_CLASS_R, enumerate_classes, representative_permutation
from .arrows import CanonicalKey, _arrows_of_sets, _transpose_key
from ._lapack import _blas_threads_for, _eigenvalues, _factor_in_place, _share
from ._lapack import _singular_values, _worker_count

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
VERDICT_TOLERANCE = 1e-9

# bytes of the block of rows that each blockwise O(dim^2) pass reads at a time
_BLOCK_BYTES = 1 << 16


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
    rows = max(1, _BLOCK_BYTES // (16 * len(m)))
    return max(
        float(np.max(np.abs(m[i : i + rows] - m[:, i : i + rows].conj().T)))
        for i in range(0, len(m), rows)
    )


def _minimum_eigenvalue(m: np.ndarray) -> tuple[float | None, str]:
    """The minimum eigenvalue of the Hermitian matrix m, or None where a
    Cholesky factorization certifies that it is above EIGENVALUE_FLOOR;
    and the route taken, "cholesky" or "eigvalsh".

    If m + (|floor| / 2) I has a Cholesky factor, the eigenvalues of m are
    above floor / 2 less a backward error of about dim * eps * |m|, far
    above the floor, so no eigendecomposition is needed.  Both routes read
    the lower triangle.
    """
    shifted = m.copy()
    shifted.flat[:: len(m) + 1] -= EIGENVALUE_FLOOR / 2
    if not _factor_in_place(shifted):
        return float(np.min(np.linalg.eigvalsh(m))), "eigvalsh"
    return None, "cholesky"


def _check_dims(r: int, d: int) -> int:
    _check_integer("subsystem count", r)
    _check_integer("local dimension", d)
    if r < 1:
        raise ValueError(f"subsystem count must be positive, got {r}")
    if d < 1:
        raise ValueError(f"local dimension must be positive, got {d}")
    if d > 1 and r > MAX_DIM.bit_length():  # then d**r > MAX_DIM: skip the power
        raise ValueError(f"total dimension {d}^{r} exceeds guard {MAX_DIM}")
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
        return self.d**self.r

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
    """Sum of singular values of a square matrix."""
    m = operator.entries if isinstance(operator, DensityMatrix) else np.asarray(operator)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"trace norm needs a square matrix, got shape {m.shape}")
    return float(_singular_values(m).sum())


def _check_pair(r: int, k: int, l: int) -> None:
    _check_integer("k", k)
    _check_integer("l", l)
    if not (1 <= k < l <= r):
        raise ValueError(f"need 1 <= k < l <= r, got k={k}, l={l}, r={r}")


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
        raise ValueError(f"levels must be r={r} integers in 0..{d - 1}, got {levels}")
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


def random_separable_state(r: int, d: int, terms: int = 10, seed: int = 0) -> DensityMatrix:
    """Convex mixture of ``terms`` random pure product states.

    Deterministic per seed; the weights and the local vectors both come
    from the seeded generator.
    """
    dim = _check_dims(r, d)
    if terms < 1:
        raise ValueError(f"need at least one product term, got {terms}")
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
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
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
    if d < 2:
        raise ValueError(f"local dimension must be at least 2, got {d}")
    r = key.r
    _check_dims(r, d)
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
# The pure route is taken only when its certificate sqrt(dim) * delta is
# below this share of the verdict tolerance, the tolerance capped at
# VERDICT_TOLERANCE so that a loose verdict margin does not loosen the norms.
_PURE_BOUND_SHARE = 1e-3
# tr(rho^2) of a state that the certificate accepts is 1 within about
# 2 * TRACE_TOL; a state below this screen is mixed and skips the certificate
_PURITY_SCREEN = 1 - 1e-6


def _pure_vector(m: np.ndarray) -> tuple[np.ndarray | None, float]:
    """(psi, ||m - psi psi^dagger||_F) for the Hermitian m, where psi is
    m's column j over sqrt(m[j, j]) at its largest diagonal entry; or
    (None, inf) when m's purity tr(m^2) shows that it is mixed.

    Then psi psi^dagger and m share column j.  The distance is summed a
    block of rows at a time, so no dim x dim temporary is held.
    """
    if np.vdot(m, m).real < _PURITY_SCREEN:
        return None, np.inf
    j = int(np.argmax(m.diagonal().real))
    psi = m[:, j] / np.sqrt(m[j, j].real)
    bra = psi.conj()
    rows = max(1, _BLOCK_BYTES // (16 * len(m)))
    square = 0.0
    for i in range(0, len(m), rows):
        block = np.outer(psi[i : i + rows], bra)
        np.subtract(m[i : i + rows], block, out=block)
        square += np.vdot(block, block).real
    return psi, float(np.sqrt(square))


def _factored_norms(psi: np.ndarray, r: int, d: int) -> tuple:
    """orbit(key, rep) -> (norm, "pure") for the class norms of psi psi^dagger,
    and the Schmidt sums it fills, by row subsystems; a plain dict, so that
    orbit runs on one thread.

    Under sigma, the psi subscript of subsystem k lands on an output row
    when sigma(2k - 1) is odd, and its conjugate's when sigma(2k) is.  With
    A and B those two sets of subsystems, the permuted matrix is
    Psi_A (x) conj(Psi_B) up to row and column order, where Psi_X is psi
    with the subsystems in X as its row index.  So the norm is S(A) S(B),
    with S(X) the trace norm of Psi_X.  S(X) = S(X^c), and S of the empty
    set is the vector norm of psi, so at most 2^(r-1) - 1 SVDs are needed.
    """
    tensor = psi.reshape((d,) * r)
    everyone = frozenset(range(r))
    sums: dict[frozenset[int], float] = {}

    def schmidt(rows: frozenset[int]) -> float:
        rest = everyone - rows
        # the shorter side is the row index, and of two equal sides the one
        # with subsystem 0, so that X and X^c share one entry
        if (len(rows), 0 in rest) > (len(rest), 0 in rows):
            rows, rest = rest, rows
        if rows not in sums:
            if not rows:
                sums[rows] = float(np.linalg.norm(psi))
            else:
                m = tensor.transpose(sorted(rows) + sorted(rest)).reshape(d ** len(rows), -1)
                # trace_norm takes square matrices; zero rows add only zero singular values
                square = np.zeros((m.shape[1], m.shape[1]), dtype=np.complex128)
                square[: len(m)] = m
                sums[rows] = trace_norm(square)
        return sums[rows]

    def orbit(key: CanonicalKey, rep: Permutation) -> tuple[float, str]:
        images = rep.images
        kets = frozenset(k for k in range(r) if images[2 * k] % 2)
        bras = frozenset(k for k in range(r) if images[2 * k + 1] % 2)
        return schmidt(kets) * schmidt(bras), "pure"

    return orbit, sums


@functools.cache
def _conjugating_subsystems(images: tuple[int, ...]) -> tuple[int, ...] | None:
    """The subsystem permutation pi, as images of 1..r, that conjugates
    every Hermitian h permuted by sigma, or None when there is none.

    Here pi acts on the row and on the column subscripts alike: it sends
    2k - 1 to 2 pi(k) - 1 and 2k to 2 pi(k).  conj(h) is h permuted by the
    global transpose t, and permuting by a and then by b is permuting by
    b a, so the one candidate is sigma t sigma^-1.  It is an involution,
    so pi is one too.  It exists exactly for the self-paired arrow classes'
    representatives, and only at even r.
    """
    inverse = [0] * (len(images) + 1)
    for point, image in enumerate(images, start=1):
        inverse[image] = point
    # (p - 1) ^ 1 is the 0-based index of t(p)
    moved = [images[(inverse[q] - 1) ^ 1] for q in range(1, len(images) + 1)]
    pi = []
    for row, column in zip(moved[::2], moved[1::2]):
        if row % 2 == 0 or column != row + 1:
            return None
        pi.append((row + 1) // 2)
    return tuple(pi)


@functools.cache
def _real_layout(pi: tuple[int, ...], d: int) -> tuple:
    """The basis change W of the subsystem involution pi, and the blocks in
    which ``_real_form`` reads a matrix's rows.

    pi permutes the row basis by an involution s.  W keeps each fixed point
    e_f of s, and turns each pair x < s(x) = y into (e_x + e_y) / sqrt(2)
    and i (e_x - e_y) / sqrt(2); then W^dagger a W is real whenever
    a[s][:, s] == conj(a).  Returns the fixed points, the pairs' x and y,
    and the sources (the fixed points and the x) in blocks of consecutive
    sources, each block's fixed points first, with their count.
    """
    dim = d ** len(pi)
    index = np.arange(dim)
    s = index.reshape((d,) * len(pi)).transpose([k - 1 for k in pi]).reshape(dim)
    firsts = np.flatnonzero(index < s)
    sources = np.flatnonzero(index <= s)
    rows = max(1, _BLOCK_BYTES // (16 * dim))
    blocks = []
    for t in range(0, len(sources), rows):
        block = sources[t : t + rows]
        kept = s[block] == block
        blocks.append((np.concatenate([block[kept], block[~kept]]), int(kept.sum())))
    return np.flatnonzero(index == s), firsts, s[firsts], tuple(blocks)


def _real_form(a: np.ndarray, layout: tuple) -> np.ndarray:
    """W^dagger a W as a real dim x dim matrix, written over a's own buffer.

    a must be writable, C-contiguous and read by no one else afterwards, and
    a[s][:, s] == conj(a) must hold, for the layout's s and W.  With c = a W,
    the output rows are Re c[f] for a fixed point f, and sqrt(2) Re c[x] and
    sqrt(2) Im c[x] for a pair x < y, because c[y] = conj(c[x]); so only
    the sources' rows of a are read.  Row and column order leave the
    singular values alone, so each block's output rows follow the block's
    rows.  Blocks are read whole, in increasing order, before they are
    written.  The t-th source is row t or later, and the at most 2t output
    rows before it fill at most t complex rows, so no row is overwritten
    before it is read.
    """
    fixed, firsts, seconds, blocks = layout
    dim, nf, nx = len(a), len(fixed), len(firsts)
    out = a.view(np.float64).reshape(-1)[: dim * dim].reshape(dim, dim)
    columns = (slice(0, nf), slice(nf, nf + nx), slice(nf + nx, dim))
    root2, top = np.sqrt(2.0), 0
    for rows, nkept in blocks:
        v = a[rows]
        kept, x, y = v[:, fixed], v[:, firsts], v[:, seconds]
        plus, minus = x + y, x - y
        npair = len(rows) - nkept
        f, p = slice(None, nkept), slice(nkept, None)
        # c = [kept, plus / sqrt(2), i minus / sqrt(2)]
        for start, count, pieces in (
            (top, nkept, (kept[f].real, plus[f].real / root2, minus[f].imag / -root2)),
            (top + nkept, npair, (kept[p].real * root2, plus[p].real, -minus[p].imag)),
            (top + nkept + npair, npair, (kept[p].imag * root2, plus[p].imag, minus[p].real)),
        ):
            for cols, piece in zip(columns, pieces):
                out[start : start + count, cols] = piece
        top += nkept + 2 * npair
    return out


def _orbit_norm(herm: DensityMatrix, key: CanonicalKey, rep: Permutation) -> tuple[float, str]:
    """The norm of the class of rep on the Hermitian herm, and the
    decomposition it took: "eigvalsh", "real svd" or "svd"."""
    permuted = apply_permutation(herm, rep)
    if key.arrow_count == 0:
        return float(np.abs(_eigenvalues(permuted.entries)).sum()), "eigvalsh"
    a, pi = permuted.entries, _conjugating_subsystems(rep.images)
    if pi is not None and not np.may_share_memory(a, herm.entries):
        # a is this call's own array, so its buffer takes the real form
        a.setflags(write=True)
        return trace_norm(_real_form(a, _real_layout(pi, herm.d))), "real svd"
    return trace_norm(permuted), "svd"


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
    Hermitian, and take the sum of absolute eigenvalues; the others take
    ``trace_norm``.  The classes, representatives and pairs of each r are
    computed once per process.  A negative or NaN tolerance raises
    ValueError.

    Two routes replace that dense one where the state allows it.  A pure
    state's norms factor into Schmidt sums of its vector (``_factored_norms``),
    which are used only when the certificate sqrt(dim) * ||rho - psi psi^dagger||_F,
    a bound on every norm's error, is below 1e-3 * min(tolerance,
    VERDICT_TOLERANCE): a tolerance of 0 always takes the dense route.  A
    self-paired arrow class's matrix is unitarily similar to a real one
    (``_real_form``), whose SVD is cheaper.

    Up to dim 361, the decompositions run on one thread of numpy's bundled
    OpenBLAS, which is faster there than several.  That thread count is a
    process-wide setting: it is changed for the duration of the call and
    then restored, so another thread that runs BLAS meanwhile runs it on one
    thread, and one that sets the count meanwhile may race with the restore.

    From dim 32 to 128, the orbits of a state off the pure route are then
    shared among min(2, usable CPUs, orbits // 2) threads, the caller one of
    them, which call LAPACK without holding the GIL; ``permsep._lapack``
    holds that policy and its measurements.  Each norm is numpy's bit for
    bit and is stored by its class's index, so the report does not depend
    on which thread finishes first, and an error in any thread is raised
    here once all have stopped.  ``apply_permutation`` and ``trace_norm``
    are looked up as module globals on each call, so a function put in
    their place is called from several threads at once and must be
    thread-safe.
    """
    _valid_tolerance(tolerance)
    r, m = rho.r, rho.entries
    plan = _plan(r)  # enumerate_classes' guard on r fails before validation
    rho.validate_state()
    herm = rho
    if not np.array_equal(m, m.conj().T):
        herm = _adopt(r, rho.d, (m + m.conj().T) / 2)
    firsts = [i for i, (_, _, partner) in enumerate(plan) if partner is None]
    workers, sums = 1, None
    with _blas_threads_for(rho.dim) as one_thread:
        limit = _PURE_BOUND_SHARE * min(tolerance, VERDICT_TOLERANCE)
        psi, delta = _pure_vector(herm.entries)
        bound = np.sqrt(rho.dim) * delta
        if psi is not None and bound < limit:
            orbit, sums = _factored_norms(psi, r, rho.d)
            route = f"bound {bound:.1e} < {limit:.0e}"
        else:
            orbit = functools.partial(_orbit_norm, herm)
            route = "mixed" if psi is None else f"bound {bound:.1e} >= {limit:.0e}"
            if one_thread:
                workers = _worker_count(rho.dim, len(firsts))
        # (norm, route) by plan index, whichever worker finishes first
        done: list[tuple[float, str] | None] = [None] * len(plan)

        def decompose(i: int) -> None:
            done[i] = orbit(*plan[i][:2])

        _share(firsts, decompose, workers)
    norms = [done[i if partner is None else partner][0] for i, (_, _, partner) in enumerate(plan)]
    routes = [done[i][1] for i in firsts]
    if sums is not None:
        route += f", {sum(1 for rows in sums if rows)} schmidt svd"
    records = tuple(
        ClassNorm(key, rep, norm) for (key, rep, _), norm in zip(plan, norms)
    )
    max_norm = max(norms, default=0.0)
    verdict = "entangled" if max_norm > 1.0 + tolerance else "undetected"
    _log.debug(
        "evaluate r=%d d=%d: %d classes, %d orbits, %d svd, %d eigvalsh, "
        "%d real svd, %d pure (%s), %s, %d worker%s",
        r, rho.d, len(records), len(routes),
        *map(routes.count, ("svd", "eigvalsh", "real svd", "pure")),
        route, "1 blas thread" if one_thread else "blas threads unchanged",
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
