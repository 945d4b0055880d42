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

import logging
from dataclasses import dataclass

import numpy as np

from .perms import Permutation, inverse
from .normgroup import (
    MAX_CLASS_R,
    ClassDescriptor,
    enumerate_classes,
    representative_permutation,
)
from .arrows import CanonicalKey, _flip_sets, _transpose_key

__all__ = [
    "MAX_DIM",
    "VERDICT_TOLERANCE",
    "DensityMatrix",
    "StateValidationError",
    "StateFileError",
    "apply_permutation",
    "trace_norm",
    "swap_operator",
    "make_state",
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


class StateValidationError(ValueError):
    """A matrix violates the state invariants; lists every violation."""


class StateFileError(ValueError):
    """Malformed state file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _check_dims(r: int, d: int) -> int:
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


@dataclass(frozen=True)
class DensityMatrix:
    """A d^r x d^r complex operator with subsystem metadata.

    States satisfy the invariants checked by ``validate_state``; results
    of index permutations reuse the same wrapper without them.
    """

    r: int
    d: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        dim = _check_dims(self.r, self.d)
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.shape != (dim, dim):
            raise ValueError(
                f"entries must be {dim}x{dim} for r={self.r}, d={self.d}; "
                f"got {entries.shape}"
            )
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

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
        herm = float(np.max(np.abs(m - m.conj().T), initial=0.0))
        if herm > HERMITICITY_TOL:
            out.append(f"not Hermitian: max deviation {herm:.3e} > {HERMITICITY_TOL}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            out.append(f"trace is {tr:.12g}, not 1 within {TRACE_TOL}")
        if not out:
            lo = float(np.min(np.linalg.eigvalsh(m)))
            if lo < EIGENVALUE_FLOOR:
                out.append(f"minimum eigenvalue {lo:.3e} < {EIGENVALUE_FLOOR}")
        return out

    def validate_state(self) -> "DensityMatrix":
        # the entries are a private read-only copy, so a passed check stays
        # passed: reading a file and then evaluating it validates once
        if self.__dict__.get("_valid"):
            return self
        violations = self.state_violations()
        if violations:
            raise StateValidationError("; ".join(violations))
        object.__setattr__(self, "_valid", True)
        return self


def _axis_of_point(point: int, r: int) -> int:
    # tensor layout: axes 0..r-1 are row subscripts i1, i3, ..., axes r..2r-1
    # are column subscripts i2, i4, ...
    if point % 2 == 1:
        return (point - 1) // 2
    return r + point // 2 - 1


def _point_of_axis(axis: int, r: int) -> int:
    return 2 * axis + 1 if axis < r else 2 * (axis - r) + 2


def apply_permutation(rho: DensityMatrix, sigma: Permutation) -> DensityMatrix:
    """Relabel the 2r matrix subscripts of rho by sigma.

    The output entry at subscripts (i1, ..., i_{2r}) equals the input
    entry at (i_{s(1)}, ..., i_{s(2r)}).  The map is linear, invertible,
    and a pure relabeling, so it acts as a tensor transpose.
    """
    r, d = rho.r, rho.d
    if sigma.degree != 2 * r:
        raise ValueError(f"permutation degree {sigma.degree} != 2r = {2 * r}")
    inv = inverse(sigma).images
    axes = [
        _axis_of_point(inv[_point_of_axis(m, r) - 1], r) for m in range(2 * r)
    ]
    tensor = rho.entries.reshape((d,) * (2 * r))
    out = tensor.transpose(axes).reshape(rho.dim, rho.dim)
    return DensityMatrix(r, d, np.ascontiguousarray(out))


def trace_norm(operator: DensityMatrix | np.ndarray) -> float:
    """Sum of singular values of a square matrix."""
    m = operator.entries if isinstance(operator, DensityMatrix) else np.asarray(operator)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"trace norm needs a square matrix, got shape {m.shape}")
    return float(np.linalg.svd(m, compute_uv=False).sum())


def swap_operator(r: int, d: int, k: int, l: int) -> np.ndarray:
    """Unitary permutation matrix exchanging subsystems k and l."""
    dim = _check_dims(r, d)
    if not (1 <= k < l <= r):
        raise ValueError(f"need 1 <= k < l <= r, got k={k}, l={l}, r={r}")
    swapped = (
        np.arange(dim).reshape((d,) * r).swapaxes(k - 1, l - 1).reshape(dim)
    )
    v = np.zeros((dim, dim), dtype=np.complex128)
    v[np.arange(dim), swapped] = 1.0
    return v


# --- state factory ------------------------------------------------------------


def _reorder_subsystems(
    matrix: np.ndarray, order: list[int], r: int, d: int
) -> np.ndarray:
    """Permute the subsystem slots of a matrix whose rows and columns are
    multi-indexed in the given subsystem order into ascending order."""
    axes = [order.index(j + 1) for j in range(r)]
    tensor = matrix.reshape((d,) * (2 * r))
    out = tensor.transpose(axes + [r + a for a in axes])
    return out.reshape(d**r, d**r)


def _product_of_factors(
    r: int, d: int, factors: list[tuple[tuple[int, ...], np.ndarray]]
) -> np.ndarray:
    """Tensor product of operators sitting on disjoint subsystem groups."""
    order = [k for subsystems, _ in factors for k in subsystems]
    if sorted(order) != list(range(1, r + 1)):
        raise ValueError(f"factors must cover each subsystem once, got {order}")
    matrix = factors[0][1]
    for _, block in factors[1:]:
        matrix = np.kron(matrix, block)
    return _reorder_subsystems(matrix, order, r, d)


def _max_entangled_pair(d: int) -> np.ndarray:
    psi = np.zeros(d * d, dtype=np.complex128)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return np.outer(psi, psi.conj())


def basis_product_state(r: int, d: int, levels: tuple[int, ...] | None = None) -> DensityMatrix:
    """|levels><levels| in the computational basis (default all zeros)."""
    dim = _check_dims(r, d)
    if levels is None:
        levels = (0,) * r
    if len(levels) != r or not all(0 <= x < d for x in levels):
        raise ValueError(f"levels must be r={r} integers in 0..{d - 1}, got {levels}")
    index = 0
    for x in levels:
        index = index * d + x
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[index, index] = 1.0
    return DensityMatrix(r, d, m).validate_state()


def bell_pair_state(r: int, d: int, k: int, l: int) -> DensityMatrix:
    """Maximally entangled pair on subsystems (k, l), maximally mixed rest."""
    _check_dims(r, d)
    if not (1 <= k < l <= r):
        raise ValueError(f"need 1 <= k < l <= r, got k={k}, l={l}, r={r}")
    factors: list[tuple[tuple[int, ...], np.ndarray]] = [((k, l), _max_entangled_pair(d))]
    eye = np.eye(d, dtype=np.complex128) / d
    factors.extend(((j,), eye) for j in range(1, r + 1) if j not in (k, l))
    return DensityMatrix(r, d, _product_of_factors(r, d, factors)).validate_state()


def ghz_state(r: int, d: int) -> DensityMatrix:
    """Pure superposition of |i i ... i> over all levels i."""
    dim = _check_dims(r, d)
    psi = np.zeros(dim, dtype=np.complex128)
    repunit = sum(d**j for j in range(r))  # linear index of |i ... i> is i * repunit
    for i in range(d):
        psi[i * repunit] = 1.0 / np.sqrt(d)
    return DensityMatrix(r, d, np.outer(psi, psi.conj())).validate_state()


def maximally_mixed_state(r: int, d: int) -> DensityMatrix:
    dim = _check_dims(r, d)
    return DensityMatrix(r, d, np.eye(dim, dtype=np.complex128) / dim)


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
    return DensityMatrix(r, d, m).validate_state()


def random_state(r: int, d: int, seed: int = 0) -> DensityMatrix:
    """Random density matrix G G^dagger / tr, G complex Gaussian."""
    dim = _check_dims(r, d)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(r, d, m / np.trace(m)).validate_state()


STATE_KINDS = {
    "basis_product": basis_product_state,
    "bell_pair_on": bell_pair_state,
    "ghz": ghz_state,
    "maximally_mixed": maximally_mixed_state,
    "random_separable": random_separable_state,
    "random_state": random_state,
}


def make_state(kind: str, r: int, d: int, **params) -> DensityMatrix:
    """Dispatch to the state factories by kind name."""
    if kind not in STATE_KINDS:
        kinds = tuple(STATE_KINDS)
        raise ValueError(f"unknown state kind {kind!r}; choose from {kinds}")
    return STATE_KINDS[kind](r, d, **params)


def detector_state(descriptor: ClassDescriptor, d: int) -> DensityMatrix:
    """A state whose criterion value for this class is d^(arrows + loops).

    Places a maximally entangled pair across each arrow and across each
    (loop, free subsystem) pairing, maximally mixed elsewhere.  Reduced
    representatives always have at least as many free subsystems as
    loops; if a raw key does not, its flip does, and both sides of a flip
    give equal criterion values.
    """
    if descriptor.trivial:
        raise ValueError("the trivial class detects nothing")
    if d < 2:
        raise ValueError(f"local dimension must be at least 2, got {d}")
    key = descriptor.key
    r = key.r
    _check_dims(r, d)
    heads, tails = key.heads, key.tails
    if key.loop_count > r - len(set(heads) | set(tails)):
        heads, tails = _flip_sets(r, heads, tails)
    loops = sorted(set(heads) & set(tails))
    free = sorted(set(range(1, r + 1)) - set(heads) - set(tails))
    arrow_tails = [t for t in tails if t not in loops]
    arrow_heads = [h for h in heads if h not in loops]
    pair = _max_entangled_pair(d)
    factors: list[tuple[tuple[int, ...], np.ndarray]] = []
    used: set[int] = set()
    for t, h in zip(arrow_tails, arrow_heads):
        factors.append(((t, h), pair))
        used |= {t, h}
    for loop, partner in zip(loops, free):
        factors.append(((loop, partner), pair))
        used |= {loop, partner}
    eye = np.eye(d, dtype=np.complex128) / d
    factors.extend(((j,), eye) for j in range(1, r + 1) if j not in used)
    return DensityMatrix(r, d, _product_of_factors(r, d, factors)).validate_state()


# --- criterion evaluation -------------------------------------------------------


@dataclass(frozen=True)
class ClassNorm:
    descriptor: ClassDescriptor
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
    ``trace_norm``.
    """
    rho.validate_state()
    r, m = rho.r, rho.entries
    herm = rho
    if not np.array_equal(m, m.conj().T):
        herm = DensityMatrix(r, rho.d, (m + m.conj().T) / 2)
    norm_of: dict[CanonicalKey, float] = {}
    svds = eighs = 0
    records = []
    for descriptor in enumerate_classes(r):
        if descriptor.trivial:
            continue
        key = descriptor.key
        rep = representative_permutation(key)
        norm = norm_of.get(_transpose_key(key))
        if norm is None:
            if key.arrow_count == 0:
                eigenvalues = np.linalg.eigvalsh(apply_permutation(herm, rep).entries)
                norm = float(np.abs(eigenvalues).sum())
                eighs += 1
            else:
                norm = trace_norm(apply_permutation(herm, rep))
                svds += 1
        norm_of[key] = norm
        records.append(ClassNorm(descriptor, rep, norm))
    max_norm = max((rec.norm for rec in records), default=0.0)
    verdict = "entangled" if max_norm > 1.0 + tolerance else "undetected"
    _log.debug(
        "evaluate r=%d d=%d: %d classes, %d orbits, %d svd, %d eigvalsh",
        r, rho.d, len(records), svds + eighs, svds, eighs,
    )
    return CriterionReport(
        r=r,
        d=rho.d,
        records=tuple(records),
        max_norm=max_norm,
        verdict=verdict,
        tolerance=tolerance,
    )


# --- state files -----------------------------------------------------------------
#
# Text format: first data line "r d"; then d^r lines, each holding
# 2 * d^r whitespace-separated floats, the real and imaginary part of one
# matrix row in alternation.  Lines starting with '#' are comments.


def write_state_file(path, rho: DensityMatrix) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{rho.r} {rho.d}\n")
        for row in rho.entries:
            fh.write(
                " ".join(f"{z.real:.16e} {z.imag:.16e}" for z in row) + "\n"
            )


def read_state_file(path, validate: bool = True) -> DensityMatrix:
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.readlines()
    lines = [
        (number, line.strip())
        for number, line in enumerate(raw, start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise StateFileError("empty state file")
    number, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise StateFileError(f"header must be 'r d', got {header!r}", number)
    try:
        r, d = int(parts[0]), int(parts[1])
    except ValueError:
        raise StateFileError(f"header must be two integers, got {header!r}", number)
    if r > MAX_CLASS_R:  # eval has no classes there; fail before reading the rows
        raise StateFileError(f"subsystem count {r} exceeds guard {MAX_CLASS_R}", number)
    try:
        dim = _check_dims(r, d)
    except ValueError as exc:
        raise StateFileError(str(exc), number)
    data = lines[1:]
    if len(data) != dim:
        raise StateFileError(
            f"expected {dim} matrix rows for r={r}, d={d}, found {len(data)}"
        )
    m = np.zeros((dim, dim), dtype=np.complex128)
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
        m[i] = np.array(values[0::2]) + 1j * np.array(values[1::2])
    rho = DensityMatrix(r, d, m)
    if validate:
        try:
            rho.validate_state()
        except StateValidationError as exc:
            raise StateValidationError(f"state file {path}: {exc}")
    return rho
