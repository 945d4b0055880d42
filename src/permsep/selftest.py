"""Self-contained verification suite behind ``permsep selftest``.

Each check reproduces one quantitative anchor of the construction: coset
counts, group orders, the worked canonicalization example, the class
census, and the numerical bounds.  All randomness is seeded and the seed
is echoed in the result details.
"""

from __future__ import annotations

import collections
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._defaults import CHECK_NAMES, DEFAULT_SEED
from .perms import Permutation, compose, inverse, parse_permutation, _parity_kind
from .arrows import CanonicalKey, _flip_sets, _reduced_key, _rewrite, canonical_key, type_label
from .normgroup import CensusRow, census_by_type, census_records, enumerate_classes
from .normgroup import _parity_filter, group_elements, representative_permutation
from .states import (
    DensityMatrix,
    VERDICT_TOLERANCE,
    _check_seed,
    _pure_vector,
    _swap_pairing,
    apply_permutation,
    bell_pair_state,
    detector_state,
    evaluate_criteria,
    maximally_mixed_state,
    random_separable_state,
    random_state,
    swap_operator,
    trace_norm,
)

__all__ = ["CheckResult", "CHECK_NAMES", "run_checks", "DEFAULT_SEED"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _random_permutation(rng: np.random.Generator, degree: int) -> Permutation:
    return Permutation(tuple(int(x) + 1 for x in rng.permutation(degree)))


def _random_operator(rng: np.random.Generator, r: int, d: int) -> DensityMatrix:
    dim = d**r
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return DensityMatrix(r, d, g)


def _enumerated_census(r: int) -> list[CensusRow]:
    """``census_records(r)`` counted over ``enumerate_classes(r)``, each key
    with its own partner label: the route independent of the closed form."""
    keys = enumerate_classes(r)
    counts = collections.Counter((len(k.heads), k.arrow_count, k.partner_label) for k in keys)
    return [
        CensusRow(r, a, n - a, type_label(a, n - a), partner, count)
        for (n, a, partner), count in sorted(counts.items())
        if n  # not the trivial class
    ]


def _rewrite_key(images: tuple[int, ...]) -> CanonicalKey:
    """Key of the rewrite normal form: the route independent of the closed
    form in ``canonical_key``."""
    arrows = _rewrite(images)
    return _reduced_key(len(images) // 2, (h for _, h in arrows), (t for t, _ in arrows))


# --- the checks -----------------------------------------------------------------


def _check_coset_counts(seed: int) -> tuple[bool, str]:
    """Exhaustive canonicalization of S_4, S_6, S_8 yields 3 / 10 / 35 keys."""
    expected = {2: 3, 3: 10, 4: 35}
    start = time.perf_counter()
    counts = {}
    for r, want in expected.items():
        keys = {
            _rewrite_key(images)
            for images in itertools.permutations(range(1, 2 * r + 1))
        }
        counts[r] = len(keys)
    elapsed = time.perf_counter() - start
    ok = counts == expected and elapsed < 10.0
    return ok, f"distinct keys {counts} (want {expected}), {elapsed:.2f}s < 10s"


def _check_group_order(seed: int) -> tuple[bool, str]:
    """Parity filter and generator closure coincide with sizes 8 / 72 / 1152."""
    sizes = {}
    for r in (2, 3, 4):
        filtered = _parity_filter(r)
        closed = group_elements(r)
        if filtered != closed:
            return False, f"constructions disagree at r={r}"
        sizes[r] = len(closed)
    want = {2: 8, 3: 72, 4: 1152}
    return sizes == want, f"group sizes {sizes} (want {want})"


def _check_coset_soundness(seed: int) -> tuple[bool, str]:
    """Pairwise over S_4 and S_6: equal keys iff tau^-1 sigma parity test."""
    start = time.perf_counter()
    checked = 0
    for r in (2, 3):
        perms = list(itertools.permutations(range(1, 2 * r + 1)))
        keys = [_rewrite_key(p) for p in perms]
        inverses = [inverse(Permutation(p)).images for p in perms]
        for sigma, key_s in zip(perms, keys):
            image_of = (0, *sigma).__getitem__  # 1-based lookup
            for inv_tau, key_t in zip(inverses, keys):
                witness = tuple(map(image_of, inv_tau))  # tau^-1 then sigma
                if (key_s == key_t) != (_parity_kind(witness) is not None):
                    return False, (
                        f"r={r}: key test and parity test disagree for "
                        f"sigma={sigma}, tau^-1={inv_tau}"
                    )
                checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    return ok, f"{checked} ordered pairs agree, {elapsed:.2f}s < 30s"


def _check_worked_example(seed: int) -> tuple[bool, str]:
    """The degree-12 example canonicalizes to the key of (3,4)(1,8)(5,12)."""
    lhs = canonical_key(parse_permutation("(3,12,1,2,10,8)(4,5,6)", 12))
    rhs = canonical_key(parse_permutation("(3,4)(1,8)(5,12)", 12))
    return lhs == rhs, f"{lhs.render()} == {rhs.render()}"


def _check_census(seed: int) -> tuple[bool, str]:
    """Nontrivial totals 2 / 9 / 34 with the expected type breakdown, and
    the closed-form census equal to a count over the enumerated classes."""
    want = {
        2: {"QT": 1, "R": 1},
        3: {"QT": 3, "R": 6},
        4: {"QT": 4, "2QT": 3, "R": 12, "R+QT": 12, "2R": 3},
    }
    got = {r: census_by_type(r) for r in (2, 3, 4)}
    totals = {r: sum(v.values()) for r, v in got.items()}
    differ = [r for r in (2, 3, 4) if census_records(r) != _enumerated_census(r)]
    ok = got == want and totals == {2: 2, 3: 9, 4: 34} and not differ
    counted = f"differs at r={differ}" if differ else "equals"
    return ok, f"census {got}, totals {totals}; closed form {counted} the enumerated count"


def _check_norm_preservation(seed: int) -> tuple[bool, str]:
    """Every group element leaves the trace norm of 20 random operators fixed."""
    start = time.perf_counter()
    worst = 0.0
    for r in (2, 3):
        rng = np.random.default_rng(seed + r)
        operators = [_random_operator(rng, r, 2) for _ in range(20)]
        norms = [trace_norm(op) for op in operators]
        for t in sorted(group_elements(r), key=lambda p: p.images):
            for op, norm in zip(operators, norms):
                ratio = trace_norm(apply_permutation(op, t)) / norm
                worst = max(worst, abs(ratio - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 60.0
    return ok, (
        f"worst |ratio - 1| = {worst:.3e} < 1e-9 over 8+72 elements x 20 operators, "
        f"seed {seed}, {elapsed:.2f}s < 60s"
    )


def _check_separability_bound(seed: int) -> tuple[bool, str]:
    """100 seeded random separable states stay within every criterion."""
    worst = 0.0
    count = 0
    for i, (r, d) in enumerate(itertools.islice(
        itertools.cycle([(2, 2), (2, 3), (3, 2), (3, 3)]), 100
    )):
        rho = random_separable_state(r, d, terms=1 + i % 10, seed=seed + i)
        for key in enumerate_classes(r):
            if key.is_trivial:
                continue
            rep = representative_permutation(key)
            worst = max(worst, trace_norm(apply_permutation(rho, rep)))
        count += 1
    ok = worst <= 1.0 + 1e-9
    return ok, f"max class norm {worst:.12f} <= 1 + 1e-9 over {count} states, seed {seed}"


def _check_detectors(seed: int) -> tuple[bool, str]:
    """Each nontrivial class has a witness with norm 2^(arrows + loops)."""
    start = time.perf_counter()
    checked = {}
    worst = 0.0
    for r in (2, 3, 4):
        n = 0
        for key in enumerate_classes(r):
            if key.is_trivial:
                continue
            rho = detector_state(key, 2)
            rep = representative_permutation(key)
            norm = trace_norm(apply_permutation(rho, rep))
            target = 2.0 ** (key.arrow_count + key.loop_count)
            worst = max(worst, abs(norm - target))
            if not (norm > 1.0 and abs(norm - target) < 1e-9):
                return False, f"r={r} class {key.render()}: norm {norm}, want {target}"
            n += 1
        checked[r] = n
    elapsed = time.perf_counter() - start
    ok = checked == {2: 2, 3: 9, 4: 34} and elapsed < 10.0
    return ok, (
        f"classes {checked}, worst deviation {worst:.3e} < 1e-9, "
        f"{elapsed:.2f}s < 10s"
    )


def _check_structured_routes(seed: int) -> tuple[bool, str]:
    """evaluate_criteria's pure and real routes, and its subsystem-swap
    pairing, give the dense per-class norms."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    pure = DensityMatrix(3, 2, np.outer(v, v.conj()) / np.vdot(v, v).real)
    mixed = random_state(4, 2, seed=seed)
    # p GHZ + (1 - p) I / 8 under U x U x U: unchanged by every subsystem
    # swap up to rounding
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    ghz = np.kron(np.kron(u, u), u) @ np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2)
    p = rng.uniform(0.3, 0.7)
    symmetric = DensityMatrix(3, 2, p * np.outer(ghz, ghz.conj()) + (1 - p) * np.eye(8) / 8)
    # the conditions under which evaluate_criteria takes each route
    _, delta = _pure_vector(pure.entries)
    bound = np.sqrt(pure.dim) * delta
    if not bound < 1e-3 * VERDICT_TOLERANCE:
        return False, f"pure state's certificate {bound:.1e} does not admit the pure route"
    paired = [k for k in enumerate_classes(4) if k.arrow_count and k.transpose_partner == k]
    worst, orbits = 0.0, 0
    for rho in (pure, symmetric, mixed):
        m = rho.entries
        herm = DensityMatrix(rho.r, rho.d, (m + m.conj().T) / 2)
        if rho is symmetric:
            partners, note = _swap_pairing(herm, 1e-3 * VERDICT_TOLERANCE)
            if partners is None:
                return False, f"symmetric state's swaps are not certified: {note}"
            orbits = sum(partner is None for partner in partners)
        for rec in evaluate_criteria(rho).records:
            dense = trace_norm(apply_permutation(herm, rec.representative))
            worst = max(worst, abs(rec.norm - dense) / max(1.0, dense))
    ok = worst <= 1e-12 and len(paired) == 3 and orbits == 2
    return ok, (
        f"pure r=3 state (bound {bound:.1e}), symmetric r=3 state ({orbits} orbits) and "
        f"random r=4 state ({len(paired)} real-route classes): worst relative deviation "
        f"{worst:.1e} <= 1e-12, seed {seed}"
    )


def _check_bipartite_anchors(seed: int) -> tuple[bool, str]:
    """Bell pair: 2.0 under both criteria; I/4: 0.5 under R, 1.0 under QT."""
    bell = bell_pair_state(2, 2, 1, 2)
    mixed = maximally_mixed_state(2, 2)
    qt = parse_permutation("(1,2)", 4)
    reshuffle = parse_permutation("(2,3)", 4)
    values = {
        "bell/QT": trace_norm(apply_permutation(bell, qt)),
        "bell/R": trace_norm(apply_permutation(bell, reshuffle)),
        "mixed/R": trace_norm(apply_permutation(mixed, reshuffle)),
        "mixed/QT": trace_norm(apply_permutation(mixed, qt)),
    }
    want = {"bell/QT": 2.0, "bell/R": 2.0, "mixed/R": 0.5, "mixed/QT": 1.0}
    ok = all(abs(values[k] - want[k]) < 1e-9 for k in want)
    return ok, f"norms {values}"


def _check_structural(seed: int) -> tuple[bool, str]:
    """Flip involution, binomial identity, homomorphism, swap identities."""
    for r in range(1, 7):
        for k in range(r + 1):
            for heads in itertools.combinations(range(1, r + 1), k):
                for tails in itertools.combinations(range(1, r + 1), k):
                    partner = _flip_sets(r, heads, tails)
                    if partner == (heads, tails):
                        return False, f"flip fixes ({heads}, {tails}) at r={r}"
                    if _flip_sets(r, *partner) != (heads, tails):
                        return False, f"flip not involutive at r={r}"
    for r in range(1, 11):
        if sum(math.comb(r, k) ** 2 for k in range(r + 1)) != math.comb(2 * r, r):
            return False, f"binomial identity fails at r={r}"

    rng = np.random.default_rng(seed)
    worst_homo = 0.0
    for i in range(200):
        r, d = [(2, 2), (2, 3), (3, 2), (3, 3)][i % 4]
        rho = random_state(r, d, seed=seed + 1000 + i)
        s1 = _random_permutation(rng, 2 * r)
        s2 = _random_permutation(rng, 2 * r)
        lhs = apply_permutation(apply_permutation(rho, s1), s2).entries
        rhs = apply_permutation(rho, compose(s1, s2)).entries
        worst_homo = max(worst_homo, float(np.max(np.abs(lhs - rhs))))
    if worst_homo > 1e-12:
        return False, f"homomorphism deviation {worst_homo:.3e} > 1e-12"

    worst_swap = 0.0
    for r, d in [(2, 2), (2, 3), (3, 2)]:
        for k, l in itertools.combinations(range(1, r + 1), 2):
            op = _random_operator(rng, r, d)
            v = swap_operator(r, d, k, l)
            odd = parse_permutation(f"({2 * k - 1},{2 * l - 1})", 2 * r)
            even = parse_permutation(f"({2 * k},{2 * l})", 2 * r)
            left = np.max(np.abs(apply_permutation(op, odd).entries - v @ op.entries))
            right = np.max(np.abs(apply_permutation(op, even).entries - op.entries @ v))
            worst_swap = max(worst_swap, float(left), float(right))
    if worst_swap > 1e-12:
        return False, f"swap identity deviation {worst_swap:.3e} > 1e-12"
    return True, (
        f"flip fixed-point-free (r<=6), binomials (r<=10), homomorphism "
        f"{worst_homo:.1e} <= 1e-12, swap identities {worst_swap:.1e} <= 1e-12, "
        f"seed {seed}"
    )


_CHECKS: list[tuple[str, Callable[[int], tuple[bool, str]]]] = list(zip(
    CHECK_NAMES,
    (
        _check_coset_counts,
        _check_group_order,
        _check_coset_soundness,
        _check_worked_example,
        _check_census,
        _check_norm_preservation,
        _check_separability_bound,
        _check_detectors,
        _check_structured_routes,
        _check_bipartite_anchors,
        _check_structural,
    ),
    strict=True,
))


def run_checks(
    names: list[str] | None = None, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    # a bad seed would fail the seeded checks one by one, as if the library were broken
    _check_seed(seed)
    selected = names or CHECK_NAMES
    unknown = [n for n in selected if n not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; available: {CHECK_NAMES}")
    table = dict(_CHECKS)
    results = []
    for name in selected:
        start = time.perf_counter()
        try:
            passed, detail = table[name](seed)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(
            CheckResult(name, passed, detail, time.perf_counter() - start)
        )
    return results
