"""Seeded inputs for the permsep benchmark.

Run as its own process before anything is measured:

    python3 perfbench/gen.py --workload eval-many-small --seed 1 --out DIR [--chunks N]

It imports numpy and the benchmark's oracle only, never permsep, so the
program under test receives nothing but what is written here: state files
in the text format ``permsep eval`` reads, and permutation strings.  Next
to them it writes the answers the checks compare against (``manifest.json``,
exact matrices as ``.npy``, oracle keys as ``.npz``).  Equal seeds give
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import oracle  # noqa: E402

# canon-stream: subsystem counts of the permutation strings, cycled in order
CANON_RS = (5, 8, 12)
CHUNK_SIZE = 20_000


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _normalized(m: np.ndarray) -> np.ndarray:
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def generic_state(rng, r: int, d: int) -> np.ndarray:
    """G G^dagger / tr with G complex Gaussian: full rank, no symmetry."""
    dim = d**r
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return _normalized(g @ g.conj().T)


def separable_state(rng, r: int, d: int, terms: int = 8) -> np.ndarray:
    """Convex mixture of random pure product states."""
    m = np.zeros((d**r, d**r), dtype=np.complex128)
    for w in rng.dirichlet(np.ones(terms)):
        psi = np.ones(1, dtype=np.complex128)
        for _ in range(r):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psi = np.kron(psi, v / np.linalg.norm(v))
        m += w * np.outer(psi, psi.conj())
    return _normalized(m)


def noisy_ghz_state(rng, r: int, d: int) -> tuple[np.ndarray, float]:
    """p |GHZ><GHZ| + (1 - p) I / dim under U x ... x U: invariant under
    every permutation of the subsystems, dense in the computational basis."""
    dim = d**r
    p = float(rng.uniform(0.3, 0.7))
    psi = np.zeros(dim, dtype=np.complex128)
    repunit = sum(d**j for j in range(r))
    psi[[i * repunit for i in range(d)]] = 1 / math.sqrt(d)
    u = _unitary(rng, d)
    big = u
    for _ in range(r - 1):
        big = np.kron(big, u)
    psi = big @ psi
    return _normalized(p * np.outer(psi, psi.conj()) + (1 - p) * np.eye(dim) / dim), p


def detector_state(rng, d: int) -> np.ndarray:
    """Maximally entangled pair at r = 2 under a random U x V.  Every class
    at r = 2 has one arrow or one loop, so each class norm is d^1."""
    psi = np.zeros(d * d, dtype=np.complex128)
    psi[:: d + 1] = 1 / math.sqrt(d)
    psi = np.kron(_unitary(rng, d), _unitary(rng, d)) @ psi
    return _normalized(np.outer(psi, psi.conj()))


def write_state(path: str, r: int, d: int, m: np.ndarray) -> None:
    """Text state file; 17 significant digits round-trip every float exactly."""
    dim = d**r
    rows = np.empty((dim, 2 * dim))
    rows[:, 0::2] = m.real
    rows[:, 1::2] = m.imag
    fmt = " ".join(["%.17g"] * (2 * dim)) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# permsep benchmark input\n{r} {d}\n")
        for row in rows.tolist():
            fh.write(fmt % tuple(row))


# Each eval workload evaluates the same list of states in every round, in
# this order.  (name, r, d, kind)
# eval-many-small puts its one r=7 state in the middle, so that the r=6
# evaluations are spread over the whole round.  Its round takes about
# 14 s on a 2-vCPU host, so that a 20-second run makes two whole rounds.
_SMALL = [(f"s6-{i:02d}", 6, 2, "separable" if i % 6 == 5 else "generic") for i in range(12)]
EVAL_ROUNDS = {
    "eval-many-small": _SMALL[:6] + [("s7-generic", 7, 2, "generic")] + _SMALL[6:],
    "eval-few-large": [
        ("l2-generic", 2, 32, "generic"),
        ("l3-noisy-ghz", 3, 10, "noisy-ghz"),
        ("l2-detector", 2, 32, "detector"),
    ],
}
# classes checked against oracle.class_norm per generic or noisy-GHZ state
REFERENCE_SAMPLE = {"eval-many-small": 4, "eval-few-large": 1}


def gen_eval(workload: str, seed: int, out: str) -> dict:
    states = []
    warm = np.eye(4, dtype=np.complex128) / 4
    write_state(os.path.join(out, "warmup.state"), 2, 2, warm)
    for index, (name, r, d, kind) in enumerate(EVAL_ROUNDS[workload]):
        rng = np.random.default_rng([seed, index])
        spec = {"name": name, "r": r, "d": d, "kind": kind, "file": f"{name}.state"}
        if kind == "generic":
            m = generic_state(rng, r, d)
        elif kind == "separable":
            m = separable_state(rng, r, d)
        elif kind == "noisy-ghz":
            m, spec["p"] = noisy_ghz_state(rng, r, d)
            spec["symmetric"] = True
        else:
            m = detector_state(rng, d)
            spec["class_norms"] = [
                [list(h), list(t), float(d ** sum(oracle.counts((h, t))))]
                for h, t in sorted(oracle.all_keys(r) - {((), ())})
            ]
        if kind in ("generic", "noisy-ghz"):
            keys = sorted(oracle.all_keys(r) - {((), ())})
            pick = rng.choice(len(keys), size=REFERENCE_SAMPLE[workload], replace=False)
            spec["reference_keys"] = [[list(keys[i][0]), list(keys[i][1])] for i in sorted(pick)]
            np.save(os.path.join(out, f"{name}.npy"), m)
        spec["classes"] = math.comb(2 * r, r) // 2 - 1
        write_state(os.path.join(out, spec["file"]), r, d, m)
        states.append(spec)
    warmup = {"name": "warmup", "r": 2, "d": 2, "kind": "mixed", "file": "warmup.state"}
    return {"states": states, "warmup": warmup}


def _norm_preserving(rng, degree: int) -> list[int]:
    """Random element of the norm-preserving group, as images."""
    odd = rng.permutation(np.arange(1, degree + 1, 2))
    even = rng.permutation(np.arange(2, degree + 1, 2))
    images = [0] * degree
    images[0::2] = odd.tolist()
    images[1::2] = even.tolist()
    if rng.random() < 0.5:  # then the global transpose
        images = [p + 1 if p % 2 else p - 1 for p in images]
    return images


def gen_canon_chunk(seed: int, chunk: int, out: str) -> None:
    """CHUNK_SIZE lines "r<TAB>sigma<TAB>tau"; tau is "-" except on every
    fourth line, where it is either sigma times a random norm-preserving
    permutation or an unrelated random permutation."""
    rng = np.random.default_rng([seed, 1000 + chunk])
    count = -(-CHUNK_SIZE // len(CANON_RS))
    pools = {r: (np.argsort(rng.random((count, 2 * r)), axis=1) + 1).tolist() for r in CANON_RS}
    lines, heads, tails, equiv = [], [], [], []
    for j in range(CHUNK_SIZE):
        r = CANON_RS[j % len(CANON_RS)]
        sigma = pools[r][j // len(CANON_RS)]
        tau = "-"
        same = False
        if j % 4 == 1:
            if rng.random() < 0.5:
                t = _norm_preserving(rng, 2 * r)
                tau_images = [t[x - 1] for x in sigma]
            else:
                tau_images = (rng.permutation(2 * r) + 1).tolist()
            tau = oracle.cycle_string(tau_images)
            same = oracle.key_of_images(tau_images) == oracle.key_of_images(sigma)
        h, t = oracle.key_of_images(sigma)
        lines.append(f"{r}\t{oracle.cycle_string(sigma)}\t{tau}\n")
        heads.append(oracle.mask(h))
        tails.append(oracle.mask(t))
        equiv.append(same)
    with open(os.path.join(out, f"chunk-{chunk:03d}.txt"), "w", encoding="ascii") as fh:
        fh.writelines(lines)
    np.savez(
        os.path.join(out, f"chunk-{chunk:03d}.npz"),
        heads=np.array(heads, dtype=np.int64),
        tails=np.array(tails, dtype=np.int64),
        equivalent=np.array(equiv, dtype=bool),
    )


def gen_canon(seed: int, out: str, chunks: int) -> dict:
    for chunk in range(chunks):
        gen_canon_chunk(seed, chunk, out)
    warm = oracle.key_of_images([1, 3, 2, 4])
    return {
        "chunks": chunks,
        "chunk_size": CHUNK_SIZE,
        "census_r": 8,
        "warmup": {"r": 2, "perm": "(2,3)", "key": [list(warm[0]), list(warm[1])]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*EVAL_ROUNDS, "canon-stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--chunks", type=int, default=1, help="canon-stream chunks")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    if args.workload == "canon-stream":
        manifest = gen_canon(args.seed, args.out, args.chunks)
    else:
        manifest = gen_eval(args.workload, args.seed, args.out)
    manifest.update(workload=args.workload, seed=args.seed)
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
