"""Independent answers for checking the program's outputs.

Nothing here imports permsep.  Coset keys come from the parity profile of a
permutation (heads = {l : sigma(2l-1) even}, tails = {k : sigma(2k) odd},
then flip reduction), not from the rewrite system; class norms come from an
index relabeling written with digit arithmetic, not from
``apply_permutation``.  The ``check_*`` functions take the text a command
printed and return a list of problems, empty when the output is right.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

KEY_RE = r"H=\{[\d,]*\} T=\{[\d,]*\}"
_EVAL_ROW = re.compile(rf"^(\S+)\s+({KEY_RE})\s+(\S+)$")
_LIST_ROW = re.compile(rf"^\s*(\d+)\s+(\d+)\s+(\S+)\s+({KEY_RE})\s+(\S+)$")
_COSET_ROW = re.compile(rf"^({KEY_RE})\s+(\S+)\s+(\S+)$")
_CENSUS_ROW = re.compile(r"^(\S+)\s+(\S+)\s+(\d+)$")
_SELFTEST_ROW = re.compile(r"^\[(PASS|FAIL)\] (\S+) \(")


# --- keys -----------------------------------------------------------------------


def flip_reduce(r: int, heads, tails) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The smaller-ranked of a (heads, tails) pair and its flip partner.

    Flipping keeps arrows reversed, drops loops and loops every free
    subsystem; rank is (#heads, tails, heads).
    """
    hs, ts = set(heads), set(tails)
    loops = hs & ts
    free = set(range(1, r + 1)) - hs - ts
    mine = (tuple(sorted(hs)), tuple(sorted(ts)))
    partner = (tuple(sorted((ts - loops) | free)), tuple(sorted((hs - loops) | free)))

    def rank(pair):
        return (len(pair[0]), pair[1], pair[0])

    return partner if rank(partner) < rank(mine) else mine


def key_of_images(images) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced coset key of a permutation given by its 1-based images."""
    r = len(images) // 2
    heads = [l for l in range(1, r + 1) if images[2 * l - 2] % 2 == 0]
    tails = [k for k in range(1, r + 1) if images[2 * k - 1] % 2 == 1]
    return flip_reduce(r, heads, tails)


def mask(points) -> int:
    return sum(1 << (p - 1) for p in points)


def all_keys(r: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every reduced key at r, the trivial one (empty sets) included."""
    subsystems = range(1, r + 1)
    keys = set()
    for k in range(r + 1):
        for heads in itertools.combinations(subsystems, k):
            for tails in itertools.combinations(subsystems, k):
                keys.add(flip_reduce(r, heads, tails))
    if len(keys) != math.comb(2 * r, r) // 2:
        raise AssertionError(f"oracle found {len(keys)} keys at r={r}")
    return keys


def counts(key) -> tuple[int, int]:
    """(arrows, loops) of a reduced key."""
    heads, tails = key
    loops = len(set(heads) & set(tails))
    return len(heads) - loops, loops


def label(arrows: int, loops: int) -> str:
    if arrows == 0 and loops == 0:
        return "trivial"
    parts = []
    if arrows:
        parts.append("R" if arrows == 1 else f"{arrows}R")
    if loops:
        parts.append("QT" if loops == 1 else f"{loops}QT")
    return "+".join(parts)


def render(key) -> str:
    heads, tails = key
    return "H={" + ",".join(map(str, heads)) + "} T={" + ",".join(map(str, tails)) + "}"


def parse_key(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    h, t = re.fullmatch(r"H=\{([\d,]*)\} T=\{([\d,]*)\}", text).groups()
    return (
        tuple(int(x) for x in h.split(",") if x),
        tuple(int(x) for x in t.split(",") if x),
    )


def class_images(r: int, key) -> list[int]:
    """Images of one permutation in the class of ``key``: a transposition
    (2k-1, 2k) per loop and (2t, 2h-1) per arrow."""
    heads, tails = key
    loops = sorted(set(heads) & set(tails))
    arrow_tails = [t for t in tails if t not in loops]
    arrow_heads = [h for h in heads if h not in loops]
    images = list(range(1, 2 * r + 1))
    pairs = [(2 * k - 1, 2 * k) for k in loops]
    pairs += [(2 * t, 2 * h - 1) for t, h in zip(arrow_tails, arrow_heads)]
    for a, b in pairs:
        images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
    return images


# --- permutation text ------------------------------------------------------------


def cycle_string(images) -> str:
    """Disjoint-cycle notation, each cycle from its minimum, fixed points omitted."""
    n = len(images)
    seen = [False] * (n + 1)
    parts = []
    for start in range(1, n + 1):
        if seen[start] or images[start - 1] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = images[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = images[nxt - 1]
        parts.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


def images_of_cycles(text: str, degree: int) -> list[int]:
    images = list(range(1, degree + 1))
    for body in re.findall(r"\(([^)]*)\)", text):
        cyc = [int(x) for x in body.split(",") if x.strip()]
        for i, p in enumerate(cyc):
            images[p - 1] = cyc[(i + 1) % len(cyc)]
    return images


# --- numerics ---------------------------------------------------------------------


def relabel(entries: np.ndarray, r: int, d: int, images) -> np.ndarray:
    """Out entry at subscripts (i_1 .. i_2r) = input entry at (i_s(1) .. i_s(2r)).

    Odd subscripts are row digits, even ones column digits, subsystem 1
    most significant; computed by explicit digit arithmetic over every
    entry.
    """
    dim = d**r
    place = [d ** (r - 1 - j) for j in range(r)]
    rows = np.arange(dim)[:, None]
    cols = np.arange(dim)[None, :]
    subs = []  # subs[p - 1] = subscript i_p of each output entry
    for j in range(r):
        subs.append((rows // place[j]) % d)
        subs.append((cols // place[j]) % d)
    src_row = sum(subs[images[2 * j] - 1] * place[j] for j in range(r))
    src_col = sum(subs[images[2 * j + 1] - 1] * place[j] for j in range(r))
    return entries[np.broadcast_to(src_row, (dim, dim)), np.broadcast_to(src_col, (dim, dim))]


def class_norm(entries: np.ndarray, r: int, d: int, key) -> float:
    m = relabel(entries, r, d, class_images(r, key))
    return float(np.linalg.svd(m, compute_uv=False).sum())


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


# --- checking command output --------------------------------------------------------


def parse_eval(text: str) -> dict:
    lines = text.splitlines()
    head = re.fullmatch(r"state: r=(\d+) d=(\d+) \((\d+)x(\d+)\)", lines[0])
    maxline = re.fullmatch(r"max norm: (\S+) \(tolerance (\S+)\)", lines[-2])
    verdict = re.fullmatch(r"verdict: (\S+)", lines[-1])
    if not (head and maxline and verdict and lines[1].split() == ["label", "key", "norm"]):
        raise ValueError("eval output does not have the header/footer layout")
    rows = []
    for line in lines[2:-2]:
        m = _EVAL_ROW.match(line)
        if not m:
            raise ValueError(f"bad eval row {line!r}")
        rows.append((m.group(1), parse_key(m.group(2)), float(m.group(3))))
    return {
        "r": int(head.group(1)),
        "d": int(head.group(2)),
        "rows": rows,
        "max": float(maxline.group(1)),
        "tolerance": float(maxline.group(2)),
        "verdict": verdict.group(1),
    }


def check_eval(text: str, spec: dict, reference: dict | None = None) -> list[str]:
    """Problems in the text of one ``permsep eval`` run.

    ``spec`` is the generator's manifest entry; ``reference`` maps keys to
    norms computed by ``class_norm`` for a sample of classes.
    """
    try:
        out = parse_eval(text)
    except (ValueError, IndexError, AttributeError) as exc:
        return [f"unparsable output: {exc}"]
    r, d, tol = spec["r"], spec["d"], out["tolerance"]
    problems = []
    if (out["r"], out["d"]) != (r, d):
        problems.append(f"state header r={out['r']} d={out['d']}, want r={r} d={d}")
    want_keys = all_keys(r) - {((), ())}
    keys = [key for _, key, _ in out["rows"]]
    if len(keys) != len(want_keys) or set(keys) != want_keys:
        problems.append(f"{len(keys)} class rows, want the {len(want_keys)} nontrivial keys")
    for lab, key, _ in out["rows"]:
        if lab != label(*counts(key)):
            problems.append(f"label {lab} for {render(key)}")
            break
    norms = [n for _, _, n in out["rows"]]
    if any(a < b for a, b in zip(norms, norms[1:])):
        problems.append("rows are not sorted by descending norm")
    if norms and not close(out["max"], norms[0], 1e-12):
        problems.append(f"max norm {out['max']} is not the largest row norm {norms[0]}")
    want_verdict = "ENTANGLED" if out["max"] > 1.0 + tol else "UNDETECTED"
    if out["verdict"] != want_verdict:
        problems.append(f"verdict {out['verdict']} with max norm {out['max']}")
    by_key = {key: n for _, key, n in out["rows"]}
    kind = spec["kind"]
    if kind in ("separable", "mixed"):
        if out["verdict"] != "UNDETECTED" or max(norms, default=0.0) > 1.0 + tol:
            problems.append(f"{kind} state: verdict {out['verdict']}, max norm {out['max']}")
    for heads, tails, value in spec.get("class_norms", []):
        key = (tuple(heads), tuple(tails))
        if key not in by_key or not close(by_key[key], value):
            problems.append(f"class {render(key)}: norm {by_key.get(key)}, want {value}")
    if spec.get("symmetric"):
        by_label: dict[str, float] = {}
        for lab, _, n in out["rows"]:
            if not close(by_label.setdefault(lab, n), n):
                problems.append(f"symmetric state: {lab} norms differ ({by_label[lab]} vs {n})")
                break
    for key, value in (reference or {}).items():
        if key not in by_key or not close(by_key[key], value):
            problems.append(f"class {render(key)}: norm {by_key.get(key)}, reference {value}")
    return problems


def check_list(text: str, r: int) -> list[str]:
    """Problems in the text of ``permsep list -r R``."""
    lines = text.splitlines()
    total = math.comb(2 * r, r) // 2
    if not lines or lines[0] != f"r={r}: {total} classes, {total - 1} nontrivial criteria":
        return [f"bad header {lines[:1]}"]
    problems = []
    rows = [m for m in map(_LIST_ROW.match, lines) if m]
    keys = set()
    by_type: dict[tuple[int, int], int] = {}
    for m in rows:
        key = parse_key(m.group(4))
        a, l = counts(key)
        keys.add(key)
        by_type[(a, l)] = by_type.get((a, l), 0) + 1
        if (int(m.group(1)), int(m.group(2)), m.group(3)) != (a, l, label(a, l)):
            problems.append(f"row {m.group(0)!r}: wrong counts or label")
        if key_of_images(images_of_cycles(m.group(5), 2 * r)) != key:
            problems.append(f"representative {m.group(5)} is not in class {render(key)}")
        if len(problems) > 5:
            break
    if len(rows) != total - 1 or keys != all_keys(r) - {((), ())}:
        problems.append(f"{len(rows)} class rows, want {total - 1} distinct nontrivial keys")
    try:
        census = lines[lines.index("census by type:") + 2 :]
    except ValueError:
        return problems + ["no census block"]
    want = {label(a, l): n for (a, l), n in by_type.items()}
    got = {}
    for line in census:
        m = _CENSUS_ROW.match(line)
        if not m:
            problems.append(f"bad census line {line!r}")
            continue
        got[m.group(1)] = int(m.group(3))
    if got != want or sum(got.values()) != total - 1:
        problems.append(f"census {got}, want {want}")
    return problems


def check_cosets(text: str, r: int) -> list[str]:
    """Problems in the text of ``permsep enumerate-cosets -r R``."""
    lines = text.splitlines()
    total = math.comb(2 * r, r) // 2
    if not lines or lines[0] != f"r={r}: {total} classes (1 trivial)":
        return [f"bad header {lines[:1]}"]
    problems = []
    keys = set()
    for line in lines[1:]:
        m = _COSET_ROW.match(line)
        if not m:
            problems.append(f"bad row {line!r}")
            break
        key = parse_key(m.group(1))
        keys.add(key)
        if m.group(2) != label(*counts(key)):
            problems.append(f"label {m.group(2)} for {render(key)}")
        if key_of_images(images_of_cycles(m.group(3), 2 * r)) != key:
            problems.append(f"representative {m.group(3)} is not in class {render(key)}")
        if len(problems) > 5:
            break
    if len(lines) - 1 != total or keys != all_keys(r):
        problems.append(f"{len(lines) - 1} rows, want {total} distinct keys")
    return problems


def check_selftest(text: str) -> list[str]:
    """Every check reports PASS and the summary counts them all."""
    lines = text.splitlines()
    results = [m.groups() for m in map(_SELFTEST_ROW.match, lines) if m]
    failed = [name for status, name in results if status != "PASS"]
    n = len(results)
    problems = [f"check {name} did not pass" for name in failed]
    if n < 10 or not lines or lines[-1] != f"{n}/{n} checks passed":
        problems.append(f"{n} check lines, summary {lines[-1:]}")
    return problems


def check_canon(text: str, r: int, key) -> list[str]:
    """The canonical key line of ``permsep canon`` matches the oracle key."""
    line = next((l for l in text.splitlines() if l.startswith("canonical key: ")), "")
    if line != f"canonical key: {render(key)}":
        return [f"canon printed {line!r}, want key {render(key)}"]
    return []
