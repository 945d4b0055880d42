"""Spans around permsep's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the modules ``perms``,
``arrows``, ``normgroup``, ``states`` and ``selftest`` by a wrapper at each
name a caller looks it up under (``permsep.states.trace_norm``,
``permsep.normgroup.canonical_key``, ``permsep.canonical_key``, ...), plus
``DensityMatrix.validate_state``, the CLI command callbacks and the selftest
check table.  ``uninstall`` puts the originals back.

Spans live in flat arrays (name id, parent index, start, end) and are
written out with ``save``.  A span's self time is its duration minus the
durations of its direct children; calls within one thread nest, so the
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = ("perms", "arrows", "normgroup", "states", "selftest", "cli")


def _loop_only(images) -> bool:
    """True when every point stays or moves to its partner (2k-1 <-> 2k):
    the relabeling is a partial transpose, Hermitian on a Hermitian state."""
    return all(img == p or (img + 1) // 2 == (p + 1) // 2 for p, img in enumerate(images, 1))


def span_cost(calls: int = 100_000) -> float:
    """Seconds one wrapper adds to a call: a wrapped no-op timed against the
    bare no-op, best of three, in a throwaway tracer."""

    def noop():
        return None

    costs = []
    for _ in range(3):
        wrapped = Tracer().wrap("noop", noop)
        t0 = perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = perf_counter()
        for _ in range(calls):
            noop()
        costs.append(2 * t1 - t0 - perf_counter())
    return min(costs) / calls


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # trace_norm spans only: span index, operand dimension, result, loop-only flag
        self.tn_span = array("i")
        self.tn_dim = array("q")
        self.tn_norm = array("d")
        self.tn_loop = array("b")
        self._last_relabel = None
        self.apply_bytes = 0  # computed: read and write of each complex128 matrix
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return span

    def _wrap_apply(self, fn):
        inner = self.wrap("states.apply_permutation", fn)

        @functools.wraps(fn)
        def apply_permutation(rho, sigma):
            out = inner(rho, sigma)
            self._last_relabel = (out, _loop_only(sigma.images))
            self.apply_bytes += 2 * 16 * out.entries.size
            return out

        return apply_permutation

    def _wrap_trace_norm(self, fn):
        nid = self._id("states.trace_norm")

        @functools.wraps(fn)
        def trace_norm(operator):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                value = fn(operator)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            last = self._last_relabel
            shape = getattr(operator, "entries", operator).shape
            self.tn_span.append(idx)
            self.tn_dim.append(shape[0])
            self.tn_norm.append(value)
            self.tn_loop.append(1 if last is not None and last[0] is operator and last[1] else 0)
            return value

        return trace_norm

    # --- installing ----------------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"permsep.{m}") for m in MODULES}
        package = importlib.import_module("permsep")
        replace: dict[int, object] = {}
        for short in ("perms", "arrows", "normgroup", "states"):
            mod = mods[short]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if (short, attr) == ("states", "apply_permutation"):
                    replace[id(fn)] = self._wrap_apply(fn)
                elif (short, attr) == ("states", "trace_norm"):
                    replace[id(fn)] = self._wrap_trace_norm(fn)
                else:
                    replace[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        selftest = mods["selftest"]
        replace[id(selftest.run_checks)] = self.wrap("selftest.run_checks", selftest.run_checks)
        for mod in (package, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and inspect.isfunction(value):
                    self._set(mod, attr, replace[id(value)])
        cls = mods["states"].DensityMatrix
        self._set(cls, "validate_state", self.wrap("states.validate_state", cls.validate_state))
        for cmd in mods["cli"].main.commands.values():
            name = "cli." + cmd.name.replace("-", "_")
            self._set(cmd, "callback", self.wrap(name, cmd.callback))
        checks = [(n, self.wrap(f"selftest.{n}", f)) for n, f in selftest._CHECKS]
        self._set(selftest, "_CHECKS", checks)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        self._last_relabel = None

    # --- analysis ----------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        own = np.bincount(a["name_id"], weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def trace_norm_stats(self, rel: float = 1e-12) -> dict[str, float]:
        """Counts at the trace_norm boundary.

        A call repeats when its norm equals, within ``rel`` relative, the
        norm of an earlier call under the same parent span (one state's
        evaluation, or one selftest check).
        """
        spans = np.frombuffer(self.tn_span, dtype=np.int32)
        dims = np.frombuffer(self.tn_dim, dtype=np.int64).astype(np.float64)
        norms = np.frombuffer(self.tn_norm, dtype=np.float64)
        parents = np.frombuffer(self.parent, dtype=np.int32)[spans] if len(spans) else spans
        repeats = 0
        for p in np.unique(parents):
            group = np.sort(norms[parents == p])
            gaps = np.diff(group) > rel * np.maximum(1.0, np.abs(group[1:]))
            repeats += len(group) - 1 - int(gaps.sum())
        calls = len(spans)
        seconds = np.frombuffer(self.end, dtype=np.float64)[spans] - np.frombuffer(
            self.start, dtype=np.float64)[spans]
        return {
            "us_by_dim": {int(n): float(seconds[dims == n].mean() * 1e6) for n in np.unique(dims)},
            "calls": calls,
            "dim3": float(np.sum(dims**3)),
            "hermitian_calls": int(np.sum(np.frombuffer(self.tn_loop, dtype=np.int8))),
            "repeat_share": repeats / calls if calls else 0.0,
        }
