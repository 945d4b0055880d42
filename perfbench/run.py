"""The permsep benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; permsep is imported from its
``src`` directory and nothing is installed.  Workloads (see README.md):

  eval-many-small  in-process ``permsep eval FILE`` on r = 6-7, d = 2 states
  eval-few-large   in-process ``permsep eval FILE`` on dim 1000-1024 states
  canon-stream     parse + canonical_key on a permutation stream, equivalent
                   and normal_form on part of it, ``permsep list -r 8``,
                   ``permsep enumerate-cosets -r 8`` and ``permsep selftest``

Inputs come from ``gen.py`` in a child process, seeded by ``--seed``.  A
workload is a fixed round of operations, repeated whole until ``--seconds``
have passed; one caller, each operation starting when the previous one
returned.  BLAS keeps its default thread count.  canon-stream's end-to-end
times count each kind of operation at its fast time over the run
(``fast``).  Every output is checked against ``oracle.py``.  The last line of standard output is one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of rounds run with spans around permsep's public functions.
Scratch files go to ``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
from tracer import Tracer, span_cost  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("eval-many-small", "eval-few-large", "canon-stream")
SETUP_SAMPLES = 16
CHILD_TIMEOUT = 150
FAST_SHARE = 0.01  # the rank, as a share of the samples, that fast() reads


def invoke(cli, args: list[str]) -> tuple[float, str, str | None]:
    """One in-process CLI command: (seconds, printed text, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main.main(args=args, prog_name="permsep", standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            error = f"exit code {exc.code}: {err.getvalue().strip()}"
    except Exception as exc:  # a crash is a failed operation, not an abort
        error = f"raised {type(exc).__name__}: {exc}"
    return perf_counter() - t0, out.getvalue(), error


def high_percentile(values) -> tuple[float, float] | None:
    """The highest percentile, in steps of 0.1, with at least ten samples
    above it, by nearest rank; None when that is not above the median."""
    n = len(values)
    permille = 1000 * (n - 10) // n
    if permille <= 500:
        return None
    rank = -(-permille * n // 1000)
    return permille / 10, sorted(values)[rank - 1]


def fast(values) -> float:
    """The fast hundredth of ``values``: the one at rank ceil(n / 100) when
    sorted, which is the minimum while n <= 100.  Other tenants of a shared
    host slow it down in bursts of milliseconds to seconds; a low rank over
    many short operations follows the program rather than the bursts."""
    ordered = sorted(values)
    return ordered[math.ceil(FAST_SHARE * len(ordered)) - 1]


def fast_round(groups: dict, rounds: int) -> float:
    """Seconds of one round, each operation kind counted at its fast time:
    groups maps a kind to its samples, and every round has the same mix."""
    return math.fsum(len(samples) / rounds * fast(samples) for samples in groups.values())


class Bench:
    """Shared bookkeeping: operation counts, failures, round times."""

    def __init__(self, manifest: dict, inputs: Path, cli) -> None:
        self.manifest = manifest
        self.inputs = inputs
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds: list[float] = []
        self.plan: list[list[str]] = []  # operations whose trace_norm calls a replay repeats

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(message)

    def check_warmup(self, text: str, error: str | None) -> None:
        self.attempted += 1
        problems = [error] if error else self.warmup_problems(text)
        if problems:
            self.fail(f"warm-up: {problems[0]}")

    def finish(self) -> None:
        """Checks deferred until after the measured rounds."""


class EvalBench(Bench):
    def __init__(self, manifest, inputs, cli) -> None:
        super().__init__(manifest, inputs, cli)
        self.states = manifest["states"]
        self.warmup_args = ["eval", str(inputs / manifest["warmup"]["file"])]
        self.first_output: dict[str, str] = {}
        self.samples: list[tuple[int, float]] = []

    def warmup_problems(self, text: str) -> list[str]:
        return oracle.check_eval(text, self.manifest["warmup"])

    def run_round(self, k: int) -> float:
        spent = 0.0
        for i, spec in enumerate(self.states):
            path = str(self.inputs / spec["file"])
            seconds, text, error = invoke(self.cli, ["eval", path])
            spent += seconds
            self.attempted += 1
            self.samples.append((i, seconds))
            self.plan.append(["eval", path])
            if error:
                self.fail(f"{spec['name']}: {error}")
            elif text != self.first_output.setdefault(spec["name"], text):
                self.fail(f"{spec['name']}: output differs from its first evaluation")
        self.rounds.append(spent)
        return spent

    def finish(self) -> None:
        evaluated = [i for i, _ in self.samples]
        for i, spec in enumerate(self.states):
            text = self.first_output.get(spec["name"])
            if text is None:
                continue
            reference = None
            if spec.get("reference_keys"):
                m = np.load(self.inputs / f"{spec['name']}.npy")
                reference = {
                    (tuple(h), tuple(t)): oracle.class_norm(m, spec["r"], spec["d"], (h, t))
                    for h, t in spec["reference_keys"]
                }
            problems = oracle.check_eval(text, spec, reference)
            if problems:
                self.fail(f"{spec['name']}: {problems[0]}", ops=evaluated.count(i))

    def metrics(self) -> tuple[dict, list[tuple[str, float, str]]]:
        # Evaluations take 0.25 to 9 s each, too few a run for fast(); the
        # median round total is the steadier figure for them.
        times = [s for _, s in self.samples]
        classes = sum(self.states[i]["classes"] for i, _ in self.samples)
        e2e = {
            "work_per_s": (classes / sum(times), "1/s"),
            "batch_s": (statistics.median(self.rounds), "s"),
        }
        table = [("verdict_s.p50", statistics.median(times), "s")]
        high = high_percentile(times)
        if high:
            table.append((f"verdict_s.p{high[0]:g}", high[1], "s"))
        table.append(("verdict_s.n", len(times), "count"))
        for r, d in sorted({(s["r"], s["d"]) for s in self.states}, reverse=True):
            of_size = [t for i, t in self.samples if (self.states[i]["r"], self.states[i]["d"]) == (r, d)]
            table.append((f"verdict_s.r{r}d{d}.p50", statistics.median(of_size), "s"))
        table.append(("classes_per_s", e2e["work_per_s"][0], "1/s"))
        return e2e, table


class CanonBench(Bench):
    JOBS = ("list", "enumerate-cosets", "selftest")
    CENSUS_JOBS = ("list", "enumerate-cosets")
    SMALL_R = 5  # census at r = 5 inside the stream: commands of about 12 ms
    SMALL_EVERY = 500  # stream lines per pair of r = 5 census commands

    def __init__(self, manifest, inputs, cli, ps) -> None:
        super().__init__(manifest, inputs, cli)
        self.ps = ps
        self.r = manifest["census_r"]
        warm = manifest["warmup"]
        self.warmup_args = ["canon", "-r", str(warm["r"]), warm["perm"]]
        self.jobs: dict[str, list[float]] = {job: [] for job in self.JOBS}
        self.samples = array("d")  # parse + canonical_key, every line
        # seconds per stream operation, by (operation, r): the same mix every round
        self.ops: dict[tuple[str, int], array] = {}

    def warmup_problems(self, text: str) -> list[str]:
        warm = self.manifest["warmup"]
        return oracle.check_canon(text, warm["r"], tuple(map(tuple, warm["key"])))

    def _job(self, job: str, r: int) -> float:
        args = [job] if job == "selftest" else [job, "-r", str(r)]
        seconds, text, error = invoke(self.cli, args)
        self.attempted += 1
        if job == "selftest":
            self.plan.append(["selftest"])
            problems = oracle.check_selftest(text)
        elif job == "list":
            problems = oracle.check_list(text, r)
        else:
            problems = oracle.check_cosets(text, r)
        if error or problems:
            self.fail(f"{job} -r {r}: {error or problems[0]}")
        return seconds

    def load_chunk(self, k: int) -> tuple[list[str], list]:
        """The permutation lines of round ``k`` and their answers."""
        chunk = k % self.manifest["chunks"]
        with open(self.inputs / f"chunk-{chunk:03d}.txt", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        answers = np.load(self.inputs / f"chunk-{chunk:03d}.npz")
        return lines, [answers[f].tolist() for f in ("heads", "tails", "equivalent")]

    def run_round(self, k: int) -> float:
        """Each CLI job followed by a third of the chunk's stream, so that
        stream operations are spread over the whole round."""
        lines, answers = self.load_chunk(k)
        spent = 0.0
        for part, job in enumerate(self.JOBS):
            seconds = self._job(job, self.r)
            self.jobs[job].append(seconds)
            spent += seconds
            lo, hi = part * len(lines) // 3, (part + 1) * len(lines) // 3
            spent += self._stream(lines, answers, lo, hi)
        self.rounds.append(spent)
        return spent

    def _stream(self, lines: list[str], answers, lo: int, hi: int) -> float:
        heads, tails, same = answers
        ps, mask, samples, ops = self.ps, oracle.mask, self.samples, self.ops
        spent = 0.0
        for j in range(lo, hi):
            line = lines[j]
            r, text, tau = line.split("\t")
            r = int(r)
            degree = 2 * r
            t0 = perf_counter()
            try:
                key = ps.canonical_key(ps.parse_permutation(text, degree))
            except Exception as exc:  # a crash is a failed operation
                key = exc
            seconds = perf_counter() - t0
            samples.append(seconds)
            ops.setdefault(("key", r), array("d")).append(seconds)
            spent += seconds
            self.attempted += 1
            if isinstance(key, Exception) or (mask(key.heads), mask(key.tails)) != (heads[j], tails[j]):
                self.fail(f"canonical_key {text} at r={r}: got {key!r}")
            if j % 4 == 1:
                t0 = perf_counter()
                try:
                    answer = ps.equivalent(ps.parse_permutation(text, degree), ps.parse_permutation(tau, degree))
                except Exception as exc:
                    answer = exc
                seconds = perf_counter() - t0
                ops.setdefault(("equivalent", r), array("d")).append(seconds)
                spent += seconds
                self.attempted += 1
                if answer is not same[j]:
                    self.fail(f"equivalent {text} {tau}: got {answer!r}, want {same[j]}")
            elif j % 4 == 3:
                t0 = perf_counter()
                try:
                    config = ps.normal_form(ps.parse_permutation(text, degree))
                except Exception as exc:
                    config = exc
                seconds = perf_counter() - t0
                ops.setdefault(("normal_form", r), array("d")).append(seconds)
                spent += seconds
                self.attempted += 1
                ok = not isinstance(config, Exception) and config.is_disjoint()
                if ok:
                    h, t = oracle.flip_reduce(r, config.heads, config.tails)
                    ok = (mask(h), mask(t)) == (heads[j], tails[j])
                if not ok:
                    self.fail(f"normal_form {text}: got {config!r}")
            if j % self.SMALL_EVERY == self.SMALL_EVERY - 1:
                for job in self.CENSUS_JOBS:
                    seconds = self._job(job, self.SMALL_R)
                    ops.setdefault((job, self.SMALL_R), array("d")).append(seconds)
                    spent += seconds
        return spent

    def metrics(self) -> tuple[dict, list[tuple[str, float, str]]]:
        times, rounds = self.samples, len(self.rounds)
        keys = {kind: v for kind, v in self.ops.items() if kind[0] == "key"}
        e2e = {
            "work_per_s": (len(times) / rounds / fast_round(keys, rounds), "1/s"),
            "batch_s": (fast_round(self.ops, rounds), "s"),
        }
        table = [("canon_us.p50", statistics.median(times) * 1e6, "us")]
        high = high_percentile(times)
        if high:
            table.append((f"canon_us.p{high[0]:g}", high[1] * 1e6, "us"))
        table.append(("canon_us.n", len(times), "count"))
        table.append(("canon_per_s", e2e["work_per_s"][0], "1/s"))
        census = [a + b for a, b in zip(self.jobs["list"], self.jobs["enumerate-cosets"])]
        table.append(("census_s", statistics.median(census), "s"))
        table.append(("selftest_s", statistics.median(self.jobs["selftest"]), "s"))
        table.append(("round_s.p50", statistics.median(self.rounds), "s"))
        return e2e, table


# --- run metadata ----------------------------------------------------------------------


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read through ctypes; None if unknown."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata(seed: int, ps) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "permsep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "permsep": ps.__version__,
        "commit": commit or "none (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
    }


# --- running ----------------------------------------------------------------------------------


def child(args: list[str], env: dict | None = None) -> str:
    done = subprocess.run([sys.executable, str(HERE / "child.py"), *args], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT, env=env, check=True)
    return done.stdout


def setup_seconds(bench: Bench, count: int) -> list[tuple[float, float]]:
    """Fresh-process import times of permsep and its CLI, as (wall seconds,
    CPU seconds of the importing thread); the warm-up command each child
    runs afterwards, untimed, is checked."""
    samples = []
    for _ in range(count):
        first, _, text = child(["setup", str(SRC), *bench.warmup_args]).partition("\n")
        wall, cpu = map(float, first.split())
        samples.append((wall, cpu))
        bench.check_warmup(text, None)
    return samples


def run_rounds(bench: Bench, seconds: float) -> None:
    """Whole rounds, at least one, until ``seconds`` have passed."""
    start = perf_counter()
    k = 0
    while k == 0 or perf_counter() - start < seconds:
        bench.run_round(k)
        k += 1


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"s": "s", "self_s": "s", "s_1thread": "s", "us": "us", "bytes": "B",
            "repeat_share": "ratio", "overhead_s": "s", "overhead_share": "ratio"}.get(suffix, "count")


def traced(bench: Bench, seconds: float, work: Path) -> tuple[dict, list]:
    tracer = Tracer()
    tracer.install()
    try:
        run_rounds(bench, seconds)
    finally:
        tracer.uninstall()
    tracer.save(str(work / "spans.npz"))
    # The single-thread baseline repeats the first round's trace_norm calls.
    plan = work / "replay.json"
    plan.write_text(json.dumps(bench.plan[: len(bench.plan) // len(bench.rounds)]), encoding="ascii")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    one_thread = float(child(["replay", str(SRC), str(plan)], env=env))

    spans = tracer.summary()
    rounds = len(bench.rounds)

    def field(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def per_call_us(name: str) -> float:
        calls = field(name, "calls")
        return field(name, "total_s") / calls * 1e6 if calls else 0.0

    # Seconds and counts are per traced round, so that counts repeat exactly.
    tn = tracer.trace_norm_stats()
    layers = {
        "states.trace_norm.s": field("states.trace_norm", "self_s") / rounds,
        "states.trace_norm.calls": tn["calls"] / rounds,
        "states.trace_norm.us": per_call_us("states.trace_norm"),
        "states.trace_norm.dim3": tn["dim3"] / rounds,
        "states.trace_norm.hermitian_calls": tn["hermitian_calls"] / rounds,
        "states.trace_norm.repeat_share": tn["repeat_share"],
        "states.trace_norm.s_1thread": one_thread,
        "states.apply_permutation.bytes": tracer.apply_bytes / rounds,
    }
    for name in ("states.apply_permutation", "states.validate_state",
                 "normgroup.enumerate_classes", "normgroup.representative_permutation"):
        layers[f"{name}.s"] = field(name, "self_s") / rounds
        layers[f"{name}.calls"] = field(name, "calls") / rounds
    layers["arrows.canonical_key.us"] = per_call_us("arrows.canonical_key")
    layers["cli.self_s"] = sum(v["self_s"] for k, v in spans.items() if k.startswith("cli.")) / rounds
    for name in ("arrows.canonical_key", "perms.parse_permutation", "states.read_state_file",
                 "arrows.equivalent", "arrows.normal_form"):
        layers[f"{name}.calls"] = field(name, "calls") / rounds
    # Tracing cost: spans per round times the calibrated cost of one span.
    # (A traced round minus an untraced one would mostly show host drift.)
    layers["trace.spans"] = len(tracer.start) / rounds
    layers["trace.overhead_s"] = span_cost() * layers["trace.spans"]
    round_s = statistics.median(bench.rounds)
    layers["trace.overhead_share"] = layers["trace.overhead_s"] / (round_s - layers["trace.overhead_s"])
    metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}

    # Layers that only some workloads reach: printed when reached, not in
    # the JSON line, whose per-layer metrics every workload must report.
    table = []
    for name in ("perms.parse_permutation", "arrows.equivalent", "arrows.normal_form"):
        if field(name, "calls"):
            table.append((f"{name}.us", per_call_us(name), "us"))
    for metric in ("states.read_state_file.s", "states.evaluate_criteria.self_s", "cli.eval.self_s"):
        name = metric.rsplit(".", 1)[0]
        if field(name, "calls"):
            table.append((metric, field(name, "self_s") / rounds, "s"))
    runs = field("selftest.run_checks", "calls")
    table += [
        (f"{name}.s", v["total_s"] / runs, "s")
        for name, v in spans.items()
        if name.startswith("selftest.") and name != "selftest.run_checks" and v["calls"]
    ]
    for dim, us in sorted(tn["us_by_dim"].items()):
        table.append((f"states.trace_norm.dim{dim}.us", us, "us"))
    table.append(("trace.span_us", layers["trace.overhead_s"] / layers["trace.spans"] * 1e6, "us"))
    table.append(("trace.round_s", round_s, "s"))
    return metrics, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "permsep" / "__init__.py").is_file():
        print(f"error: no permsep sources at {SRC / 'permsep'}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    gen_args = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(inputs)]
    if args.workload == "canon-stream":
        gen_args += ["--chunks", str(2 + int(args.seconds) // 4)]
    subprocess.run([sys.executable, str(HERE / "gen.py"), *gen_args], check=True,
                   timeout=CHILD_TIMEOUT)
    manifest = json.loads((inputs / "manifest.json").read_text(encoding="ascii"))

    sys.path.insert(0, str(SRC))
    import permsep
    from permsep import cli

    if Path(permsep.__file__).resolve().parent != (SRC / "permsep").resolve():
        print(f"error: imported permsep from {permsep.__file__}", file=sys.stderr)
        return 2
    if args.workload == "canon-stream":
        bench = CanonBench(manifest, inputs, cli, permsep)
    else:
        bench = EvalBench(manifest, inputs, cli)
    meta = metadata(args.seed, permsep)

    # Set-up is sampled before and after the rounds, so that its samples
    # span the run rather than one moment of it.
    setup = [] if args.trace else setup_seconds(bench, SETUP_SAMPLES // 2)
    _, text, error = invoke(cli, bench.warmup_args)
    bench.check_warmup(text, error)
    if args.trace:
        metrics, table = traced(bench, args.seconds, work)
    else:
        run_rounds(bench, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup += setup_seconds(bench, SETUP_SAMPLES - len(setup))
        metrics, table = bench.metrics()
        # The import's wall time grows by half, for minutes at a time,
        # whenever the host leaves one core free instead of two: OpenBLAS's
        # worker threads then spin on the importing thread's core.  That
        # thread's own CPU time does not.
        metrics["setup_s"] = (fast([cpu for _, cpu in setup]), "s")
        metrics["peak_rss_mb"] = (peak_mb, "MB")
        table.append(("setup_wall_s.p50", statistics.median([wall for wall, _ in setup]), "s"))
    bench.finish()
    shutil.rmtree(inputs, ignore_errors=True)

    failed_ratio = bench.failed / bench.attempted
    table.append(("failed_ratio", failed_ratio, "ratio"))
    for key, value in meta.items():
        print(f"# {key}: {value}")
    print(f"# workload: {args.workload}, rounds: {len(bench.rounds)}, trace: {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    for name, value, unit in table:
        print(f"{name:<44} {value:>16.6g} {unit}")
    for problem in bench.problems:
        print(f"# problem: {problem}")
    report = {
        "meta": meta,
        "workload": args.workload,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, v, u in table},
        "problems": bench.problems,
    }
    (work / f"report-trace{args.trace}.json").write_text(json.dumps(report, indent=1), encoding="ascii")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
