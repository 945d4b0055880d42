"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/selfcheck.py

They check that the oracle agrees with permsep on small inputs, that a
corrupted output raises the failure count, that metric names are well
formed, and that short runs finish and print the promised metrics.
Scratch files go to .perfbench-work/selfcheck in the checkout.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

import permsep  # noqa: E402
from permsep import cli  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="ascii"))


@pytest.fixture()
def scratch():
    path = run.WORK / "selfcheck"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def random_images(rng, r):
    return (rng.permutation(2 * r) + 1).tolist()


# --- the oracle agrees with the program --------------------------------------------------


def test_oracle_keys_match_canonical_key():
    for r in (2, 3):
        for images in itertools.permutations(range(1, 2 * r + 1)):
            key = permsep.canonical_key(permsep.Permutation(images))
            assert oracle.key_of_images(images) == (key.heads, key.tails)
    rng = np.random.default_rng(0)
    for r in (5, 8, 12):
        for _ in range(300):
            images = random_images(rng, r)
            key = permsep.canonical_key(permsep.Permutation(tuple(images)))
            assert oracle.key_of_images(images) == (key.heads, key.tails)
            assert oracle.images_of_cycles(oracle.cycle_string(images), 2 * r) == images


def test_oracle_class_set_matches_enumeration():
    for r in range(1, 7):
        keys = {(c.key.heads, c.key.tails) for c in permsep.enumerate_classes(r)}
        assert keys == oracle.all_keys(r)


def test_oracle_relabel_matches_apply_permutation():
    rng = np.random.default_rng(1)
    for r, d in ((2, 2), (2, 3), (3, 2)):
        m = rng.standard_normal((d**r, d**r)) + 1j * rng.standard_normal((d**r, d**r))
        for _ in range(10):
            images = random_images(rng, r)
            want = permsep.apply_permutation(
                permsep.DensityMatrix(r, d, m), permsep.Permutation(tuple(images))
            ).entries
            assert np.array_equal(oracle.relabel(m, r, d, images), want)


def test_generated_detector_and_ghz_states_have_known_norms():
    rng = np.random.default_rng(2)
    det = gen.detector_state(rng, 3)
    ghz, _ = gen.noisy_ghz_state(rng, 3, 2)
    for key in oracle.all_keys(2) - {((), ())}:
        assert oracle.class_norm(det, 2, 3, key) == pytest.approx(3.0, rel=1e-12)
    norms = {}
    for key in oracle.all_keys(3) - {((), ())}:
        lab = oracle.label(*oracle.counts(key))
        value = oracle.class_norm(ghz, 3, 2, key)
        assert value == pytest.approx(norms.setdefault(lab, value), rel=1e-12)


# --- corrupted outputs are counted as failures ----------------------------------------------


def eval_text(path) -> str:
    _, text, error = run.invoke(cli, ["eval", str(path)])
    assert error is None
    return text


@pytest.fixture()
def small_states(scratch):
    rng = np.random.default_rng(3)
    specs = []
    for name, kind, m in (
        ("generic", "generic", gen.generic_state(rng, 3, 2)),
        ("separable", "separable", gen.separable_state(rng, 3, 2)),
    ):
        gen.write_state(str(scratch / f"{name}.state"), 3, 2, m)
        np.save(scratch / f"{name}.npy", m)
        specs.append({"name": name, "r": 3, "d": 2, "kind": kind, "file": f"{name}.state",
                      "classes": 9, "reference_keys": [[[1], [2]], [[2], [2]]]})
    return scratch, specs


def test_check_eval_accepts_right_output_and_flags_corruptions(small_states):
    scratch, specs = small_states
    spec = specs[1]
    text = eval_text(scratch / spec["file"])
    assert oracle.check_eval(text, spec) == []
    assert "UNDETECTED" in text
    wrong_verdict = text.replace("verdict: UNDETECTED", "verdict: ENTANGLED")
    assert oracle.check_eval(wrong_verdict, spec)
    lines = text.splitlines()
    assert oracle.check_eval("\n".join(lines[:3] + lines[4:]), spec)  # a class row dropped
    row = lines[2].rsplit(" ", 1)
    bumped = "\n".join([lines[0], lines[1], f"{row[0]} {float(row[1]) + 1e-6:.12f}", *lines[3:]])
    m = np.load(scratch / "separable.npy")
    key = oracle.parse_key(re.search(oracle.KEY_RE, lines[2]).group(0))
    assert oracle.check_eval(bumped, spec, {key: oracle.class_norm(m, 3, 2, key)})


def test_wrong_verdict_raises_failed_ratio(small_states, monkeypatch):
    scratch, specs = small_states
    manifest = {"states": specs, "warmup": specs[1]}
    bench = run.EvalBench(manifest, scratch, cli)
    bench.run_round(0)
    bench.finish()
    assert (bench.attempted, bench.failed) == (2, 0)

    real = cli.evaluate_criteria

    def flipped(rho, tolerance):
        report = real(rho, tolerance=tolerance)
        verdict = "entangled" if report.verdict == "undetected" else "undetected"
        return dataclasses.replace(report, verdict=verdict)

    monkeypatch.setattr(cli, "evaluate_criteria", flipped)
    bench = run.EvalBench(manifest, scratch, cli)
    bench.run_round(0)
    bench.finish()
    assert bench.failed == 2 and bench.failed / bench.attempted == 1.0


def test_wrong_key_raises_failed_ratio(scratch, monkeypatch):
    monkeypatch.setattr(gen, "CHUNK_SIZE", 60)
    manifest = gen.gen_canon(5, str(scratch), chunks=1)
    bench = run.CanonBench(manifest, scratch, cli, permsep)
    lines, answers = bench.load_chunk(0)
    bench._stream(lines, answers, 0, len(lines))
    assert bench.attempted == 90 and bench.failed == 0

    real = permsep.canonical_key
    calls = itertools.count()

    def sometimes_wrong(sigma):
        key = real(sigma)
        if next(calls) % 7 == 0 and key.heads:  # a valid key, of the wrong class
            return permsep.CanonicalKey(key.r, (), ())
        return key

    monkeypatch.setattr(permsep, "canonical_key", sometimes_wrong)
    bench = run.CanonBench(manifest, scratch, cli, permsep)
    bench._stream(lines, answers, 0, len(lines))
    assert bench.failed > 0


def test_stream_runs_and_checks_the_small_census(scratch, monkeypatch):
    monkeypatch.setattr(gen, "CHUNK_SIZE", 60)
    monkeypatch.setattr(run.CanonBench, "SMALL_EVERY", 30)
    manifest = gen.gen_canon(5, str(scratch), chunks=1)
    bench = run.CanonBench(manifest, scratch, cli, permsep)
    lines, answers = bench.load_chunk(0)
    bench._stream(lines, answers, 0, len(lines))
    assert (bench.attempted, bench.failed) == (94, 0)
    assert [len(bench.ops[job, bench.SMALL_R]) for job in bench.CENSUS_JOBS] == [2, 2]

    real = cli.representative_permutation
    wrong = permsep.Permutation(tuple(range(1, 2 * bench.SMALL_R + 1)))  # the trivial class
    monkeypatch.setattr(cli, "representative_permutation",
                        lambda key: wrong if key.heads else real(key))
    bench = run.CanonBench(manifest, scratch, cli, permsep)
    bench._stream(lines, answers, 0, len(lines))
    assert bench.failed == 4


def test_fast_reads_a_low_rank():
    assert run.fast([3.0, 1.0, 2.0]) == 1.0
    assert run.fast(range(1000, 0, -1)) == 10  # rank ceil(1000 / 100)
    assert run.fast_round({"a": [2.0, 1.0, 5.0, 4.0], "b": [3.0, 7.0]}, rounds=2) == 2 * 1.0 + 3.0


def test_census_and_selftest_checks_flag_corruptions():
    _, listing, _ = run.invoke(cli, ["list", "-r", "4"])
    _, cosets, _ = run.invoke(cli, ["enumerate-cosets", "-r", "4"])
    assert oracle.check_list(listing, 4) == [] and oracle.check_cosets(cosets, 4) == []
    lines = listing.splitlines()
    assert oracle.check_list("\n".join(lines[:3] + lines[4:]), 4)
    assert oracle.check_cosets(cosets.replace("H={1} T={2}", "H={2} T={1}", 1), 4)
    report = "[PASS] a (0.1s): ok\n" * 9 + "[FAIL] b (0.1s): no\n9/10 checks passed, 1 FAILED\n"
    assert oracle.check_selftest(report)


# --- names, and short runs ------------------------------------------------------------------


def test_metric_names_are_well_formed():
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in SPEC[group]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def bench_run(*args):
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args], capture_output=True,
                          text=True, timeout=170)
    return done, time.perf_counter() - start


@pytest.mark.parametrize("trace,group", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run(trace, group):
    done, seconds = bench_run("--workload", "canon-stream", "--seed", "7", "--seconds", "1",
                              "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1000
    assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}
    for name, metric in result["metrics"].items():
        assert NAME.match(name)
        want = next(m["unit"] for m in SPEC[group] if m["name"] == name)
        assert metric["unit"] == want
    assert seconds < 60


def test_refuses_to_run_without_sources(scratch):
    shutil.copy(HERE.parent / "BENCHMARK.json", scratch)
    shutil.copytree(HERE, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "canon-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=scratch,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
