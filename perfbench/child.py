"""Child processes of the benchmark.

    python3 perfbench/child.py setup SRC ARGS...
        Time a fresh import of permsep and its CLI, then run one untimed
        warm-up command (the CLI arguments ARGS); print the wall seconds
        and the importing thread's CPU seconds on one line, then the
        command output.

    python3 perfbench/child.py replay SRC PLAN.json
        Rerun the trace_norm calls of a traced run and print their total
        seconds.  The plan lists the operations whose trace_norm calls to
        repeat: ["eval", STATE_FILE] or ["selftest"].  Run it with one BLAS
        thread to get the single-threaded baseline.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter, thread_time


def setup(src: str, args: list[str]) -> None:
    t0, c0 = perf_counter(), thread_time()
    sys.path.insert(0, src)
    from permsep import cli

    seconds, cpu = perf_counter() - t0, thread_time() - c0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main.main(args=args, prog_name="permsep", standalone_mode=False)
    print(repr(seconds), repr(cpu))
    print(buf.getvalue(), end="")


def replay(src: str, plan_path: str) -> None:
    sys.path.insert(0, src)
    from permsep import selftest, states

    with open(plan_path, encoding="ascii") as fh:
        plan = json.load(fh)
    spent = 0.0
    original = states.trace_norm

    def timed(operator):
        nonlocal spent
        t0 = perf_counter()
        try:
            return original(operator)
        finally:
            spent += perf_counter() - t0

    states.trace_norm = selftest.trace_norm = timed
    cache = {}
    for op in plan:
        if op[0] == "eval":
            if op[1] not in cache:
                cache[op[1]] = states.read_state_file(op[1])
            states.evaluate_criteria(cache[op[1]])
        else:
            selftest.run_checks()
    print(repr(spent))


if __name__ == "__main__":
    mode, source, *rest = sys.argv[1:]
    if mode == "setup":
        setup(source, rest)
    else:
        replay(source, rest[0])
