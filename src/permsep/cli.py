"""Command-line interface: canonicalize, compare, enumerate, evaluate."""

from __future__ import annotations

import csv
import io
import sys

import click

from . import perms
from .perms import PermutationParseError, _render_cycles, parse_permutation
from .arrows import _equivalence, canonicalize
from .normgroup import MAX_CLASS_R, census_records, class_count, enumerate_classes
from .normgroup import representative_permutation
from ._defaults import CHECK_NAMES, DEFAULT_SEED, VERDICT_TOLERANCE

EXIT_DATA_ERROR = 3

# The numeric layers, and numpy with them, load when ``eval`` or
# ``selftest`` first needs them: these names resolve through __getattr__,
# and the commands read them off this module at each call, so that a
# wrapper or patch placed here or in their own module is seen.
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name in ("read_state_file", "evaluate_criteria", "_valid_tolerance"):
        from . import states as module
    elif name == "run_checks":
        from . import selftest as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def _echo(message: str, nl: bool = True, err: bool = False) -> None:
    """``click.echo`` to the current sys.stdout, or sys.stderr when err.

    Named explicitly, because without a file click caches each new standard
    stream in a WeakKeyDictionary whose value is the stream itself, so the
    entry never dies: a caller that runs commands in-process with stdout
    redirected to a fresh buffer each time (click's CliRunner, perfbench)
    kept every buffer and all its text, about 0.8 MB for each ``list -r 8``.
    """
    click.echo(message, nl=nl, file=sys.stderr if err else sys.stdout)


def _fail_data(message: str) -> None:
    _echo(f"error: {message}", err=True)
    sys.exit(EXIT_DATA_ERROR)


def _parse_or_fail(text: str, r: int):
    try:
        return parse_permutation(text, 2 * r)
    except PermutationParseError as exc:
        _fail_data(f"bad permutation {text!r}: {exc}")


def _check_r(r: int) -> int:
    try:
        return perms._check_r(r, MAX_CLASS_R, name="-r")
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _check_tolerance(ctx, param, value: float) -> float:
    try:
        return _cli._valid_tolerance(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


@click.group()
def main() -> None:
    """Permutation separability criteria for multipartite states.

    Exit codes: 0 on success (EQUIVALENT/INDEPENDENT and
    ENTANGLED/UNDETECTED are printed answers, not exit codes), 2 on usage
    errors, 3 on malformed input data.
    """


@main.command()
@click.option("-r", "subsystems", type=int, required=True, help="Subsystem count r.")
@click.option("--trace", "show_trace", is_flag=True, help="Print every rewrite step.")
@click.option("--sketch", "show_sketch", is_flag=True, help="Draw a tails-by-heads grid.")
@click.argument("perm")
def canon(subsystems: int, show_trace: bool, show_sketch: bool, perm: str) -> None:
    """Reduce PERM to its disjoint arrow configuration and canonical key."""
    r = _check_r(subsystems)
    sigma = _parse_or_fail(perm, r)
    trace = canonicalize(sigma)
    lines = []
    if show_trace:
        lines.append(f"cycles: {_render_cycles(trace.input_cycles)}")
        for step in trace.steps:
            mult = _render_cycles(step.multiplier) if step.multiplier else "-"
            lines.append(f"{step.rule}: {step.detail}; multiplier {mult} -> {step.state}")
    key = trace.key
    lines.append(f"normal form: {trace.configuration.render()}")
    if show_sketch:
        cells = {(a.tail, a.head) for a in trace.configuration.arrows}
        lines.append("sketch (rows: tails, columns: heads):")
        lines.append("    " + " ".join(str(h) for h in range(1, r + 1)))
        for t in range(1, r + 1):
            row = " ".join(
                ("@" if t == h else ">") if (t, h) in cells else "."
                for h in range(1, r + 1)
            )
            lines.append(f"  {t} {row}")
    lines.append(f"canonical key: {key.render()}")
    lines.append(f"label: {key.type_label}")
    _echo("\n".join(lines))


@main.command()
@click.option("-r", "subsystems", type=int, required=True, help="Subsystem count r.")
@click.argument("perm1")
@click.argument("perm2")
def equiv(subsystems: int, perm1: str, perm2: str) -> None:
    """Decide whether PERM1 and PERM2 give the same criterion."""
    r = _check_r(subsystems)
    sigma = _parse_or_fail(perm1, r)
    tau = _parse_or_fail(perm2, r)
    try:
        key1, key2, witness, same = _equivalence(sigma, tau)
    except RuntimeError:
        _echo(
            "internal error: canonical keys and the parity test disagree", err=True
        )
        sys.exit(1)
    parity = "norm-preserving" if same else "not norm-preserving"
    _echo("\n".join([
        "EQUIVALENT" if same else "INDEPENDENT",
        f"canonical key 1: {key1.render()}",
        f"canonical key 2: {key2.render()}",
        f"parity test on perm2^-1 * perm1 = {witness}: {parity}",
    ]))


@main.command(name="list")
@click.option("-r", "subsystems", type=int, required=True, help="Subsystem count r.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "csv"]),
    default="text",
    help="text: class table plus census; csv: census lines r,a,l,label,count.",
)
def list_classes(subsystems: int, fmt: str) -> None:
    """List the nontrivial criterion classes and the census by type."""
    r = _check_r(subsystems)
    rows = census_records(r)
    if fmt == "csv":
        _echo(
            "".join(
                f"{row.r},{row.arrow_count},{row.loop_count},"
                f"{row.type_label},{row.count}\n"
                for row in rows
            ),
            nl=False,
        )
        return
    total = class_count(r)
    lines = [
        f"r={r}: {total} classes, {total - 1} nontrivial criteria",
        "",
        f"{'a':>3} {'l':>3}  {'label':<8} {'key':<28} representative",
    ]
    for key in enumerate_classes(r):
        if key.is_trivial:
            continue
        rep = representative_permutation(key)
        facts = f"{key.arrow_count:>3} {key.loop_count:>3}  {key.type_label:<8}"
        lines.append(f"{facts} {key.render():<28} {rep}")
    lines += ["", "census by type:", f"{'label':<8} {'flip-partner':<13} classes"]
    for row in rows:
        lines.append(f"{row.type_label:<8} {row.partner_label:<13} {row.count}")
    # one write: click.echo flushes at every call
    _echo("\n".join(lines))


@main.command(name="enumerate-cosets")
@click.option("-r", "subsystems", type=int, required=True, help="Subsystem count r.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "csv"]),
    default="text",
    help="One row per class, the trivial class included.",
)
def enumerate_cosets(subsystems: int, fmt: str) -> None:
    """Dump every equivalence class, one reduced key per line."""
    r = _check_r(subsystems)
    keys = enumerate_classes(r)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["r", "heads", "tails", "a", "l", "label", "representative"])
        for key in keys:
            writer.writerow(
                [
                    r,
                    " ".join(map(str, key.heads)),
                    " ".join(map(str, key.tails)),
                    key.arrow_count,
                    key.loop_count,
                    key.type_label,
                    str(representative_permutation(key)),
                ]
            )
        _echo(out.getvalue(), nl=False)
        return
    lines = [f"r={r}: {len(keys)} classes (1 trivial)"]
    for key in keys:
        rep = representative_permutation(key)
        lines.append(f"{key.render():<28} {key.type_label:<8} {rep}")
    _echo("\n".join(lines))


@main.command(name="eval")
@click.option(
    "--tolerance",
    type=float,
    callback=_check_tolerance,
    default=VERDICT_TOLERANCE,
    show_default=True,
    help="Entanglement verdict threshold above norm 1.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "csv"]),
    default="text",
)
@click.argument("state_file", type=click.Path(exists=True, dir_okay=False))
def eval_state(tolerance: float, fmt: str, state_file: str) -> None:
    """Evaluate every criterion class on the state stored in STATE_FILE."""
    try:
        rho = _cli.read_state_file(state_file)
        report = _cli.evaluate_criteria(rho, tolerance=tolerance)
    except ValueError as exc:  # StateFileError and StateValidationError too
        _fail_data(str(exc))
    ranked = sorted(report.records, key=lambda rec: (-rec.norm, rec.key.rank))
    if fmt == "csv":
        lines = [
            f"{report.r},{rec.key.type_label},{' '.join(map(str, rec.key.heads))},"
            f"{' '.join(map(str, rec.key.tails))},{rec.norm:.12f}"
            for rec in ranked
        ]
        lines.append(f"verdict,{report.verdict.upper()},max,{report.max_norm:.12f}")
    else:
        lines = [
            f"state: r={report.r} d={report.d} ({rho.dim}x{rho.dim})",
            f"{'label':<8} {'key':<28} norm",
            *(f"{rec.key.type_label:<8} {rec.key.render():<28} {rec.norm:.12f}" for rec in ranked),
            f"max norm: {report.max_norm:.12f} (tolerance {report.tolerance:g})",
            f"verdict: {report.verdict.upper()}",
        ]
    _echo("\n".join(lines))


@main.command()
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED, show_default=True)
@click.option(
    "--only",
    "only",
    multiple=True,
    type=click.Choice(CHECK_NAMES),
    help="Run a subset of checks (repeatable).",
)
def selftest(seed: int, only: tuple[str, ...]) -> None:
    """Run the built-in verification suite and report pass/fail per item."""
    results = _cli.run_checks(list(only) or None, seed=seed)
    lines = [
        f"[{'PASS' if res.passed else 'FAIL'}] {res.name} ({res.seconds:.2f}s): {res.detail}"
        for res in results
    ]
    failed = sum(not res.passed for res in results)
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed"
        + (f", {failed} FAILED" if failed else "")
    )
    _echo("\n".join(lines))
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
