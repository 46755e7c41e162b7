"""Command-line surface: point queries, tables, verification sweeps, benches.

Every table is CSV with a header row; numeric fields are plain base-10 and
booleans render as true/false, so no quoting is ever needed.  Exit codes:
0 success, 1 verification mismatch, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import census, oracle
from .core import Convention, s, s_naive
from .table import DEFAULT_SEGMENT_SIZE, default_cache_dir, s_range

_CONVENTIONS = {
    "paper": Convention.PAPER_LITERAL,
    "formula": Convention.FORMULA_CONSISTENT,
}

_EXIT_MISMATCH = 1
_EXIT_IO = 3

# Largest sampled x grid `verify` accepts.  Its arrays take about 30 bytes
# per point and gap, so about 30 MiB per gap at the limit.
MAX_VERIFY_POINTS = 1 << 20


def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


def _echo_rows(header: str, rows) -> None:
    click.echo(header)
    for row in rows:
        click.echo(",".join(str(cell) for cell in row))


def _echo_count(header: str, cells: tuple, report: census.CountReport, verify: bool) -> None:
    """The one-row CSV of a count, with the oracle columns in verify mode."""
    if verify:
        cells += (report.formula_count, report.oracle_count, _bool_str(report.matches))
        _echo_rows(header + ",oracle,match", [cells])
    else:
        _echo_rows(header, [(*cells, report.formula_count)])


def _positive_check(name: str, value: int, minimum: int) -> int:
    if value < minimum:
        raise click.BadParameter(f"{name} must be >= {minimum}", param_hint=name)
    return value


def _check_x(x: int, verify: bool, name: str = "x") -> None:
    """Reject a negative x and, before any work, an x to be verified whose
    oracle sieve would pass the bitset cap."""
    _positive_check(name, x, 0)
    if verify:
        try:
            oracle.check_limit(x)
        except ValueError as exc:
            raise click.BadParameter(str(exc), param_hint=name)


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split("..", 1)
        return int(lo_text), int(hi_text)
    except ValueError:
        raise click.BadParameter(f"expected LO..HI, got {text!r}", param_hint="--trace")


_threads_option = click.option(
    "--threads",
    type=click.IntRange(min=1),
    default=lambda: os.cpu_count() or 1,
    show_default="available cores",
    help="Threads that fill the segments; output is the same for any count.",
)
_segment_option = click.option(
    "--segment-size",
    type=click.IntRange(min=1),
    default=DEFAULT_SEGMENT_SIZE,
    show_default=True,
    help="Entries per processing segment.",
)


@click.group()
@click.version_option(package_name="kempner")
def main() -> None:
    """Smarandache-Kempner function kernels and exact prime-pair counts."""


@main.command("s")
@click.argument("n", type=int)
@click.option(
    "--convention",
    type=click.Choice(sorted(_CONVENTIONS)),
    default="paper",
    show_default=True,
    help="Value of S(1): paper keeps 1, formula uses 0.",
)
@click.option(
    "--kernel",
    type=click.Choice(["naive", "factor"]),
    default="factor",
    show_default=True,
    help="naive scans the definition; factor reduces to prime powers.",
)
def cmd_s(n: int, convention: str, kernel: str) -> None:
    """Print S(N)."""
    _positive_check("n", n, 1)
    conv = _CONVENTIONS[convention]
    try:
        value = s_naive(n, conv) if kernel == "naive" else s(n, conv)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="n")
    _echo_rows("n,s", [(n, value)])


@main.command()
@click.argument("x", type=int)
@click.option("--verify", is_flag=True, help="Also run the sieve oracle and compare.")
@click.option("--trace", "trace_window", default=None, metavar="LO..HI",
              help="Append term-by-term rows for j in LO..HI.")
@_segment_option
@_threads_option
def twins(x: int, verify: bool, trace_window: str | None, segment_size: int, threads: int) -> None:
    """Count twin prime pairs (p, p+2) with p+2 <= X."""
    _check_x(x, verify)
    report = census.count_twin(
        x, verify=verify, segment_size=segment_size, threads=threads
    )
    _echo_count("x,t2", (x,), report, verify)
    if trace_window is not None:
        lo, hi = _parse_window(trace_window)
        try:
            rows = census.trace_terms(census.PairCountQuery(x, 1), (lo, hi))
        except ValueError as exc:
            raise click.BadParameter(str(exc), param_hint="--trace")
        _echo_rows("j,s_j,s_j_plus_gap,term", rows)
    if verify and not report.matches:
        sys.exit(_EXIT_MISMATCH)


@main.command()
@click.argument("x", type=int)
@click.option("--gap", type=int, required=True, help="Pair gap 2n (even, >= 2).")
@click.option("--verify", is_flag=True, help="Also run the sieve oracle and compare.")
@_segment_option
@_threads_option
def pairs(x: int, gap: int, verify: bool, segment_size: int, threads: int) -> None:
    """Count prime pairs (p, p+GAP) with p+GAP <= X."""
    _check_x(x, verify)
    if gap < 2 or gap % 2:
        raise click.BadParameter("gap must be an even integer >= 2", param_hint="--gap")
    report = census.count_pairs(
        census.PairCountQuery(x, gap // 2),
        verify=verify,
        segment_size=segment_size,
        threads=threads,
    )
    _echo_count("x,gap,count", (x, gap), report, verify)
    if verify and not report.matches:
        sys.exit(_EXIT_MISMATCH)


@main.command("pi")
@click.argument("x", type=int)
@click.option("--verify", is_flag=True, help="Also run the sieve oracle and compare.")
@_segment_option
@_threads_option
def cmd_pi(x: int, verify: bool, segment_size: int, threads: int) -> None:
    """Count primes <= X via the S-indicator sum."""
    _check_x(x, verify)
    report = census.count_primes(
        x, verify=verify, segment_size=segment_size, threads=threads
    )
    _echo_count("x,pi", (x,), report, verify)
    if verify and not report.matches:
        sys.exit(_EXIT_MISMATCH)


@main.command()
@click.argument("lo", type=int)
@click.argument("hi", type=int)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Destination file (default: stdout for csv, cache dir for cache).")
@click.option("--format", "fmt", type=click.Choice(["csv", "cache"]), default="csv",
              show_default=True)
@click.option(
    "--convention",
    type=click.Choice(sorted(_CONVENTIONS)),
    default="formula",
    show_default=True,
)
@_segment_option
@_threads_option
def table(
    lo: int,
    hi: int,
    out_path: str | None,
    fmt: str,
    convention: str,
    segment_size: int,
    threads: int,
) -> None:
    """Tabulate S(n) for n in [LO, HI] as CSV or a binary cache file."""
    if lo < 1 or hi < lo:
        raise click.BadParameter(f"need 1 <= LO <= HI, got [{lo}, {hi}]", param_hint="lo/hi")
    conv = _CONVENTIONS[convention]
    stable = s_range(lo, hi, conv, segment_size=segment_size, threads=threads)
    if fmt == "csv":
        lines = ["n,s,is_fixed_point"]
        lines += [
            f"{j},{v},{_bool_str(v == j)}"
            for j, v in zip(range(lo, hi + 1), stable.values.tolist())
        ]
        text = "\n".join(lines) + "\n"
        if out_path is None:
            click.echo(text, nl=False)
        else:
            try:
                Path(out_path).write_text(text)
            except OSError as exc:
                click.echo(f"error: cannot write {out_path}: {exc}", err=True)
                sys.exit(_EXIT_IO)
    else:
        if out_path is None:
            cache_dir = default_cache_dir()
            try:
                os.makedirs(cache_dir, exist_ok=True)
            except OSError as exc:
                click.echo(f"error: cannot create {cache_dir}: {exc}", err=True)
                sys.exit(_EXIT_IO)
            out_path = os.path.join(cache_dir, f"s_{lo}_{hi}_{conv.value}.skt")
        try:
            stable.save(out_path)
        except OSError as exc:
            click.echo(f"error: cannot write {out_path}: {exc}", err=True)
            sys.exit(_EXIT_IO)
        click.echo(out_path)


@main.command()
@click.option("--max-x", type=int, required=True, help="Largest x to check.")
@click.option("--gaps", default="2", show_default=True,
              help="Comma-separated even gaps to check.")
@click.option("--step", type=int, default=1, show_default=True,
              help="Stride of the sampled x grid (max-x always included).")
@_segment_option
@_threads_option
def verify(max_x: int, gaps: str, step: int, segment_size: int, threads: int) -> None:
    """Sweep formula-vs-oracle comparisons; exit 1 on any default-mode mismatch.

    A second section evaluates the uncorrected sum-from-1, S(1)=1 reading
    and reports (without failing) the x where it departs from the sieve;
    runs of consecutive sampled x with one delta compress to a single row.
    """
    _check_x(max_x, True, "--max-x")
    _positive_check("--step", step, 1)
    gap_list = []
    for piece in gaps.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            g = int(piece)
        except ValueError:
            raise click.BadParameter(f"bad gap {piece!r}", param_hint="--gaps")
        if g < 2 or g % 2:
            raise click.BadParameter("gaps must be even integers >= 2", param_hint="--gaps")
        gap_list.append(g)
    if not gap_list:
        raise click.BadParameter("no gaps given", param_hint="--gaps")

    grid = range(2, max_x + 1, step)
    add_max_x = bool(grid) and grid[-1] != max_x
    if len(grid) + add_max_x > MAX_VERIFY_POINTS:
        raise click.BadParameter(
            f"the sampled x grid has {len(grid) + add_max_x} points, over the "
            f"limit of {MAX_VERIFY_POINTS}; raise --step",
            param_hint="--step",
        )
    xs = np.arange(2, max_x + 1, step, dtype=np.int64)
    if add_max_x:
        xs = np.append(xs, max_x)
    # One pass over S gives every gap under both readings at the sampled x.
    formula, literal = census.sample_counts(
        xs, gap_list, segment_size=segment_size, threads=threads
    )
    truths = oracle.pair_counts_at(xs, gap_list)

    mismatches: list[tuple[int, int, int, int]] = []
    literal_rows: list[tuple[int, int, int, int]] = []
    summary_rows = []
    for g, formula_g, literal_g, truth in zip(gap_list, formula, literal, truths):
        bad = np.flatnonzero(formula_g != truth)
        summary_rows.append((g, xs.size, bad.size))
        mismatches += [(g, int(xs[i]), int(formula_g[i]), int(truth[i])) for i in bad]
        literal_rows += [(g, *run) for run in _runs(xs, literal_g - truth)]

    _echo_rows("gap,x_checked,mismatches", summary_rows)
    if mismatches:
        _echo_rows("mismatch_gap,x,formula,oracle", mismatches)
    _echo_rows("literal_gap,x_from,x_to,delta", literal_rows)
    total = len(mismatches)
    click.echo(f"total_mismatches,{total}")
    if total:
        sys.exit(_EXIT_MISMATCH)


def _runs(xs: np.ndarray, delta: np.ndarray):
    """Yield (x_from, x_to, delta) runs over the nonzero entries of delta."""
    run_start = None
    run_delta = 0
    prev_x = None
    for x, d in zip(xs.tolist(), delta.tolist()):
        if d == run_delta and run_start is not None:
            prev_x = x
            continue
        if run_start is not None and run_delta != 0:
            yield (run_start, prev_x, run_delta)
        run_start, run_delta, prev_x = (x, d, x) if d != 0 else (None, 0, x)
    if run_start is not None and run_delta != 0:
        yield (run_start, prev_x, run_delta)


@main.command()
@click.option("--max-x", type=int, default=1_000_000, show_default=True)
@click.option("--kernel", type=click.Choice(["naive", "factor", "range"]),
              default="range", show_default=True)
@_segment_option
@_threads_option
def bench(max_x: int, kernel: str, segment_size: int, threads: int) -> None:
    """Time S-table generation with the chosen kernel (no correctness claims)."""
    click.echo("kernel,max_x,elapsed_s")
    if max_x < 1:
        return
    started = time.perf_counter()
    if kernel == "naive":
        for n in range(1, max_x + 1):
            s_naive(n)
    elif kernel == "factor":
        for n in range(1, max_x + 1):
            s(n)
    else:
        s_range(1, max_x, segment_size=segment_size, threads=threads)
    elapsed = time.perf_counter() - started
    click.echo(f"{kernel},{max_x},{elapsed:.6f}")


if __name__ == "__main__":
    main()
