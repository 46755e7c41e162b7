"""Command-line surface: point queries, counts, tables and verification sweeps.

Every table is CSV with a header row; numeric fields are plain base-10 and
booleans render as true/false, so no quoting is ever needed.  All output
goes through ``_write`` in joined pieces.  Exit codes: 0 success, 1
verification mismatch, 2 usage error, 3 I/O error: any failed write, a closed
pipe included, or a cache ``--out`` that is not a regular file.
"""

from __future__ import annotations

import itertools
import os
import sys
from contextlib import nullcontext

import click
import numpy as np

from . import census, oracle
from . import table as _table  # `table` is the command below
from .core import _I64_MAX, U64_MAX, Convention, s
from .table import iter_segments, write_cache

_EXIT_MISMATCH = 1
_EXIT_IO = 3

# Largest sampled x grid `verify` accepts.  Its arrays take about 23 bytes
# per point and gap plus 54 per point: at the limit, a tracemalloc peak of
# 77 MiB for one gap and 145 MiB for four (one thread, every x).
MAX_VERIFY_POINTS = 1 << 20
# Rows of CSV joined into one string per write: about 5 MB of row strings,
# a fixed bound below a `table` segment's 2^19 rows.
_CSV_ROWS = 1 << 16

_X = click.IntRange(0, _I64_MAX)
_N = click.IntRange(1, U64_MAX)


def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


def _write(pieces, path: str | None = None) -> None:
    """Write and flush each piece to ``path`` or stdout, opened first; any OSError exits 3."""
    try:
        with nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
            for piece in pieces:
                fh.write(piece)
                fh.flush()
    except OSError as exc:
        if path is None:  # stdout's buffer keeps the failed bytes; send them to devnull at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _exit_io(f"cannot write {'stdout' if path is None else path}", exc)


def _echo_rows(header: str, rows) -> None:
    """Write ``header`` and the CSV of ``rows``, joined _CSV_ROWS lines to a piece."""
    def pieces():
        lines = itertools.chain([header], (",".join(map(str, row)) for row in rows))
        while piece := "".join(f"{line}\n" for line in itertools.islice(lines, _CSV_ROWS)):
            yield piece
    _write(pieces())


def _echo_count(header: str, cells: tuple, count: int, truth: int | None) -> None:
    """The one-row CSV of a count, with the oracle columns when ``truth`` is
    the oracle's count; a count that differs from it exits 1."""
    if truth is None:
        _echo_rows(header, [(*cells, count)])
    else:
        _echo_rows(header + ",oracle,match", [(*cells, count, truth, _bool_str(count == truth))])
        if count != truth:
            sys.exit(_EXIT_MISMATCH)


def _exit_io(what: str, exc: OSError) -> None:
    click.echo(f"error: {what}: {exc}", err=True)
    sys.exit(_EXIT_IO)


def _gaps(ctx, param, value) -> list[int]:
    """Comma-separated pair gaps (``pairs --gap`` arrives as one int), each even and >= 2."""
    try:
        gaps = [int(piece) for piece in str(value).split(",") if piece.strip()]
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {value!r}")
    if not gaps or any(g < 2 or g % 2 or g > _I64_MAX for g in gaps):
        raise click.BadParameter(f"gaps must be even integers from 2 to {_I64_MAX - 1}")
    return gaps


def _window(ctx, param, text: str | None) -> tuple[int, int] | None:
    """The window LO..HI of ``--trace``, parsed; census.trace_terms checks its bounds."""
    if text is None:
        return None
    try:
        lo, hi = (int(part) for part in text.split(".."))
    except ValueError:
        raise click.BadParameter(f"expected LO..HI, got {text!r}")
    return lo, hi


_threads_option = click.option(
    "--threads",
    type=click.IntRange(1, _table.MAX_THREADS),
    default=lambda: _table._CPUS,
    show_default="CPUs available",
    help="Threads that fill the segments; output is the same for any count.",
)


def _convention_option(default: str):
    return click.option("--convention", type=click.Choice(sorted(c.value for c in Convention)),
                        default=default, show_default=True,
                        help="Value of S(1): paper keeps 1, formula uses 0.")


@click.group()
@click.version_option(package_name="kempner")
def main() -> None:
    """Smarandache-Kempner function kernels and exact prime-pair counts."""


@main.command("s")
@click.argument("n", type=_N)
@_convention_option("paper")
def cmd_s(n: int, convention: str) -> None:
    """Print S(N)."""
    _echo_rows("n,s", [(n, s(n, Convention(convention)))])


@main.command()
@click.argument("x", type=_X)
@click.option("--verify", is_flag=True, help="Also run the sieve oracle and compare.")
@click.option("--trace", "window", default=None, metavar="LO..HI", callback=_window,
              help="Append term-by-term rows for j in LO..HI, 1 <= LO <= HI <= X - 2.")
@_threads_option
def twins(x: int, verify: bool, window: tuple[int, int] | None, threads: int) -> None:
    """Count twin prime pairs (p, p+2) with p+2 <= X."""
    try:  # trace_terms checks the window before the count and makes its rows after it
        rows = window and census.trace_terms(census.PairCountQuery(x, 1), window)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=["--trace"])
    count = census.count_twin(x, threads=threads).formula_count
    _echo_count("x,t2", (x,), count, oracle.oracle_pair_count(x, 1) if verify else None)
    if rows:
        _echo_rows("j,s_j,s_j_plus_gap,term", rows)


@main.command()
@click.argument("x", type=_X)
@click.option("--gap", "gaps", type=int, required=True, callback=_gaps,
              help="Pair gap 2n (even, >= 2).")
@click.option("--verify", is_flag=True, help="Also run the sieve oracle and compare.")
@_threads_option
def pairs(x: int, gaps: list[int], verify: bool, threads: int) -> None:
    """Count prime pairs (p, p+GAP) with p+GAP <= X."""
    (gap,) = gaps
    count = census.count_pairs(census.PairCountQuery(x, gap // 2), threads=threads).formula_count
    truth = oracle.oracle_pair_count(x, gap // 2) if verify else None
    _echo_count("x,gap,count", (x, gap), count, truth)


@main.command("pi")
@click.argument("x", type=_X)
@click.option("--verify", is_flag=True, help="Also run the sieve oracle and compare.")
@_threads_option
def cmd_pi(x: int, verify: bool, threads: int) -> None:
    """Count primes <= X via the S-indicator sum."""
    count = census.count_primes(x, threads=threads).formula_count
    _echo_count("x,pi", (x,), count, oracle.oracle_pi(x) if verify else None)


@main.command()
@click.argument("lo", type=_N)
@click.argument("hi", type=_N)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Destination file (default: stdout for csv, s_LO_HI_CONV.skt for cache).")
@click.option("--format", "fmt", type=click.Choice(["csv", "cache"]), default="csv",
              show_default=True)
@_convention_option("formula")
@_threads_option
def table(lo: int, hi: int, out_path: str | None, fmt: str, convention: str, threads: int) -> None:
    """Tabulate S(n) for n in [LO, HI] as CSV or a binary cache file."""
    if hi < lo:
        raise click.BadParameter(f"need LO <= HI, got [{lo}, {hi}]", param_hint=["LO", "HI"])
    conv = Convention(convention)
    if fmt == "csv":
        def pieces():  # lazy, so _write opens --out before any work; no piece spans two segments
            yield "n,s,is_fixed_point\n"
            for a, values in iter_segments(lo, hi, conv, threads=threads):
                for i in range(0, values.size, _CSV_ROWS):
                    rows = enumerate(values[i : i + _CSV_ROWS].tolist(), a + i)
                    yield "".join([f"{j},{v},{_bool_str(v == j)}\n" for j, v in rows])
        _write(pieces(), out_path)
        return
    if out_path is None:
        out_path = f"s_{lo}_{hi}_{conv.value}.skt"

    def blocks():  # iter_segments starts only once write_cache has opened its temp file
        for _, values in iter_segments(lo, hi, conv, threads=threads):
            yield values

    try:
        write_cache(out_path, lo, hi, conv, blocks())
    except OSError as exc:
        _exit_io(f"cannot write {out_path}", exc)
    _write([f"{out_path}\n"])


@main.command()
@click.option("--max-x", type=_X, required=True, help="Largest x to check.")
@click.option("--gaps", "gap_list", default="2", show_default=True, callback=_gaps,
              help="Comma-separated even gaps to check.")
@click.option("--step", type=click.IntRange(min=1), default=1, show_default=True,
              help="Stride of the sampled x grid (max-x always included).")
@_threads_option
def verify(max_x: int, gap_list: list[int], step: int, threads: int) -> None:
    """Sweep formula-vs-oracle comparisons; exit 1 on any default-mode mismatch.

    A second section evaluates the uncorrected sum-from-1, S(1)=1 reading
    and reports (without failing) the x where it departs from the sieve;
    runs of consecutive sampled x with one delta compress to a single row.
    """
    grid = range(2, max_x + 1, step)
    add_max_x = bool(grid) and grid[-1] != max_x
    if len(grid) + add_max_x > MAX_VERIFY_POINTS:
        raise click.BadParameter(
            f"the sampled x grid has {len(grid) + add_max_x} points, over the "
            f"limit of {MAX_VERIFY_POINTS}; raise --step",
            param_hint=["--step"],
        )
    xs = np.arange(2, max_x + 1, step, dtype=np.int64)
    if add_max_x:
        xs = np.append(xs, max_x)
    # One pass over S gives every gap under both readings at the sampled x.
    formula, literal = census.sample_counts(xs, gap_list, threads=threads)
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
    _write([f"total_mismatches,{total}\n"])
    if total:
        sys.exit(_EXIT_MISMATCH)


def _runs(xs: np.ndarray, delta: np.ndarray):
    """(x_from, x_to, delta) for each run of one nonzero delta over consecutive entries."""
    # With a 0 before and after, every change of delta ends one run and starts the next.
    edges = np.flatnonzero(np.diff(delta, prepend=0, append=0))
    starts, stops = edges[:-1], edges[1:] - 1
    keep = delta[starts] != 0
    return zip(xs[starts[keep]].tolist(), xs[stops[keep]].tolist(), delta[starts[keep]].tolist())


if __name__ == "__main__":
    main()
