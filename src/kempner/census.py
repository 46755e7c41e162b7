"""Exact prime-pair and prime counts driven by fixed points of S.

For j >= 2 we have S(j) <= j with equality exactly when j is prime or
j = 4, so the summand

    floor( S(j) * S(j+2n) / (j * (j+2n)) )

is 1 precisely when both coordinates are fixed points and 0 otherwise.
Summing it over j counts the pairs (p, p + 2n) with larger member <= x,
with one spurious hit at (2, 4) in the twin case; the twin count subtracts
that hit once it has actually entered the summation range (x >= 4).

The j = 1 term is the delicate one.  Under the classical S(1) = 1 the term
floor(S(1) S(1+2n) / (1 + 2n)) is 1 whenever 1 + 2n is prime, wrongly
counting (1, 1+2n).  Either starting the sum at j = 2 (PAPER_LITERAL) or
zeroing S(1) (FORMULA_CONSISTENT) removes it, and both give the same count,
so the counts take no convention; :func:`trace_terms` takes one to show
the S values and terms each gives.  The uncorrected sum-from-1 behavior
stays reachable through ``literal=True`` so the off-by-one can be
demonstrated and reported rather than silently hidden.

Every count reads one stream of fixed-point flags S(j) = j for j in
[1, x], taken segment by segment from :func:`kempner.table.iter_segments`
under FORMULA_CONSISTENT, where S(1) = 0 leaves j = 1 unset as both
default readings do.  A pair counter carries the last 2n flags from one
segment to the next, so memory is O(threads * SEGMENT_SIZE + 2n) rather
than O(x), and one pass serves any number of gaps, each counted once for
both readings.  The readings differ only in the j = 1 term: the literal
reading, where S(1) = 1 and the sum starts at j = 1, adds the term
floor(S(1) S(1+2n) / (1+2n)) once x >= 1 + 2n.  That term is the
fixed-point flag at 1 + 2n, read from the same stream (1 for gap 0, as
S(1) = 1 is a fixed point).  All arithmetic is exact integers.  Nothing
here reads :mod:`kempner.oracle`; only the CLI compares the two sides.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from time import perf_counter

import numpy as np

from .core import Convention, _as_i64, _as_u64, _sample_points
from .table import iter_segments, s_range

__all__ = [
    "CountReport",
    "PairCountQuery",
    "count_pairs",
    "count_primes",
    "count_twin",
    "pair_term",
    "trace_terms",
]


# The hits of composite fixed points in the sums, by gap (0 counts fixed
# points alone) -> larger member: 4 alone, and the pair (2, 4).  Each is one
# spurious hit in every count that reaches its larger member.
_COMPOSITE_HITS = {0: 4, 2: 4}
# Entries of j per fixed-point compare in sample_counts: a whole-segment
# arange of j beside each segment raises verify's peak RSS.
_COMPARE = 1 << 16
# Largest trace_terms window: its rows are held in memory, about 150 bytes each.
MAX_TRACE_ROWS = 1 << 20


@dataclass(frozen=True)
class PairCountQuery:
    """One counting run: pairs (p, p + 2*half_gap) with the larger member <= x.

    x and the gap are below 2^63, as the counts index them as int64.
    """

    x: int
    half_gap: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _as_i64(self.x, "x"))
        object.__setattr__(self, "half_gap", _as_u64(self.half_gap, "half_gap", minimum=1))
        _as_i64(self.gap, "gap")

    @property
    def gap(self) -> int:
        return 2 * self.half_gap


@dataclass
class CountReport:
    """Outcome of a counting run: the formula count, the composite-hit
    correction already in it (0 or -1) and the wall time of the run.  Every
    field after ``formula_count`` is keyword-only."""

    formula_count: int
    _: KW_ONLY
    correction_applied: int = 0
    elapsed: float = 0.0


def pair_term(j: int, half_gap: int, s_j: int, s_j2n: int) -> int:
    """The literal summand floor(S(j) S(j+2n) / (j (j+2n))).

    Evaluated with exact (unbounded) integer arithmetic, so products past
    64 bits never truncate.  For genuine S values it is 1 exactly when
    s_j = j and s_j2n = j + 2n (S(k) <= k), the fixed-point test the counters
    apply to each segment; the equivalence is property-tested.
    """
    j = _as_u64(j, "j", minimum=1)
    half_gap = _as_u64(half_gap, "half_gap", minimum=1)
    s_j = _as_u64(s_j, "s_j")
    s_j2n = _as_u64(s_j2n, "s_j2n")
    return (s_j * s_j2n) // (j * (j + 2 * half_gap))


class _Tally:
    """Fixed points (gap 0) or pairs (j, j + gap) of fixed points, counted as
    the flag segments of [1, x] stream past, each hit at its larger member.

    The flags are the default reading's, with j = 1 unset.  The last ``gap``
    flags carry from one segment to the next, so a segment may be shorter
    than the gap; no j <= 0 is a fixed point.  ``counts[i]`` is the number of
    hits up to ``xs[i]`` (xs ascending).  A segment that holds sample points
    reads their counts by popcount from its pair mask packed into uint64
    words, so a feed of n flags holds one pair mask plus n/64 words.
    ``term`` is the literal reading's j = 1 term, which it adds from
    x = 1 + gap on: the flag at 1 + gap, or 1 for gap 0.
    """

    def __init__(self, gap: int, xs: np.ndarray) -> None:
        self.gap, self.xs = gap, xs
        self.tail = np.zeros(gap, dtype=bool)
        self.counts = np.zeros(xs.size, dtype=np.int64)
        self.seen = 0
        self.term = int(gap == 0)

    def feed(self, a: int, flags: np.ndarray) -> None:
        n, gap = flags.size, self.gap
        if gap and a <= 1 + gap < a + n:
            self.term = int(flags[1 + gap - a])
        # The pair at each flag ANDs it with the flag gap places back: the
        # carried tail for the first m, the segment itself after them.  Zeros
        # pad it to whole 64-bit words, at least one past the segment.
        m = min(n, gap)
        pair = np.empty(n // 64 * 64 + 64, dtype=bool)
        pair[n:] = False
        np.logical_and(self.tail[:m], flags[:m], out=pair[:m])
        np.logical_and(flags[: n - m], flags[m:], out=pair[m:n])
        self.tail = np.concatenate((self.tail[m:], flags[n - m :]))
        lo, hi = np.searchsorted(self.xs, (a, a + n))
        if hi > lo:
            # The hits below offset t = x + 1 - a of each sample point x: the
            # popcounts of the packed words summed through word t // 64, less
            # the hits from bit t % 64 up.  The padding word keeps t = n in
            # range.  Arrays of one entry per point keep 8-byte entries: numpy
            # caches freed arrays under 1 KiB for reuse, and uint8 ones, in
            # every size below that, fragment the heap (up to 6 MiB more
            # peak RSS over repeated verify runs).
            bit = self.xs[lo:hi] + (1 - a)  # t, until its word is taken
            w = bit >> 6
            bit &= 63
            words = np.packbits(pair, bitorder="little").view("<u8")
            above = words[w]
            above >>= bit.view(np.uint64)
            np.bitwise_count(above, out=above)
            prefix = words.view(np.int64)
            np.cumsum(np.bitwise_count(words, out=prefix), out=prefix)
            prefix += self.seen
            np.subtract(prefix[w], above.view(np.int64), out=self.counts[lo:hi])
        self.seen += np.count_nonzero(pair)


def _count(x: int, gap: int, literal: bool, threads: int) -> CountReport:
    """The count at one x (gap 0 counts primes), read from :func:`sample_counts`."""
    started = perf_counter()
    counts = sample_counts(np.array([x]), [gap], threads=threads)
    return CountReport(
        formula_count=int(counts[int(literal), 0, 0]),
        correction_applied=-int(x >= _COMPOSITE_HITS.get(gap, x + 1)),
        elapsed=perf_counter() - started,
    )


def count_twin(x: int, *, literal: bool = False, threads: int = 1) -> CountReport:
    """Exact number of twin prime pairs (p, p + 2) with p + 2 <= x.

    The summation runs to x - 2, i.e. the larger member is <= x.  One -1
    correction removes the spurious (2, 4) hit, applied exactly when that
    term is inside the range (x >= 4).  With ``literal=True`` the sum runs
    from j = 1 with S(1) = 1, which overcounts by the documented j = 1
    anomaly; counts then exceed the sieve by 1 for every x >= 3.
    """
    return count_pairs(PairCountQuery(x, 1), literal=literal, threads=threads)


def count_pairs(query: PairCountQuery, *, literal: bool = False, threads: int = 1) -> CountReport:
    """Exact number of prime pairs (p, p + 2n) with p + 2n <= x.

    For half_gap >= 2 no correction term is needed: among j >= 2 the only
    fixed-point pair that is not a prime pair is (2, 4), which requires
    gap 2; half_gap = 1 is :func:`count_twin`.  With ``literal=True`` the
    j = 1 term is included under S(1) = 1 and overcounts by one whenever
    2n + 1 is prime; that mode exists to be reported, not corrected.
    """
    return _count(query.x, query.gap, literal, threads)


def count_primes(x: int, *, threads: int = 1) -> CountReport:
    """pi(x) as the sum of floor(S(j)/j) for j in [2, x], minus 1 once x >= 4.

    For j >= 2 the summand is the fixed-point indicator, which hits every
    prime plus the lone composite fixed point j = 4; the -1 removes that
    hit as soon as it is in range.  S(1) never enters the result, since
    the sum starts at j = 2.
    """
    x = _as_i64(x, "x")
    return _count(x, 0, False, threads)


def trace_terms(
    query: PairCountQuery,
    window: tuple[int, int],
    conv: Convention = Convention.FORMULA_CONSISTENT,
) -> list[tuple[int, int, int, int]]:
    """Term-by-term view of the pair summation over a window of j.

    Returns rows (j, S(j), S(j + 2n), term) with S(1) set by ``conv`` and
    the term computed by the literal floored division, so convention
    anomalies (notably j = 1 under S(1) = 1) are visible rather than
    masked.  S is computed over the window and over the window shifted by
    2n only, so memory follows the window, not the gap; a window of more
    than MAX_TRACE_ROWS rows raises ValueError before any S is computed.
    """
    lo, hi = window
    lo = _as_u64(lo, "window lo", minimum=1)
    hi = _as_u64(hi, "window hi")
    if not lo <= hi < lo + MAX_TRACE_ROWS:
        raise ValueError(f"window ({lo}, {hi}) must hold 1 to {MAX_TRACE_ROWS} rows")
    if hi > query.x - query.gap:
        raise ValueError(
            f"window must lie within [1, {query.x - query.gap}] for x={query.x}, "
            f"gap={query.gap}"
        )
    s_j = s_range(lo, hi, conv).values.tolist()
    s_j2n = s_range(lo + query.gap, hi + query.gap, conv).values.tolist()
    return [
        (j, a, b, pair_term(j, query.half_gap, a, b))
        for j, a, b in zip(range(lo, hi + 1), s_j, s_j2n)
    ]


def sample_counts(xs: np.ndarray, gaps: list[int], *, threads: int = 1) -> np.ndarray:
    """Counts at ascending sample points for several gaps and both readings, from one pass over S.

    ``counts[r, k, i]`` is the count at x = xs[i] of gap 2n = gaps[k] pairs
    as :func:`count_pairs` gives it with ``literal=bool(r)``: row 0 is the
    default reading and row 1 the literal one.  Gap 0 counts primes as
    :func:`count_primes` does.  One tally per gap serves both readings: the
    literal count is the default count plus the j = 1 term, the flag at
    1 + 2n read from the stream, from x = 1 + 2n on.  ``xs = np.arange(x + 1)``
    gives every count up to x.  xs and the gaps are checked by
    :func:`kempner.core._sample_points`, as for :func:`kempner.oracle.pair_counts_at`.
    """
    xs, gaps = _sample_points(xs, gaps)
    top = int(xs[-1]) if xs.size else 0
    segments = iter_segments(1, max(top, 1), Convention.FORMULA_CONSISTENT, threads=threads)
    # No pair up to top has a gap of top or more, so such a gap counts as top
    # does and carries no more than top flags; its term lies past top.
    tallies = [_Tally(min(gap, top), xs) for gap in gaps]
    if top:  # one pass over S feeds the flags of j in [1, top]; S(1) = 0 leaves j = 1 unset
        for a, values in segments:
            # S(j) = j, compared against j in pieces of at most _COMPARE entries.
            flags = np.empty(values.size, dtype=bool)
            for i in range(0, values.size, _COMPARE):
                piece = values[i : i + _COMPARE]
                j = np.arange(a + i, a + i + piece.size, dtype=values.dtype)
                np.equal(piece, j, out=flags[i : i + piece.size])
            for tally in tallies:
                tally.feed(a, flags)
    counts = np.empty((2, len(gaps), xs.size), dtype=np.int64)
    for k, (gap, tally) in enumerate(zip(gaps, tallies)):
        counts[:, k] = tally.counts
        counts[1, k] += tally.term * (xs >= 1 + tally.gap)
        if gap in _COMPOSITE_HITS:
            counts[:, k] -= xs >= _COMPOSITE_HITS[gap]
    return counts
