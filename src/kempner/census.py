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
default readings do.  One loop over the segments serves every gap: a
segment packs its flags into 64-bit words once, behind the last flags up
to the largest gap, so each gap reads its pairs as a word shift, and it
finds its sample points once.  Memory is O(threads * SEGMENT_SIZE + max
gap), not O(x).  Each gap is counted once for both readings, which differ
only in the j = 1 term: the literal reading, where S(1) = 1 and the sum
starts at j = 1, adds floor(S(1) S(1+2n) / (1+2n)) once x >= 1 + 2n, the
fixed-point flag at 1 + 2n, read from the same stream (1 for gap 0, as
S(1) = 1 is a fixed point).  All arithmetic is exact integers.  Nothing
here reads :mod:`kempner.oracle`; only the CLI compares the two sides.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import KW_ONLY, dataclass
from time import perf_counter

import numpy as np

from .core import Convention, _as_i64, _as_u64, _sample_points
from .table import iter_segments

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
# Entries of j per fixed-point compare in sample_counts, and per list of S
# values in trace_terms: a whole segment at once raises their peak RSS.
_COMPARE = 1 << 16


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
    return _term(j, 2 * half_gap, s_j, s_j2n)


def _term(j: int, gap: int, s_j: int, s_j2n: int) -> int:
    """floor(S(j) S(j+gap) / (j (j+gap))) of Python ints, unchecked."""
    return (s_j * s_j2n) // (j * (j + gap))


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
) -> Iterator[tuple[int, int, int, int]]:
    """Term-by-term view of the pair summation over a window of j.

    The stream of rows (j, S(j), S(j + 2n), term), S(1) set by ``conv`` and
    the term the literal floored division, so convention anomalies (notably
    j = 1 under S(1) = 1) show rather than being masked.  Checked at the call,
    1 <= lo <= hi <= min(2^64 - 1, x - 2n).  S is made as the rows are taken,
    a segment of the window and of the window shifted by 2n at a time.
    """
    lo, hi = window
    lo = _as_u64(lo, "window lo", minimum=1)
    hi = _as_u64(hi, "window hi", minimum=lo)
    gap = query.gap
    if hi > query.x - gap:
        raise ValueError(f"window must lie within [1, {query.x - gap}] for x={query.x}, gap={gap}")
    # Both streams cut windows of one length at the same offsets: their segments pair up.
    segments = zip(iter_segments(lo, hi, conv), iter_segments(lo + gap, hi + gap, conv))

    def rows():
        for (a, s_j), (_, s_j2n) in segments:
            for i in range(0, s_j.size, _COMPARE):
                pieces = s_j[i : i + _COMPARE].tolist(), s_j2n[i : i + _COMPARE].tolist()
                for j, u, v in zip(range(a + i, a + i + _COMPARE), *pieces):
                    yield j, u, v, _term(j, gap, u, v)

    return rows()


def sample_counts(xs: np.ndarray, gaps: list[int], *, threads: int = 1) -> np.ndarray:
    """Counts at ascending sample points for several gaps and both readings, from one pass over S.

    ``counts[r, k, i]`` is the count at x = xs[i] of gap 2n = gaps[k] pairs
    as :func:`count_pairs` gives it with ``literal=bool(r)``: row 0 is the
    default reading and row 1 the literal one.  Gap 0 counts primes as
    :func:`count_primes` does.  Each gap is counted once for both readings:
    the literal count is the default count plus the j = 1 term, the flag at
    1 + 2n read from the stream, from x = 1 + 2n on.  ``xs = np.arange(x + 1)``
    gives every count up to x.  xs and the gaps are checked by
    :func:`kempner.core._sample_points`, as for :func:`kempner.oracle.pair_counts_at`.
    """
    xs, gaps = _sample_points(xs, gaps)
    top = int(xs[-1]) if xs.size else 0
    # No pair up to top has a gap of top or more, so such a gap counts as top
    # does and reads no flag more than top back; its term lies past top.  The
    # window: the last 64s flags (zeros before j = 1), a word more than any gap
    # reads back, then the segment's, zero-padded to whole words and one more.
    shifts = [min(gap, top) for gap in gaps]
    s = (max(shifts, default=0) + 127) // 64
    seen = [0] * len(gaps)
    terms = [int(gap == 0) for gap in gaps]  # the j = 1 term
    counts = np.zeros((2, len(gaps), xs.size), dtype=np.int64)
    lo = 0
    segments = iter_segments(1, max(top, 1), Convention.FORMULA_CONSISTENT, threads=threads)
    # One pass over S reads the flags of j in [1, top]; S(1) = 0 leaves j = 1 unset.
    for a, values in segments if top else ():
        n = values.size
        if a == 1:  # the first segment is the longest
            window = np.zeros(64 * (s + n // 64 + 1), dtype=bool)
        # S(j) = j, compared against j in pieces of at most _COMPARE entries.
        flags = window[64 * s : 64 * s + n]
        for i in range(0, n, _COMPARE):
            piece = values[i : i + _COMPARE]
            j = np.arange(a + i, a + i + piece.size, dtype=values.dtype)
            np.equal(piece, j, out=flags[i : i + piece.size])
        window[64 * s + n :] = False
        words = np.packbits(window, bitorder="little").view("<u8")
        # Each x in the segment counts the hits below its offset t = x + 1 - a:
        # bit t % 64 of word t // 64 of a gap's pair words.
        hi = int(np.searchsorted(xs, a + n))
        bit = xs[lo:hi] + (1 - a)  # t, until its word is taken
        w = bit >> 6
        bit &= 63
        for k, h in enumerate(shifts):
            if h and a <= 1 + h < a + n:
                terms[k] = int(flags[1 + h - a])
            # The pair at each flag ANDs it with the flag h = 64q + r back: the
            # words q and q + 1 back, shifted (numpy gives 0 for a shift by 64).
            q, r = h >> 6, h & 63
            pair = words[s - q - 1 : words.size - q - 1] >> (64 - r)
            pair |= words[s - q : words.size - q] << r
            pair &= words[s:]
            # The popcounts of the pair words summed through t's word, less
            # the hits from t's bit up; the padding word holds t = n.
            # Arrays of one entry per point keep 8-byte entries: numpy
            # caches freed arrays under 1 KiB for reuse, and uint8 ones, in
            # every size below that, fragment the heap (up to 6 MiB more
            # peak RSS over repeated verify runs).
            above = pair[w]
            np.bitwise_count(np.right_shift(above, bit.view(np.uint64), out=above), out=above)
            prefix = pair.view(np.int64)
            np.cumsum(np.bitwise_count(pair, out=prefix), out=prefix)
            prefix += seen[k]
            np.subtract(prefix[w], above.view(np.int64), out=counts[0, k, lo:hi])
            seen[k] = int(prefix[-1])
        window[: 64 * s] = window[n : 64 * s + n]
        lo = hi
    counts[1] = counts[0]
    for k, (gap, h) in enumerate(zip(gaps, shifts)):
        counts[1, k] += terms[k] * (xs >= 1 + h)
        if gap in _COMPOSITE_HITS:
            counts[:, k] -= xs >= _COMPOSITE_HITS[gap]
    return counts
