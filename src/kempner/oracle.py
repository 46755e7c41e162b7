"""Independent ground truth for the prime and prime-pair counts.

A classic segmented, odd-only sieve of Eratosthenes (Bays & Hudson, BIT 17,
1977): one bool flag per odd number, marked segment by segment in one reused
buffer, with base primes read from the same stream up to the square root.
Every count streams the segments; only :func:`sieve_primes` keeps them all,
under a memory cap: a read-only bool array whose entry k is the primality of
2k + 1, which every count accepts as its ``sieve``.  Nothing here shares a
code path with the kernels under test; only the argument checks come from
core: the integer checks and :func:`kempner.core._sample_points`, the
sample-point check of both sides.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .core import _as_i64, _as_u64, _sample_points

__all__ = [
    "DEFAULT_MEMORY_CAP",
    "oracle_pair_count",
    "oracle_pi",
    "pair_counts_at",
    "sieve_primes",
]

# Bytes a sieve_primes sieve may hold, one per odd n (see check_limit).
# 2^32 covers limits up to 2^33, past the base sieve of any x below 2^63.
DEFAULT_MEMORY_CAP = 1 << 32

# Odd numbers per sieve segment; no flag or count depends on it (tests patch it).
SEGMENT_SIZE = 1 << 20


def check_limit(limit: int) -> None:
    """Raise ValueError when a sieve to limit, one byte per odd n <= limit,
    would pass DEFAULT_MEMORY_CAP.  Under the default cap it admits limits
    up to 8,589,934,592 (2^33)."""
    need = (limit + 1) // 2
    if need > DEFAULT_MEMORY_CAP:
        raise ValueError(
            f"sieve to {limit} needs {need} bytes of flags, over the cap of {DEFAULT_MEMORY_CAP}"
        )


def _segments(limit: int, sieve: np.ndarray | None = None):
    """Yield ``(k0, seg)`` in order, ``seg[i]`` the primality of the odd number
    2(k0 + i) + 1 <= limit: views of a :func:`sieve_primes` array, which must
    reach limit, or else one buffer marked anew at each step by the odd
    primes up to isqrt(limit), which this stream itself yields."""
    n_odd = (limit + 1) // 2
    if sieve is not None:
        if n_odd > sieve.size:
            raise ValueError(f"{limit} beyond sieve limit {2 * sieve.size}")
        for k0 in range(0, n_odd, SEGMENT_SIZE):
            yield k0, sieve[k0 : min(k0 + SEGMENT_SIZE, n_odd)]
        return
    roots = _segments(isqrt(limit)) if limit >= 9 else ()  # 3 is the least odd prime
    base = [p for k, seg in roots for p in (2 * (k + np.flatnonzero(seg)) + 1).tolist()]
    buffer = np.empty(min(SEGMENT_SIZE, n_odd), dtype=bool)
    for k0 in range(0, n_odd, SEGMENT_SIZE):
        seg = buffer[: min(SEGMENT_SIZE, n_odd - k0)]
        seg[:] = True
        if not k0:
            seg[0] = False  # the number 1
        hi_val = 2 * (k0 + seg.size) - 1
        for p in base:
            start = p * p
            if start > hi_val:
                break
            first = max(start, -(-(2 * k0 + 1) // p) * p)
            if first % 2 == 0:
                first += p
            seg[(first - 1) // 2 - k0 :: p] = False
        yield k0, seg


def sieve_primes(limit: int) -> np.ndarray:
    """The odd-only sieve up to limit, inclusive, kept whole for reuse: a
    read-only bool array whose entry k is the primality of 2k + 1 <= limit.
    Rejects limits over the memory cap (see :func:`check_limit`)."""
    limit = _as_u64(limit, "limit")
    check_limit(limit)
    odd = np.empty((limit + 1) // 2, dtype=bool)
    for k0, seg in _segments(limit):
        odd[k0 : k0 + seg.size] = seg
    odd.flags.writeable = False
    return odd


def oracle_pi(x: int, sieve: np.ndarray | None = None) -> int:
    """Exact pi(x): the odd primes up to x, counted segment by segment, plus the prime 2."""
    x = _as_i64(x, "x")
    return sum(int(np.count_nonzero(seg)) for _, seg in _segments(x, sieve)) + (x >= 2)


def oracle_pair_count(x: int, half_gap: int, sieve: np.ndarray | None = None) -> int:
    """Number of prime pairs (p, p + 2n) with p + 2n <= x, by sieve scan."""
    x = _as_i64(x, "x")
    half_gap = _as_u64(half_gap, "half_gap", minimum=1)
    return int(pair_counts_at(np.array([x]), [2 * half_gap], sieve)[0, 0])


def pair_counts_at(
    xs: np.ndarray, gaps: list[int], sieve: np.ndarray | None = None
) -> np.ndarray:
    """Prime and pair counts at ascending sample points: ``counts[k, i]``
    counts the prime pairs (p, p + gaps[k]) with p + gaps[k] <= xs[i], and
    for gap 0 the primes p <= xs[i], i.e. pi(xs[i]).

    Both members of a pair are odd, as the gap is even, so one pass over
    the streamed segments pairs odd k with k + gap/2, each gap carrying its
    last gap/2 flags (none when no pair fits under xs[-1]) from segment to
    segment; gap 0 counts the flags and adds the prime 2 from x = 2 on.
    In a segment that holds sample points, each gap's counts there are read
    by popcount from its pair mask packed into uint64 words, so per gap a
    segment holds one pair mask plus n/64 words.  Memory is
    O(SEGMENT_SIZE + gaps + pi(sqrt(xs[-1]))) besides the xs.
    The xs and gaps are checked before any sieving by
    :func:`kempner.core._sample_points`, as for :func:`kempner.census.sample_counts`.
    """
    xs, gaps = _sample_points(xs, gaps)
    max_x = int(xs[-1]) if xs.size else 0
    ks = (xs + 1) // 2  # each x counts the hits at odd index k < ks
    n_odd = (max_x + 1) // 2
    tails = {k: np.zeros(gap // 2, dtype=bool) for k, gap in enumerate(gaps) if gap // 2 < n_odd}
    seen = dict.fromkeys(tails, 0)
    counts = np.zeros((len(gaps), xs.size), dtype=np.int64)
    # Zeros pad the pair mask to whole 64-bit words, at least one past a segment.
    pair = np.zeros(min(SEGMENT_SIZE, n_odd) // 64 * 64 + 64, dtype=bool)
    lo = 0
    for k0, seg in _segments(max_x, sieve):
        n = seg.size
        hi = int(np.searchsorted(ks, k0 + n, side="right"))
        # Each x in the segment counts the hits below its offset t: bit t % 64
        # of word t // 64 of the packed pair mask.
        bit = ks[lo:hi] - k0  # t, until its word is taken
        w = bit >> 6
        bit &= 63
        pair[n:] = False
        for k, tail in tails.items():
            # The pair at each flag ANDs it with the flag h places back: the
            # carried tail for the first m, the segment itself after them.
            h, m = tail.size, min(n, tail.size)
            np.logical_and(tail[:m], seg[:m], out=pair[:m])
            np.logical_and(seg[: n - m], seg[m:n], out=pair[m:n])
            tail[: h - m] = tail[m:]
            tail[h - m :] = seg[n - m :]
            if w.size:
                # The popcounts of the packed words summed through t's word,
                # less the hits from t's bit up; the padding word holds t = n.
                # Arrays of one entry per point keep 8-byte entries: numpy
                # caches freed arrays under 1 KiB, and uint8 ones, in every
                # size below that, fragment the heap.
                words = np.packbits(pair[: n // 64 * 64 + 64], bitorder="little").view("<u8")
                above = words[w]
                above >>= bit.view(np.uint64)
                np.bitwise_count(above, out=above)
                prefix = words.view(np.int64)
                np.cumsum(np.bitwise_count(words, out=prefix), out=prefix)
                prefix += seen[k]
                np.subtract(prefix[w], above.view(np.int64), out=counts[k, lo:hi])
            seen[k] += np.count_nonzero(pair[:n])
        lo = hi
    counts[np.array(gaps, dtype=np.int64) == 0] += xs >= 2
    return counts
