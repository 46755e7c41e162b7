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
    the streamed segments pairs odd k with k + h, h = gap/2 capped at the
    (xs[-1] + 1) // 2 odd numbers; gap 0 counts the flags and adds the prime
    2 from x = 2 on.  Each segment is packed once into uint64 words behind
    the last max(h) flags or more, one window for all gaps, and each gap's
    counts are read by popcount from the words ANDed with themselves h back.
    Memory is O(SEGMENT_SIZE + max(h) + gaps + pi(sqrt(xs[-1]))) besides the xs.
    The xs and gaps are checked before any sieving by
    :func:`kempner.core._sample_points`, as for :func:`kempner.census.sample_counts`.
    """
    xs, gaps = _sample_points(xs, gaps)
    max_x = int(xs[-1]) if xs.size else 0
    ks = (xs + 1) // 2  # each x counts the hits at odd index k < ks
    n_odd = (max_x + 1) // 2
    # The window: the last 64s flags (zeros before k = 0), a word more than any
    # gap reads back, then the segment's, zero-padded to whole words and one more.
    shifts = [min(gap // 2, n_odd) for gap in gaps]
    s = (max(shifts, default=0) + 127) // 64
    window = np.zeros(64 * (s + min(SEGMENT_SIZE, n_odd) // 64 + 1), dtype=bool)
    seen = [0] * len(gaps)
    counts = np.zeros((len(gaps), xs.size), dtype=np.int64)
    lo = 0
    for k0, seg in _segments(max_x, sieve):
        n = seg.size
        window[64 * s : 64 * s + n] = seg
        window[64 * s + n :] = False
        words = np.packbits(window, bitorder="little").view("<u8")
        hi = int(np.searchsorted(ks, k0 + n, side="right"))
        # Each x in the segment counts the hits below its offset t: bit t % 64
        # of word t // 64 of a gap's pair words.
        bit = ks[lo:hi] - k0  # t, until its word is taken
        w = bit >> 6
        bit &= 63
        for k, h in enumerate(shifts):
            # The pair at each flag ANDs it with the flag h = 64q + r back: the
            # words q and q + 1 back, shifted (numpy gives 0 for a shift by 64).
            q, r = h >> 6, h & 63
            pair = words[s - q - 1 : words.size - q - 1] >> (64 - r)
            pair |= words[s - q : words.size - q] << r
            pair &= words[s:]
            # The popcounts of the pair words summed through t's word, less
            # the hits from t's bit up; the padding word holds t = n.
            # Arrays of one entry per point keep 8-byte entries: numpy
            # caches freed arrays under 1 KiB, and uint8 ones, in every
            # size below that, fragment the heap.
            above = pair[w]
            np.bitwise_count(np.right_shift(above, bit.view(np.uint64), out=above), out=above)
            prefix = pair.view(np.int64)
            np.cumsum(np.bitwise_count(pair, out=prefix), out=prefix)
            prefix += seen[k]
            np.subtract(prefix[w], above.view(np.int64), out=counts[k, lo:hi])
            seen[k] = int(prefix[-1])
        window[: 64 * s] = window[n : 64 * s + n]
        lo = hi
    counts[np.array(gaps, dtype=np.int64) == 0] += xs >= 2
    return counts
