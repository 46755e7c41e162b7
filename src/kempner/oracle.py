"""Independent ground truth for the prime and prime-pair counts.

A classic segmented, odd-only sieve of Eratosthenes with flags packed eight
to a byte.  Nothing here shares a code path with the kernels under test;
only the integer argument checks come from core.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .core import _as_i64, _as_u64

__all__ = [
    "DEFAULT_MEMORY_CAP",
    "PrimeSieve",
    "oracle_pair_count",
    "oracle_pi",
    "pair_counts_at",
    "pi_sweep",
    "sieve_primes",
]

# Bytes a count to a limit may take: the packed flags plus 2 bytes per n
# (the unpacked flags and a pair mask of the same length).  2^32 covers
# limits near 2.08e9.
DEFAULT_MEMORY_CAP = 1 << 32


@dataclass
class PrimeSieve:
    """Packed odd-only primality flags for all n <= limit.

    Bit k (MSB-first within each byte, matching ``np.packbits``) flags the
    odd number 2k + 1; the prime 2 is handled explicitly.
    """

    limit: int
    bits: np.ndarray  # uint8

    def is_prime(self, n: int) -> bool:
        """Bit test for 0 <= n <= limit."""
        n = _as_u64(n, "n")
        if n > self.limit:
            raise ValueError(f"{n} beyond sieve limit {self.limit}")
        if n == 2:
            return True
        if n < 2 or n % 2 == 0:
            return False
        k = (n - 1) // 2
        return bool((self.bits[k >> 3] >> (7 - (k & 7))) & 1)

    def odd_flags(self, upto: int | None = None) -> np.ndarray:
        """Primality of the odd numbers 2k + 1 <= upto, as a bool array indexed by k."""
        upto = self.limit if upto is None else _as_u64(upto, "upto")
        if upto > self.limit:
            raise ValueError(f"{upto} beyond sieve limit {self.limit}")
        return np.unpackbits(self.bits, count=(upto + 1) // 2).view(bool)

    def flags(self, upto: int | None = None) -> np.ndarray:
        """Primality as a dense bool array indexed by n, for n in [0, upto]."""
        upto = self.limit if upto is None else _as_u64(upto, "upto")
        odd = self.odd_flags(upto)
        out = np.zeros(upto + 1, dtype=bool)
        out[1::2] = odd
        if upto >= 2:
            out[2] = True
        return out


def _simple_odd_primes(limit: int) -> list[int]:
    """Odd primes <= limit (base primes for segment marking)."""
    if limit < 3:
        return []
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return [int(p) for p in np.flatnonzero(flags) if p % 2]


def check_limit(limit: int, max_bytes: int = DEFAULT_MEMORY_CAP) -> None:
    """Raise ValueError when counting to limit would take more than max_bytes.

    A prime count holds the packed flags and unpacks them to one byte per n
    (:meth:`PrimeSieve.flags`); a pair count unpacks them to one byte per odd
    n (:meth:`PrimeSieve.odd_flags`) and ANDs a pair mask of the same length.
    Either fits in the packed flags plus 2 bytes per n.
    """
    need = ((limit + 1) // 2 + 7) // 8 + 2 * (limit + 1)
    if need > max_bytes:
        raise ValueError(
            f"sieve to {limit} needs {need} bytes of flags, over the cap of {max_bytes}"
        )


def sieve_primes(
    limit: int,
    max_bytes: int = DEFAULT_MEMORY_CAP,
    segment_size: int = 1 << 20,
) -> PrimeSieve:
    """Segmented odd-only sieve of Eratosthenes up to limit, inclusive.

    Rejects limits whose counts would take more than max_bytes (see
    :func:`check_limit`); working memory beyond the bitset is one bool
    segment plus the base primes.
    """
    limit = _as_u64(limit, "limit")
    check_limit(limit, max_bytes)
    n_odd = (limit + 1) // 2
    # Segments pack independently, so keep them byte-aligned in bit count.
    segment_size = max(8, segment_size - segment_size % 8)
    base = _simple_odd_primes(isqrt(limit))
    pieces = []
    for k0 in range(0, n_odd, segment_size):
        k1 = min(k0 + segment_size, n_odd)  # odd indices [k0, k1): numbers 2k+1
        seg = np.ones(k1 - k0, dtype=bool)
        if k0 == 0:
            seg[0] = False  # the number 1
        hi_val = 2 * (k1 - 1) + 1
        for p in base:
            start = p * p
            if start > hi_val:
                break
            first = max(start, ((2 * k0 + 1 + p - 1) // p) * p)
            if first % 2 == 0:
                first += p
            if first > hi_val:
                continue
            seg[(first - 1) // 2 - k0 :: p] = False
        pieces.append(np.packbits(seg))
    bits = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.uint8)
    return PrimeSieve(limit, bits)


def oracle_pi(x: int, sieve: PrimeSieve | None = None) -> int:
    """Exact pi(x) by direct sieve count."""
    x = _as_u64(x, "x")
    if sieve is None:
        sieve = sieve_primes(x)
    return int(np.count_nonzero(sieve.flags(x)))


def pi_sweep(max_x: int, sieve: PrimeSieve | None = None) -> np.ndarray:
    """pi(x) for every x in [0, max_x], as one cumulative-sum array."""
    max_x = _as_u64(max_x, "max_x")
    if sieve is None:
        sieve = sieve_primes(max_x)
    return np.cumsum(sieve.flags(max_x), dtype=np.int64)


def oracle_pair_count(x: int, half_gap: int, sieve: PrimeSieve | None = None) -> int:
    """Number of prime pairs (p, p + 2n) with p + 2n <= x, by sieve scan."""
    x = _as_u64(x, "x")
    half_gap = _as_u64(half_gap, "half_gap", minimum=1)
    return int(pair_counts_at(np.array([x]), [2 * half_gap], sieve)[0, 0])


def pair_counts_at(
    xs: np.ndarray, gaps: list[int], sieve: PrimeSieve | None = None
) -> np.ndarray:
    """Pair counts at sampled x: ``counts[k, i]`` counts the prime pairs
    (p, p + gaps[k]) with p + gaps[k] <= xs[i].

    Both members of a pair are odd, as the gap is even, so the odd-only bits
    are unpacked once, to the flags of the odd numbers up to max(xs); each
    gap costs one scan of them, odd k and k + gap/2 for the pair
    (2k + 1, 2(k + gap/2) + 1), and one binary search per sampled x.  The
    xs and gaps are checked, below 2^63, before the sieve is built.
    """
    xs = np.asarray(xs)
    max_x = _as_i64(int(xs.max()) if xs.size else 0, "max(xs)")
    gaps = [_as_i64(gap, "gap", minimum=2) for gap in gaps]
    for gap in gaps:
        if gap % 2:
            raise ValueError(f"gap must be even (got {gap})")
    xs = xs.astype(np.int64)
    if sieve is None:
        sieve = sieve_primes(max_x)
    odd = sieve.odd_flags(max_x)
    counts = np.empty((len(gaps), xs.size), dtype=np.int64)
    for k, gap in enumerate(gaps):
        h = gap // 2
        larger = 2 * (np.flatnonzero(odd[:-h] & odd[h:]) + h) + 1
        counts[k] = np.searchsorted(larger, xs, side="right")
    return counts
