"""Independent ground truth for the counting formulas and S kernels.

A classic segmented, odd-only sieve of Eratosthenes with flags packed eight
to a byte.  Nothing here shares a code path with the kernels under test;
``oracle_s`` (the definition-literal scan re-exported from core) is the one
sanctioned exception and the shared root of trust.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .core import Convention, _as_u64, s_naive

__all__ = [
    "DEFAULT_BITSET_CAP",
    "PrimeSieve",
    "oracle_pair_count",
    "oracle_pi",
    "oracle_s",
    "pair_count_sweep",
    "pair_counts_at",
    "pair_members",
    "pi_sweep",
    "sieve_primes",
]

DEFAULT_BITSET_CAP = 1 << 28  # bytes of packed flags; 2^28 covers limits near 4.2e9

_ORACLE_S_LIMIT = 10**6


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

    def flags(self, upto: int | None = None) -> np.ndarray:
        """Primality as a dense bool array indexed by n, for n in [0, upto]."""
        upto = self.limit if upto is None else _as_u64(upto, "upto")
        if upto > self.limit:
            raise ValueError(f"{upto} beyond sieve limit {self.limit}")
        out = np.zeros(upto + 1, dtype=bool)
        n_odd = (upto + 1) // 2
        if n_odd:
            out[1::2] = np.unpackbits(self.bits, count=n_odd).view(bool)
        if upto >= 2:
            out[2] = True
        return out

    def count(self) -> int:
        """pi(limit): number of set bits, plus one for the prime 2."""
        n_odd = (self.limit + 1) // 2
        odd = int(np.unpackbits(self.bits, count=n_odd).sum()) if n_odd else 0
        return odd + (1 if self.limit >= 2 else 0)

    def primes(self, upto: int | None = None) -> np.ndarray:
        return np.flatnonzero(self.flags(upto))


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


def check_limit(limit: int, max_bytes: int = DEFAULT_BITSET_CAP) -> None:
    """Raise ValueError when a sieve to limit would need more than max_bytes of flags."""
    packed = ((limit + 1) // 2 + 7) // 8
    if packed > max_bytes:
        raise ValueError(
            f"sieve to {limit} needs {packed} bitset bytes, over the cap of {max_bytes}"
        )


def sieve_primes(
    limit: int,
    max_bytes: int = DEFAULT_BITSET_CAP,
    segment_size: int = 1 << 20,
) -> PrimeSieve:
    """Segmented odd-only sieve of Eratosthenes up to limit, inclusive.

    Rejects limits whose packed bitset would exceed max_bytes; working
    memory beyond the bitset is one bool segment plus the base primes.
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


def pair_members(x: int, half_gap: int, sieve: PrimeSieve | None = None) -> np.ndarray:
    """Smaller members p of every counted pair (p, p + 2n) with p + 2n <= x."""
    x = _as_u64(x, "x")
    half_gap = _as_u64(half_gap, "half_gap", minimum=1)
    gap = 2 * half_gap
    if x < gap + 2:
        return np.empty(0, dtype=np.int64)
    if sieve is None:
        sieve = sieve_primes(x)
    flags = sieve.flags(x)
    return np.flatnonzero(flags[: x + 1 - gap] & flags[gap:])


def pair_count_sweep(
    max_x: int, half_gap: int, sieve: PrimeSieve | None = None
) -> np.ndarray:
    """Pair count for every x in [0, max_x] (pairs indexed by larger member)."""
    max_x = _as_u64(max_x, "max_x")
    half_gap = _as_u64(half_gap, "half_gap", minimum=1)
    return pair_counts_at(np.arange(max_x + 1), [2 * half_gap], sieve)[0]


def pair_counts_at(
    xs: np.ndarray, gaps: list[int], sieve: PrimeSieve | None = None
) -> np.ndarray:
    """Pair counts at sampled x: ``counts[k, i]`` counts the prime pairs
    (p, p + gaps[k]) with p + gaps[k] <= xs[i].

    The sieve is unpacked once; each gap costs one scan of the flags for
    its pairs and one binary search per sampled x.
    """
    xs = np.asarray(xs, dtype=np.int64)
    max_x = _as_u64(int(xs.max()) if xs.size else 0, "max(xs)")
    if sieve is None:
        sieve = sieve_primes(max_x)
    flags = sieve.flags(max_x)
    counts = np.empty((len(gaps), xs.size), dtype=np.int64)
    for k, gap in enumerate(gaps):
        gap = _as_u64(gap, "gap", minimum=2)
        if gap % 2:
            raise ValueError(f"gap must be even (got {gap})")
        larger = np.flatnonzero(flags[:-gap] & flags[gap:]) + gap
        counts[k] = np.searchsorted(larger, xs, side="right")
    return counts


def oracle_s(n: int) -> int:
    """S(n) straight from the definition (delegates to the naive scan).

    Kept as a named oracle so test suites depend on the definition rather
    than the optimized kernel; restricted to n <= 10^6 to keep the scan
    cheap.
    """
    n = _as_u64(n, "n", minimum=1)
    if n > _ORACLE_S_LIMIT:
        raise ValueError(f"oracle_s is limited to n <= {_ORACLE_S_LIMIT} (got {n})")
    return s_naive(n, Convention.PAPER_LITERAL)
