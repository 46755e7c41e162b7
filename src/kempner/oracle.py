"""Independent ground truth for the prime and prime-pair counts.

A classic segmented, odd-only sieve of Eratosthenes (Bays & Hudson, BIT 17,
1977): one bool flag per odd number, marked segment by segment in place.
Nothing here shares a code path with the kernels under test; only the
integer argument checks come from core.  :func:`oracle_pi` and
:func:`oracle_pair_count` count at one x; :func:`pair_counts_at` counts
primes (gap 0) and prime pairs at many x from one sieve.
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
    "sieve_primes",
]

# Bytes a sieve and a count to a limit may take (see check_limit).  2^32
# covers sieves to limits near 2.08e9.
DEFAULT_MEMORY_CAP = 1 << 32

# Odd numbers per sieve segment; the flags do not depend on it (tests patch it).
SEGMENT_SIZE = 1 << 20


@dataclass
class PrimeSieve:
    """Odd-only primality flags for all n <= limit.

    ``odd[k]`` (read-only) flags the odd number 2k + 1; the prime 2 is
    handled explicitly.
    """

    limit: int
    odd: np.ndarray  # bool

    def is_prime(self, n: int) -> bool:
        """Flag test for 0 <= n <= limit."""
        n = _as_u64(n, "n")
        if n > self.limit:
            raise ValueError(f"{n} beyond sieve limit {self.limit}")
        return n == 2 or (n % 2 == 1 and bool(self.odd[n // 2]))

    def odd_flags(self, upto: int | None = None) -> np.ndarray:
        """Primality of the odd numbers 2k + 1 <= upto, as a read-only view indexed by k."""
        upto = self.limit if upto is None else _as_u64(upto, "upto")
        if upto > self.limit:
            raise ValueError(f"{upto} beyond sieve limit {self.limit}")
        return self.odd[: (upto + 1) // 2]

    def flags(self, upto: int | None = None) -> np.ndarray:
        """Primality as a dense bool array indexed by n, for n in [0, upto]."""
        upto = self.limit if upto is None else _as_u64(upto, "upto")
        odd = self.odd_flags(upto)
        out = np.zeros(upto + 1, dtype=bool)
        out[1::2] = odd
        if upto >= 2:
            out[2] = True
        return out


def check_limit(limit: int) -> None:
    """Raise ValueError when sieving and counting to limit would pass DEFAULT_MEMORY_CAP.

    The charge is ceil(n_odd / 8) + 2 (limit + 1) bytes, n_odd = (limit + 1) // 2.
    It covers the sieve's odd flags (n_odd bytes) plus what a count adds on
    top: the dense flags of :meth:`PrimeSieve.flags` (one byte per n), or a
    pair mask (one byte per odd n) and the larger members of its pairs (for
    gap 0 no mask, and the primes themselves).
    Under the default cap it admits limits up to 2,082,408,384.
    """
    need = ((limit + 1) // 2 + 7) // 8 + 2 * (limit + 1)
    if need > DEFAULT_MEMORY_CAP:
        raise ValueError(
            f"sieve to {limit} needs {need} bytes of flags, over the cap of {DEFAULT_MEMORY_CAP}"
        )


def sieve_primes(limit: int) -> PrimeSieve:
    """Segmented odd-only sieve of Eratosthenes up to limit, inclusive.

    Rejects limits over the memory cap (see :func:`check_limit`).  The base
    primes, the odd primes up to isqrt(limit), come from this same sieve;
    each segment of SEGMENT_SIZE flags is marked in place.
    """
    limit = _as_u64(limit, "limit")
    check_limit(limit)
    root = isqrt(limit)
    base = [] if root < 3 else (2 * np.flatnonzero(sieve_primes(root).odd) + 1).tolist()
    odd = np.ones((limit + 1) // 2, dtype=bool)
    odd[:1] = False  # the number 1
    for k0 in range(0, odd.size, SEGMENT_SIZE):
        seg = odd[k0 : k0 + SEGMENT_SIZE]  # flags of 2k + 1 for k0 <= k < k0 + seg.size
        hi_val = 2 * (k0 + seg.size) - 1
        for p in base:
            start = p * p
            if start > hi_val:
                break
            first = max(start, -(-(2 * k0 + 1) // p) * p)
            if first % 2 == 0:
                first += p
            seg[(first - 1) // 2 - k0 :: p] = False
    odd.flags.writeable = False
    return PrimeSieve(limit, odd)


def oracle_pi(x: int, sieve: PrimeSieve | None = None) -> int:
    """Exact pi(x): the odd primes up to x, counted in place, plus the prime 2."""
    x = _as_u64(x, "x")
    if sieve is None:
        sieve = sieve_primes(x)
    return int(np.count_nonzero(sieve.odd_flags(x))) + (x >= 2)


def oracle_pair_count(x: int, half_gap: int, sieve: PrimeSieve | None = None) -> int:
    """Number of prime pairs (p, p + 2n) with p + 2n <= x, by sieve scan."""
    x = _as_u64(x, "x")
    half_gap = _as_u64(half_gap, "half_gap", minimum=1)
    return int(pair_counts_at(np.array([x]), [2 * half_gap], sieve)[0, 0])


def pair_counts_at(
    xs: np.ndarray, gaps: list[int], sieve: PrimeSieve | None = None
) -> np.ndarray:
    """Prime and pair counts at sampled x: ``counts[k, i]`` counts the prime
    pairs (p, p + gaps[k]) with p + gaps[k] <= xs[i], and for gap 0 the
    primes p <= xs[i], i.e. pi(xs[i]).

    Both members of a pair are odd, as the gap is even, so each gap costs
    one scan of the odd-only flags up to max(xs), odd k and k + gap/2 for
    the pair (2k + 1, 2(k + gap/2) + 1), and one binary search per sampled x.
    Gap 0 scans the flags in place, with no pair mask, and adds the prime 2
    from x = 2 on.  The xs and gaps are checked, below 2^63, before the
    sieve is built.
    """
    xs = np.asarray(xs)
    max_x = _as_i64(int(xs.max()) if xs.size else 0, "max(xs)")
    gaps = [_as_i64(gap, "gap") for gap in gaps]
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
        larger = 2 * (np.flatnonzero(odd[:-h] & odd[h:] if h else odd) + h) + 1
        counts[k] = np.searchsorted(larger, xs, side="right")
        if not h:
            counts[k] += xs >= 2
    return counts
