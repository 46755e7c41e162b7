"""Exact computation of the classical Smarandache (Kempner) function S.

S(n) is the smallest positive integer m such that n divides m!.  Everything
reduces to prime powers: for n = p1^a1 * ... * pk^ak,

    S(n) = max_i S(pi^ai),

and S(p^a) is located by binary search on Legendre's factorial valuation.
``s_naive`` walks the definition directly and serves as the root of trust
for the test suite; ``s`` is the production kernel.

All inputs are restricted to the unsigned 64-bit range; intermediate
arithmetic uses Python integers and never truncates.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache
from math import gcd, isqrt, prod

import numpy as np

__all__ = [
    "U64_MAX",
    "Convention",
    "Factorization",
    "factorize",
    "is_prime",
    "legendre_valuation",
    "s",
    "s_naive",
    "s_prime_power",
]

U64_MAX = 2**64 - 1
# The counts and the oracle index x and the gaps as int64; S takes any u64.
_I64_MAX = 2**63 - 1

_TRIAL_BOUND = 10_000  # primes below it are found by one gcd
_SPLIT_BOUND = 1 << 20  # primes below it by the vectorized divisibility test; rho takes the rest
_RHO_SEED = 0x5EED_CAFE  # fixed seed: factorization must be reproducible run to run


def _as_u64(value, name: str, minimum: int = 0) -> int:
    """Coerce an integer-like value into the unsigned 64-bit domain."""
    value = operator.index(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum} (got {value})")
    if value > U64_MAX:
        raise ValueError(f"{name} does not fit in 64 bits (got {value})")
    return value


def _as_i64(value, name: str, minimum: int = 0) -> int:
    """Coerce an integer-like value into [minimum, 2^63 - 1], the x and gaps of the counts."""
    value = _as_u64(value, name, minimum)
    if value > _I64_MAX:
        raise ValueError(f"{name} must be below 2^63 (got {value})")
    return value


def _sample_points(xs, gaps) -> tuple[np.ndarray, list[int]]:
    """Check the sample points and gaps of a count on either side: xs one-dimensional,
    integer, ascending and in [0, 2^63), each gap even and below 2^63.  Returns xs as
    int64 and the gaps as ints."""
    xs = np.asarray(xs)
    if xs.ndim != 1:
        raise ValueError(f"xs must be one-dimensional (got {xs.ndim} dimensions)")
    if xs.size and xs.dtype.kind not in "iu":
        raise TypeError(f"sample points must be integers (got dtype {xs.dtype})")
    if xs.size and xs.dtype.kind == "u":  # int64 would wrap these negative
        _as_i64(int(xs.max()), "max(xs)")
    xs = xs.astype(np.int64, copy=False)
    if xs.size and (xs[0] < 0 or (np.diff(xs) < 0).any()):
        raise ValueError("sample points must be ascending and >= 0")
    gaps = [_as_i64(gap, "gap") for gap in gaps]
    for gap in gaps:
        if gap % 2:
            raise ValueError(f"gap must be even (got {gap})")
    return xs, gaps


class Convention(Enum):
    """Treatment of S(1).

    The classical definition sets S(1) = 1, but the exact counting sums in
    :mod:`kempner.census` are only correct when the j = 1 term vanishes.
    PAPER_LITERAL keeps S(1) = 1 and starts those sums at j = 2;
    FORMULA_CONSISTENT sets S(1) = 0 so the sums may harmlessly start at
    j = 1.  Both yield identical counts everywhere, so the counts take no
    convention; it sets S(1) in :func:`s`, the tables and
    :func:`kempner.census.trace_terms`.
    """

    PAPER_LITERAL = "paper"
    FORMULA_CONSISTENT = "formula"

    @property
    def s_of_one(self) -> int:
        return 1 if self is Convention.PAPER_LITERAL else 0


def _check_convention(conv) -> None:
    """Reject a conv that is not a Convention member (a string such as "paper" included)."""
    if not isinstance(conv, Convention):
        raise TypeError(f"conv must be a Convention member (got {conv!r})")


# Deterministic Miller-Rabin witnesses covering every n < 2^64.
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Exact, deterministic primality for any unsigned 64-bit integer.

    0 and 1 are not prime.
    """
    return _miller_rabin(_as_u64(n, "n"))


@lru_cache(maxsize=1024)
def _miller_rabin(n: int) -> bool:
    """Primality of a checked u64, cached so one factorization proves each prime once."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    twos = (d & -d).bit_length() - 1
    d >>= twos
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as an ordered tuple of (prime, exponent) pairs.

    The factorization of 1 is the empty tuple.  Construction validates that
    primes are strictly increasing, each passes :func:`is_prime`, and every
    exponent is at least 1.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prev = 1
        for p, a in self.factors:
            if p <= prev:
                raise ValueError(f"primes must be strictly increasing (saw {p} after {prev})")
            if a < 1:
                raise ValueError(f"exponent of {p} must be >= 1 (got {a})")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p

    def __iter__(self):
        return iter(self.factors)


def _small_primes(limit: int) -> np.ndarray:
    """All primes <= limit by a sieve over the odd numbers: the trial divisors
    of factorize and the base primes of the range kernel."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((limit + 1) // 2, dtype=bool)  # odd[i] stands for 2i + 1
    odd[0] = False
    for i in range(1, (isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = 2 * np.flatnonzero(odd) + 1
    return np.concatenate((np.array([2], dtype=primes.dtype), primes))


_TRIAL_PRIMES = tuple(_small_primes(_TRIAL_BOUND - 1).tolist())
_TRIAL_PRODUCT = prod(_TRIAL_PRIMES)


@cache
def _split_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The primes p in [_TRIAL_BOUND, _SPLIT_BOUND) with p^-1 mod 2^64 and (2^64 - 1) // p.

    For odd p, p divides n exactly when n * p^-1 mod 2^64 <= (2^64 - 1) // p
    (Granlund & Montgomery, PLDI 1994, section 9), so one wrapping uint64
    multiply and compare tests every p at once.  Built on first use.
    """
    primes = _small_primes(_SPLIT_BOUND)
    primes = primes[primes > _TRIAL_BOUND]
    p = primes.astype(np.uint64)
    inverses = p.copy()  # p * p = 1 mod 8: right in the low 3 bits
    for _ in range(5):  # Newton's step doubles the right low bits: 3 -> 96 >= 64
        inverses *= 2 - p * inverses
    return primes.astype(np.uint32), inverses, np.uint64(U64_MAX) // p


def _brent_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n (Brent's cycle variant).

    Seeded deterministically from n so repeated runs split identically.
    :func:`factorize` calls it only on cofactors whose primes are all at
    least _SPLIT_BOUND = 2^20; it finds a prime p in about sqrt(p) steps.
    """
    rng = random.Random(_RHO_SEED ^ n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> Factorization:
    """Complete prime factorization of an unsigned 64-bit integer, in three stages.

    One gcd with the product of the primes below _TRIAL_BOUND finds which
    of them divide n.  If the cofactor left is composite, one vectorized
    exact divisibility test over the primes of :func:`_split_table` finds
    which of those up to _SPLIT_BOUND divide it.  Only the primes found are
    divided out, and Brent's rho splitter plus :func:`is_prime` handles any
    remaining cofactor.
    """
    n = _as_u64(n, "n", minimum=1)
    found: dict[int, int] = {}

    def divide_out(primes) -> None:
        nonlocal n
        for p in primes:
            while n % p == 0:
                found[p] = found.get(p, 0) + 1
                n //= p

    g = gcd(n, _TRIAL_PRODUCT)  # squarefree: the primes of n below _TRIAL_BOUND
    small = []
    for p in _TRIAL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            small.append(p)
            g //= p
    if g > 1:
        small.append(g)  # no smaller prime left, so g is prime
    divide_out(small)
    if n >= _TRIAL_BOUND**2 and not is_prime(n):  # below it a cofactor is 1 or prime
        primes, inverses, limits = _split_table()
        divide_out(primes[np.uint64(n) * inverses <= limits].tolist())
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(tuple(sorted(found.items())))


def legendre_valuation(m: int, p: int) -> int:
    """Exponent of the prime p in m!: the sum of floor(m / p^k) over k >= 1.

    Every division is exact integer arithmetic; the loop stops once
    p^k exceeds m.
    """
    m = _as_u64(m, "m")
    p = _as_u64(p, "p")
    if p < 2:
        raise ValueError(f"p must be a prime >= 2 (got {p})")
    total = 0
    q = p
    while q <= m:
        total += m // q
        q *= p
    return total


@lru_cache(maxsize=4096)
def s_prime_power(p: int, a: int) -> int:
    """Smallest m such that m! contains at least a factors of the prime p.

    The valuation of m! in p only increases at multiples of p, so the
    answer is a multiple of p, and a*p is always enough; binary search over
    the multiples k*p with k in [1, a] finds the least one.
    """
    p = _as_u64(p, "p")
    a = operator.index(a)
    if a < 1:
        raise ValueError(f"a must be >= 1 (got {a})")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if a * p > U64_MAX:
        raise ValueError(f"s_prime_power({p}, {a}) exceeds the 64-bit range")
    lo, hi = 1, a
    while lo < hi:
        mid = (lo + hi) // 2
        if legendre_valuation(mid * p, p) >= a:
            hi = mid
        else:
            lo = mid + 1
    return lo * p


def s_naive(n: int, conv: Convention = Convention.PAPER_LITERAL) -> int:
    """Definition-literal S(n): scan m = 1, 2, ... until n divides m!.

    Maintains the still-undivided cofactor of n, repeatedly dividing out
    gcd(cofactor, m) at each step, so m! is never materialized.  Intended
    as an oracle for moderate n (the scan performs S(n) steps).
    """
    n = _as_u64(n, "n", minimum=1)
    if n == 1:
        return conv.s_of_one
    cofactor = n
    m = 1
    while cofactor > 1:
        m += 1
        step = m
        g = gcd(cofactor, step)
        while g > 1:
            cofactor //= g
            step //= g
            g = gcd(cofactor, step)
    return m


def s(n: int, conv: Convention = Convention.PAPER_LITERAL) -> int:
    """S(n) via factorization: the max of S(p^a) over the prime powers of n.

    Agrees with :func:`s_naive` everywhere; for n = 1 the result is fixed
    by the convention.
    """
    n = _as_u64(n, "n", minimum=1)
    if n == 1:
        return conv.s_of_one
    return max(s_prime_power(p, a) for p, a in factorize(n))
