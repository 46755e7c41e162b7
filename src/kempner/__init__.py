"""Smarandache-Kempner function kernels and exact prime-pair counting.

S(n) is the smallest m with n | m!.  The package computes S exactly with
several cross-verified kernels, evaluates the fixed-point indicator sums
that count twin prime pairs, general gap-2n prime pairs and primes, and
checks every count against an independent segmented sieve.
"""

from .census import (
    CountReport,
    PairCountQuery,
    count_pairs,
    count_primes,
    count_twin,
    pair_term,
    trace_terms,
)
from .core import (
    U64_MAX,
    Convention,
    Factorization,
    factorize,
    is_prime,
    legendre_valuation,
    s,
    s_naive,
    s_prime_power,
)
from .oracle import (
    oracle_pair_count,
    oracle_pi,
    sieve_primes,
)
from .table import CacheFormatError, STable, s_range

__version__ = "0.1.0"

__all__ = [
    "CacheFormatError",
    "Convention",
    "CountReport",
    "Factorization",
    "PairCountQuery",
    "STable",
    "U64_MAX",
    "count_pairs",
    "count_primes",
    "count_twin",
    "factorize",
    "is_prime",
    "legendre_valuation",
    "oracle_pair_count",
    "oracle_pi",
    "pair_term",
    "s",
    "s_naive",
    "s_prime_power",
    "s_range",
    "sieve_primes",
    "trace_terms",
]
