"""Scalar kernels: definitions, examples, and cross-kernel properties."""

import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from kempner.core import (
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

PAPER = Convention.PAPER_LITERAL
FORMULA = Convention.FORMULA_CONSISTENT


def divides_factorial(fact: Factorization, m: int) -> bool:
    """Whether the factored n divides m!, prime by prime via Legendre valuations."""
    return all(legendre_valuation(m, p) >= a for p, a in fact)


def test_convention_fields():
    assert PAPER.s_of_one == 1
    assert FORMULA.s_of_one == 0
    assert len(Convention) == 2


# --- s_naive ---------------------------------------------------------------


def test_s_naive_examples():
    assert s_naive(4, PAPER) == 4
    assert s_naive(1, PAPER) == 1
    assert s_naive(1, FORMULA) == 0
    assert s_naive(6) == 3
    assert s_naive(10) == 5


def test_s_naive_rejects_zero():
    with pytest.raises(ValueError):
        s_naive(0)


def test_s_naive_is_minimal_by_direct_factorial():
    # Independent check against actual factorials for tiny n.
    for n in range(2, 200):
        m = s_naive(n)
        assert math.factorial(m) % n == 0
        assert math.factorial(m - 1) % n != 0


# --- legendre_valuation ----------------------------------------------------


def test_legendre_examples():
    assert legendre_valuation(10, 2) == 8
    assert legendre_valuation(0, 5) == 0
    assert legendre_valuation(6, 3) == 2


def test_legendre_rejects_small_p():
    with pytest.raises(ValueError):
        legendre_valuation(10, 1)
    with pytest.raises(ValueError):
        legendre_valuation(10, 0)


def test_legendre_matches_factored_factorial():
    # Factor 1*2*...*m directly and count each prime's exponent.
    for m in range(0, 21):
        fact = math.factorial(m)
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            exp = 0
            q = fact
            while q % p == 0:
                q //= p
                exp += 1
            assert legendre_valuation(m, p) == exp


# --- s_prime_power ---------------------------------------------------------


def test_s_prime_power_examples():
    assert s_prime_power(2, 3) == 4
    assert s_prime_power(3, 2) == 6
    for p in (2, 3, 5, 97, 999983):
        assert s_prime_power(p, 1) == p


def test_s_prime_power_rejections():
    with pytest.raises(ValueError):
        s_prime_power(2, 0)
    with pytest.raises(ValueError):
        s_prime_power(4, 1)


def test_s_prime_power_is_minimal():
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(1, 40):
            m = s_prime_power(p, a)
            assert m % p == 0
            assert legendre_valuation(m, p) >= a
            assert legendre_valuation(m - 1, p) < a


def test_s_prime_power_monotone_in_exponent():
    for p in (2, 3, 5, 31, 101):
        values = [s_prime_power(p, a) for a in range(1, 60)]
        assert values == sorted(values)


def test_s_prime_power_consistent_with_naive():
    assert s_prime_power(2, 3) == s_naive(8)
    assert s_prime_power(3, 2) == s_naive(9)
    assert s_prime_power(2, 4) == s_naive(16)


def test_s_prime_power_cache_is_bounded():
    assert s_prime_power.cache_info().maxsize is not None


# --- is_prime ---------------------------------------------------------------


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2**61 - 1)


def test_is_prime_small_vs_trial_division():
    def trial(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    for n in range(2000):
        assert is_prime(n) == trial(n), n


def test_is_prime_random_vs_sympy():
    rng = random.Random(20240817)
    for _ in range(2000):
        n = rng.randrange(U64_MAX + 1)
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_rejects_out_of_domain():
    with pytest.raises(ValueError):
        is_prime(-1)
    with pytest.raises(ValueError):
        is_prime(2**64)


# --- factorize --------------------------------------------------------------


def test_factorize_examples():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(1).factors == ()
    assert factorize(9991).factors == ((97, 1), (103, 1))


def test_factorize_known_answers():
    # Around the trial bound 10^4 (9973 below it, 10007 above), powers past
    # it, the largest u64 and a primorial.
    assert factorize(9973**2 * 10007).factors == ((9973, 2), (10007, 1))
    assert factorize(9973**4).factors == ((9973, 4),)
    assert factorize(9967 * 9973).factors == ((9967, 1), (9973, 1))
    assert factorize(2**63).factors == ((2, 63),)
    assert U64_MAX == 3 * 5 * 17 * 257 * 641 * 65537 * 6700417
    assert factorize(U64_MAX).factors == tuple(
        (p, 1) for p in (3, 5, 17, 257, 641, 65537, 6700417)
    )
    primes_to_47 = [p for p in range(2, 48) if sympy.isprime(p)]
    assert factorize(math.prod(primes_to_47)).factors == tuple((p, 1) for p in primes_to_47)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 50), st.data())
def test_factorize_smooth_times_trial_prime(a, data):
    top = 0  # the largest b with 2^a * 3^b * 9973 in u64
    while 2**a * 3 ** (top + 1) * 9973 <= U64_MAX:
        top += 1
    b = data.draw(st.integers(0, top))
    expected = tuple((p, e) for p, e in ((2, a), (3, b), (9973, 1)) if e)
    assert factorize(2**a * 3**b * 9973).factors == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, U64_MAX))
def test_factorize_property_u64(n):
    fact = factorize(n)
    assert math.prod(p**a for p, a in fact) == n
    assert all(is_prime(p) for p, _ in fact)


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_reconstructs_and_validates():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randrange(1, 10**12)
        fact = factorize(n)
        assert math.prod(p**a for p, a in fact) == n
        primes = [p for p, _ in fact]
        assert primes == sorted(set(primes))
        assert all(is_prime(p) for p in primes)
        assert all(a >= 1 for _, a in fact)


def test_factorize_is_deterministic():
    # The rho splitter is seeded per cofactor: identical runs, identical output.
    semiprime = 999999937 * 999999893
    assert factorize(semiprime).factors == factorize(semiprime).factors
    assert math.prod(p**a for p, a in factorize(semiprime)) == semiprime


def test_factorization_invariants_enforced():
    with pytest.raises(ValueError):
        Factorization(((4, 1),))
    with pytest.raises(ValueError):
        Factorization(((3, 1), (3, 1)))
    with pytest.raises(ValueError):
        Factorization(((5, 1), (3, 1)))
    with pytest.raises(ValueError):
        Factorization(((2, 0),))


def test_factorization_divides_factorial():
    fact = factorize(720)  # 6!
    assert divides_factorial(fact, 6)
    assert not divides_factorial(fact, 5)


# --- s ----------------------------------------------------------------------


def test_s_examples():
    assert s(4) == 4
    assert s(97) == 97
    assert s(5000) == s_naive(5000) == 20


def test_s_rejects_zero():
    with pytest.raises(ValueError):
        s(0)


def test_s_matches_naive_small():
    for conv in (PAPER, FORMULA):
        for n in range(1, 2001):
            assert s(n, conv) == s_naive(n, conv), n


def test_s_bounds():
    for n in range(2, 3000):
        v = s(n)
        assert 2 <= v <= n


def test_s_minimality_dense_and_random():
    # n | s(n)! and n does not divide (s(n)-1)!, via Legendre valuations only.
    def check(n):
        fact = factorize(n)
        m = s(n)
        assert divides_factorial(fact, m), n
        assert not divides_factorial(fact, m - 1), n

    for n in range(2, 3000):
        check(n)
    rng = random.Random(7)
    for _ in range(500):
        check(rng.randrange(2, 10**9))


def test_s_fixed_points_small():
    for n in range(2, 5000):
        assert (s(n) == n) == (n == 4 or is_prime(n)), n


def test_s_of_one_follows_convention():
    assert s(1, PAPER) == 1
    assert s(1, FORMULA) == 0
