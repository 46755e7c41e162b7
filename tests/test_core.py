"""Scalar kernels: definitions, examples, and cross-kernel properties."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from kempner import core
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


def test_is_prime_checks_before_its_cache():
    assert is_prime(5)
    with pytest.raises(TypeError):
        is_prime(5.0)  # equal to 5 and hashed alike, so a cache ahead of the check would answer


def test_is_prime_cache_is_bounded():
    assert core._miller_rabin.cache_info().maxsize is not None


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


# --- the split stage: primes in [_TRIAL_BOUND, 2^20) by one divisibility test ---


def expected_factors(n):
    return tuple(sorted(sympy.factorint(n).items()))


def test_split_table_holds_each_prime_with_its_inverse():
    primes, inverses, limits = core._split_table()
    assert (primes[0], primes[-1], primes.size) == (10007, 1048573, 80796)
    wide = primes.astype(np.uint64)
    assert (wide * inverses == 1).all()
    assert (limits == np.uint64(U64_MAX) // wide).all()


def test_split_test_agrees_with_remainders():
    primes, inverses, limits = core._split_table()
    wide = primes.astype(np.uint64)
    assert (wide * inverses <= limits).all()  # n = p
    assert ((np.uint64(U64_MAX) // wide * wide) * inverses <= limits).all()  # largest multiple
    rng = random.Random(20)
    seeded = [rng.randrange(1, U64_MAX + 1) for _ in range(40)]
    seeded += [p * rng.randrange(1, 2**40) for p in rng.sample(primes.tolist(), 40)]
    for n in [U64_MAX, *seeded]:
        hits = np.uint64(n) * inverses <= limits
        assert (hits == (np.uint64(n) % wide == 0)).all(), n


@pytest.fixture
def rho_calls(monkeypatch):
    """The cofactors handed to the rho splitter."""
    calls = []
    rho = core._brent_rho
    monkeypatch.setattr(core, "_brent_rho", lambda n: calls.append(n) or rho(n))
    return calls


def only_large_primes(cofactors) -> bool:
    """Whether every cofactor is free of primes below 2^20, as the split stage leaves it."""
    return all(min(sympy.factorint(m)) > 1 << 20 for m in cofactors)


def test_factorize_boundary_primes(rho_calls):
    # 10007 is the table's first prime and 1048573 its last; 1048583, the
    # first past it, is left to the rho splitter.
    big = sympy.prevprime(10**12)
    both = sympy.prevprime(U64_MAX // (10007 * 1048573))
    for n in (
        10007 * big, 1048573 * big, 10007 * 1048573, 10007 * 1048573 * both, 10007**3 * 1048573,
        1048573**3, U64_MAX // 10007 * 10007, U64_MAX // 1048573 * 1048573,
    ):  # fmt: skip
        assert factorize(n).factors == expected_factors(n), n
    # At the largest multiple of p, n * p^-1 equals (2^64 - 1) // p: the bound
    # is inclusive.  These p leave that multiple whole through the gcd stage.
    primes = core._split_table()[0].tolist()
    edge = [p for p in primes if math.gcd(U64_MAX // p, core._TRIAL_PRODUCT) == 1]
    for p in edge[:3] + edge[-3:]:
        n = U64_MAX // p * p
        assert factorize(n).factors == expected_factors(n), n
    assert factorize(1048583 * big).factors == ((1048583, 1), (big, 1))
    assert factorize(1048573 * 1048583**2).factors == ((1048573, 1), (1048583, 2))
    assert 1048583 * big in rho_calls and 1048583**2 in rho_calls
    assert only_large_primes(rho_calls), rho_calls


def test_factorize_powers_near_two_to_the_twenty():
    below = sympy.prevprime(1 << 20)
    above = sympy.nextprime(1 << 20)
    near = [sympy.prevprime(below), below, above, sympy.nextprime(above)]
    for p in near:
        for n in (p**2, p**3, p * near[0] ** 2, p**2 * 10007):
            assert factorize(n).factors == expected_factors(n), n


def test_factorize_three_table_primes_times_a_large_prime():
    rng = random.Random(21)
    primes = core._split_table()[0].tolist()
    for _ in range(20):
        a, b, c = sorted(rng.sample(primes[:200], 3))  # product near 10^12
        q = sympy.prevprime(U64_MAX // (a * b * c))
        n = a * b * c * q
        assert factorize(n).factors == ((a, 1), (b, 1), (c, 1), (q, 1))


def test_factorize_random_u64_vs_sympy(rho_calls):
    rng = random.Random(22)
    for _ in range(500):
        n = rng.randrange(1, U64_MAX + 1)
        assert factorize(n).factors == expected_factors(n), n
    assert only_large_primes(rho_calls), rho_calls


def test_counts_and_tables_never_build_the_split_table():
    # Only factorize reads the table; the segment kernel and both count sides
    # must not pay its 1.5 MiB and milliseconds.
    probe = """
import numpy as np
import kempner
from kempner import core
from kempner.census import count_twin, sample_counts
from kempner.table import s_range

count_twin(10**5)
sample_counts(np.arange(1000), [0, 2, 6])
s_range(10**9, 10**9 + 1000)
assert core._split_table.cache_info().currsize == 0
"""
    src = Path(core.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
