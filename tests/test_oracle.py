"""Sieve oracle: exactness, agreement with the primality kernel, examples."""

import random

import numpy as np
import pytest

from kempner import oracle
from kempner.core import is_prime
from kempner.oracle import (
    check_limit,
    oracle_pair_count,
    oracle_pi,
    pair_counts_at,
    pi_sweep,
    sieve_primes,
)


def test_sieve_examples():
    assert np.flatnonzero(sieve_primes(10).flags()).tolist() == [2, 3, 5, 7]
    assert oracle_pi(100, sieve_primes(100)) == 25
    empty = sieve_primes(0)
    assert oracle_pi(0, empty) == 0
    assert empty.flags().tolist() == [False]


def test_sieve_agrees_with_is_prime_exhaustively(sieve_100k):
    flags = sieve_100k.flags()
    mine = np.fromiter((is_prime(n) for n in range(10**5 + 1)), dtype=bool)
    assert (flags == mine).all()
    assert (sieve_100k.odd_flags() == flags[1::2]).all()
    for upto in (0, 1, 2, 3, 10, 99_999):
        assert (sieve_100k.odd_flags(upto) == sieve_100k.flags(upto)[1::2]).all()


def test_sieve_point_queries_random(sieve_100k):
    rng = random.Random(3)
    for _ in range(10_000):
        n = rng.randrange(10**5 + 1)
        assert sieve_100k.is_prime(n) == is_prime(n), n


def test_sieve_point_query_out_of_range(sieve_100k):
    for read in (sieve_100k.is_prime, sieve_100k.flags, sieve_100k.odd_flags):
        with pytest.raises(ValueError, match="beyond sieve limit"):
            read(10**5 + 1)
    with pytest.raises(ValueError, match="beyond sieve limit"):
        pair_counts_at(np.array([10**5 + 1]), [2], sieve_100k)


def test_popcount_plus_two_is_pi(sieve_100k):
    n_odd = (sieve_100k.limit + 1) // 2
    set_bits = int(np.unpackbits(sieve_100k.bits, count=n_odd).sum())
    assert set_bits + 1 == oracle_pi(sieve_100k.limit, sieve_100k) == 9592


def test_sieve_memory_cap():
    with pytest.raises(ValueError):
        sieve_primes(10**6, max_bytes=100)


def test_check_limit_counts_the_unpacked_flags():
    # To 100: 7 bytes of packed flags (50 odd n), then 101 bytes of unpacked
    # flags and 101 of a pair mask.
    check_limit(100, max_bytes=209)
    with pytest.raises(ValueError, match="over the cap"):
        check_limit(100, max_bytes=208)
    # The default cap of 2^32 bytes ends near 2.08e9, not at 2^28 packed bytes
    # (near 4.29e9).
    check_limit(2_082_408_384)
    for limit in (2_082_408_385, 4_000_000_000):
        with pytest.raises(ValueError, match="over the cap"):
            check_limit(limit)


def test_segmentation_does_not_change_flags():
    coarse = sieve_primes(10**5).flags()
    fine = sieve_primes(10**5, segment_size=997).flags()
    assert (coarse == fine).all()


def test_oracle_pair_count_examples():
    assert oracle_pair_count(10, 1) == 2
    assert oracle_pair_count(100, 1) == 8
    for n in range(1, 11):
        assert oracle_pair_count(2 * n + 2, n) == 0


def test_oracle_pair_count_matches_brute_force(sieve_100k):
    prime = [is_prime(n) for n in range(5001)]
    for half_gap in (1, 2, 3):
        gap = 2 * half_gap
        count = 0  # pairs (p, p + gap) with p + gap <= x, by core.is_prime
        for x in range(5001):
            count += x >= gap and prime[x - gap] and prime[x]
            assert oracle_pair_count(x, half_gap, sieve_100k) == count, (x, half_gap)


def test_oracle_pi_examples(sieve_100k):
    assert oracle_pi(2, sieve_100k) == 1
    assert oracle_pi(100, sieve_100k) == 25
    assert oracle_pi(0, sieve_100k) == 0
    assert oracle_pi(1, sieve_100k) == 0


def test_oracle_pi_regression_million():
    assert oracle_pi(10**6) == 78498


def test_pi_increments_track_primality(sieve_100k):
    sweep = pi_sweep(3000, sieve_100k)
    for x in range(1, 3001):
        assert sweep[x] - sweep[x - 1] == (1 if is_prime(x) else 0)


def test_pair_sweep_matches_point_counts(sieve_100k):
    for half_gap in (1, 2, 4):
        sweep = pair_counts_at(np.arange(4001), [2 * half_gap], sieve_100k)[0]
        for x in (0, 5, 100, 1234, 4000):
            assert sweep[x] == oracle_pair_count(x, half_gap, sieve_100k)


def test_pair_counts_at_sampled_x_match_point_counts(sieve_100k):
    xs = np.array([0, 1, 5, 8, 100, 1234, 99_999, 4000, 7])  # any order
    gaps = [2, 4, 6, 30, 200_000]
    counts = pair_counts_at(xs, gaps, sieve_100k)
    assert counts.shape == (len(gaps), xs.size)
    for row, gap in zip(counts, gaps):
        assert row.tolist() == [oracle_pair_count(int(x), gap // 2, sieve_100k) for x in xs]
    assert pair_counts_at(np.array([], dtype=np.int64), [2]).shape == (1, 0)


def test_pair_counts_at_edge_sizes(sieve_100k):
    # Half gaps at and past the number of odd flags up to max(xs) find no pair.
    xs = np.array([0, 1, 2, 9, 9])
    for gap in (2 * 5, 2 * 6, 2**40):
        assert pair_counts_at(xs, [gap], sieve_100k).tolist() == [[0] * 5]
    assert pair_counts_at(xs, [2, 4, 8], sieve_100k).tolist() == [
        [0, 0, 0, 2, 2],  # (3, 5), (5, 7)
        [0, 0, 0, 1, 1],  # (3, 7)
        [0, 0, 0, 0, 0],  # (1, 9): neither is prime
    ]
    for max_x in (0, 1, 2):
        xs = np.arange(max_x + 1)
        assert (pair_counts_at(xs, [2, 4]) == 0).all()
        assert (pair_counts_at(xs, [2], sieve_primes(max_x)) == 0).all()
    empty = np.array([], dtype=np.int64)
    assert pair_counts_at(empty, [2, 4], sieve_100k).shape == (2, 0)
    assert pair_counts_at(empty, []).shape == (0, 0)


def test_pair_counts_at_rejects_odd_or_small_gaps(sieve_100k):
    for gap in (0, 1, 3):
        with pytest.raises(ValueError):
            pair_counts_at(np.array([100]), [gap], sieve_100k)


def test_pair_counts_at_rejects_2_63_before_sieving(monkeypatch):
    # The xs and gaps are indexed as int64; the check runs before any sieve.
    def no_sieve(*args, **kwargs):
        raise AssertionError("sieved before the arguments were checked")

    monkeypatch.setattr(oracle, "sieve_primes", no_sieve)
    for xs, gaps, name in (([2**63], [2], "max\\(xs\\)"), ([100], [2**63], "gap")):
        with pytest.raises(ValueError, match=f"{name} must be below 2\\^63"):
            pair_counts_at(xs, gaps)
    with pytest.raises(ValueError, match="even"):
        pair_counts_at([100], [2, 7])
    with pytest.raises(ValueError, match="64 bits"):
        pair_counts_at([2**64], [2])
    with pytest.raises(ValueError, match="below 2\\^63"):
        oracle_pair_count(2**63, 1)
