"""Sieve oracle: exactness, agreement with the primality kernel, examples."""

import random

import numpy as np
import pytest

from kempner.core import is_prime
from kempner.oracle import (
    oracle_pair_count,
    oracle_pi,
    oracle_s,
    pair_count_sweep,
    pair_counts_at,
    pair_members,
    pi_sweep,
    sieve_primes,
)


def test_sieve_examples():
    assert sieve_primes(10).primes().tolist() == [2, 3, 5, 7]
    assert sieve_primes(100).count() == 25
    empty = sieve_primes(0)
    assert empty.count() == 0
    assert empty.flags().tolist() == [False]


def test_sieve_agrees_with_is_prime_exhaustively(sieve_100k):
    flags = sieve_100k.flags()
    mine = np.fromiter((is_prime(n) for n in range(10**5 + 1)), dtype=bool)
    assert (flags == mine).all()


def test_sieve_point_queries_random(sieve_100k):
    rng = random.Random(3)
    for _ in range(10_000):
        n = rng.randrange(10**5 + 1)
        assert sieve_100k.is_prime(n) == is_prime(n), n


def test_sieve_point_query_out_of_range(sieve_100k):
    with pytest.raises(ValueError):
        sieve_100k.is_prime(10**5 + 1)


def test_popcount_plus_two_is_pi(sieve_100k):
    n_odd = (sieve_100k.limit + 1) // 2
    set_bits = int(np.unpackbits(sieve_100k.bits, count=n_odd).sum())
    assert set_bits + 1 == sieve_100k.count() == 9592


def test_sieve_memory_cap():
    with pytest.raises(ValueError):
        sieve_primes(10**6, max_bytes=100)


def test_segmentation_does_not_change_flags():
    coarse = sieve_primes(10**5).flags()
    fine = sieve_primes(10**5, segment_size=997).flags()
    assert (coarse == fine).all()


def test_oracle_pair_count_examples():
    assert oracle_pair_count(10, 1) == 2
    assert oracle_pair_count(100, 1) == 8
    for n in range(1, 11):
        assert oracle_pair_count(2 * n + 2, n) == 0


def test_pair_members_are_reverified_prime(sieve_100k):
    members = pair_members(100, 1, sieve_100k)
    assert members.tolist() == [3, 5, 11, 17, 29, 41, 59, 71]
    for half_gap in (1, 2, 3, 5):
        for p in pair_members(5000, half_gap, sieve_100k).tolist():
            assert is_prime(p)
            assert is_prime(p + 2 * half_gap)
            assert p + 2 * half_gap <= 5000


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
        sweep = pair_count_sweep(4000, half_gap, sieve_100k)
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


def test_pair_counts_at_rejects_odd_or_small_gaps(sieve_100k):
    for gap in (0, 1, 3):
        with pytest.raises(ValueError):
            pair_counts_at(np.array([100]), [gap], sieve_100k)


def test_oracle_s_examples():
    assert oracle_s(4) == 4
    assert oracle_s(9) == 6
    assert oracle_s(16) == 6


def test_oracle_s_range_rejection():
    with pytest.raises(ValueError):
        oracle_s(0)
    with pytest.raises(ValueError):
        oracle_s(10**6 + 1)
