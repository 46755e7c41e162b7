"""Sieve oracle: exactness, agreement with the primality kernel, examples."""

import random
import tracemalloc

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


def test_flags_match_is_prime_at_every_small_limit():
    # Limits below 9 have no base primes; the next ones sieve their base
    # primes from sieves to 3..14.
    for limit in range(201):
        sieve = sieve_primes(limit)
        assert sieve.flags().tolist() == [is_prime(n) for n in range(limit + 1)], limit
        assert sieve.odd.size == (limit + 1) // 2


def test_sieve_flags_are_read_only(sieve_100k):
    with pytest.raises(ValueError, match="read-only"):
        sieve_100k.odd_flags()[0] = True


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
    assert int(sieve_100k.odd.sum()) + 1 == oracle_pi(sieve_100k.limit, sieve_100k) == 9592


def test_sieve_memory_cap(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_MEMORY_CAP", 100)
    with pytest.raises(ValueError, match="over the cap"):
        sieve_primes(10**6)


def test_check_limit_counts_the_unpacked_flags(monkeypatch):
    # To 100 the charge is 7 bytes (50 odd n, one bit each) plus 2 bytes per
    # n: 209 bytes, which cover the 50 odd flags and 101 dense flags.
    monkeypatch.setattr(oracle, "DEFAULT_MEMORY_CAP", 209)
    check_limit(100)
    monkeypatch.setattr(oracle, "DEFAULT_MEMORY_CAP", 208)
    with pytest.raises(ValueError, match="over the cap"):
        check_limit(100)
    monkeypatch.undo()
    # The default cap of 2^32 bytes ends near 2.08e9, not where the odd flags
    # alone (one byte per odd n) would fill it, near 8.6e9.
    check_limit(2_082_408_384)
    for limit in (2_082_408_385, 4_000_000_000):
        with pytest.raises(ValueError, match="over the cap"):
            check_limit(limit)


def test_segmentation_does_not_change_flags(monkeypatch, sieve_100k):
    for segment_size in (1, 7, 997):
        monkeypatch.setattr(oracle, "SEGMENT_SIZE", segment_size)
        assert (sieve_primes(10**5).odd == sieve_100k.odd).all(), segment_size
        assert sieve_primes(200).flags().tolist() == [is_prime(n) for n in range(201)]


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
    assert pi_sweep(0).tolist() == [0] and pi_sweep(2).tolist() == [0, 0, 1]


def peak_bytes(call) -> int:
    """The Python-heap peak (numpy arrays included) of one call, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pi_sweep_rejects_a_sweep_over_the_cap(monkeypatch, sieve_100k):
    # The sweep is 8 bytes per x, checked before it or a sieve is allocated.
    monkeypatch.setattr(oracle, "DEFAULT_MEMORY_CAP", 8 * 10**5)
    assert pi_sweep(10**5 - 1, sieve_100k)[-1] == 9592
    for sieve in (sieve_100k, None):

        def over_the_cap():
            with pytest.raises(ValueError, match="over the cap"):
                pi_sweep(10**5, sieve)

        assert peak_bytes(over_the_cap) < 10_000


def test_oracle_footprint_at_a_million():
    sieve = sieve_primes(10**6)
    # pi(x) counts the odd flags in place: no dense copy of 10^6 bytes.
    assert peak_bytes(lambda: oracle_pi(10**6, sieve)) < 10_000
    # One pair mask of 500,000 bytes plus the ~8,200 twin pairs' larger
    # members; an unpacked copy of the odd flags would add 500,000 more.
    xs = np.arange(0, 10**6 + 1, 1000)
    assert peak_bytes(lambda: pair_counts_at(xs, [2], sieve)) < 750_000


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
