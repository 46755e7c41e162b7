"""Sieve oracle: exactness, agreement with the primality kernel, examples."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kempner import oracle
from kempner.core import is_prime
from kempner.oracle import (
    check_limit,
    oracle_pair_count,
    oracle_pi,
    pair_counts_at,
    sieve_primes,
)


def test_sieve_examples():
    # Entry k flags 2k + 1: 1, 3, 5, 7, 9.
    assert sieve_primes(10).tolist() == [False, True, True, True, False]
    assert oracle_pi(100, sieve_primes(100)) == 25
    empty = sieve_primes(0)
    assert isinstance(empty, np.ndarray) and empty.dtype == bool and empty.size == 0
    assert oracle_pi(0, empty) == 0


def test_flags_match_is_prime_at_every_small_limit():
    # Limits below 9 have no base primes; the next ones sieve their base
    # primes from sieves to 3..14.
    for limit in range(201):
        odd = range(1, limit + 1, 2)
        assert sieve_primes(limit).tolist() == [is_prime(n) for n in odd], limit


def test_sieve_flags_are_read_only(sieve_100k):
    with pytest.raises(ValueError, match="read-only"):
        sieve_100k[0] = True


def test_sieve_agrees_with_is_prime_exhaustively(sieve_100k):
    mine = np.fromiter((is_prime(n) for n in range(1, 10**5 + 1, 2)), dtype=bool)
    assert sieve_100k.shape == mine.shape
    assert (sieve_100k == mine).all()


def test_sieve_point_query_out_of_range(sieve_100k):
    # The array's 50,000 odd flags reach 99,999, so it serves every x up to 100,000.
    assert oracle_pi(10**5, sieve_100k) == 9592
    with pytest.raises(ValueError, match="beyond sieve limit"):
        pair_counts_at(np.array([10**5 + 1]), [2], sieve_100k)
    with pytest.raises(ValueError, match="beyond sieve limit"):
        oracle_pi(10**5 + 1, sieve_100k)
    with pytest.raises(ValueError, match="beyond sieve limit"):
        oracle_pair_count(10**5 + 1, 1, sieve_100k)
    with pytest.raises(ValueError, match="beyond sieve limit"):
        oracle_pi(1, sieve_primes(0))


def test_popcount_plus_two_is_pi(sieve_100k):
    limit = 2 * sieve_100k.size - 1
    assert int(sieve_100k.sum()) + 1 == oracle_pi(limit, sieve_100k) == 9592


def test_sieve_memory_cap(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_MEMORY_CAP", 100)
    with pytest.raises(ValueError, match="over the cap"):
        sieve_primes(10**6)


def test_check_limit_counts_the_unpacked_flags(monkeypatch):
    # The charge is what sieve_primes holds, one byte per odd n: 50 to 100.
    monkeypatch.setattr(oracle, "DEFAULT_MEMORY_CAP", 50)
    check_limit(100)
    monkeypatch.setattr(oracle, "DEFAULT_MEMORY_CAP", 49)
    with pytest.raises(ValueError, match="over the cap"):
        check_limit(100)
    monkeypatch.undo()
    # 2^33 adds no odd n to 2^33 - 1, so the 2^32-byte default cap ends at 2^33.
    check_limit(8_589_934_591)
    check_limit(8_589_934_592)
    for limit in (8_589_934_593, 10**10):
        with pytest.raises(ValueError, match="over the cap"):
            check_limit(limit)


def test_segmentation_does_not_change_flags(monkeypatch, sieve_100k):
    # Segments of 1 and 7 flags are shorter than the carried tails of gaps 30 and 998.
    xs = np.array([5000, 0, 2, 1999, 7, 4001, 1, 3, 4001])
    gaps = [0, 2, 30, 998]
    counts = pair_counts_at(xs, gaps, sieve_100k)
    pis = [oracle_pi(int(x), sieve_100k) for x in xs]
    for segment_size in (1, 7, 997):
        monkeypatch.setattr(oracle, "SEGMENT_SIZE", segment_size)
        assert (sieve_primes(10**5) == sieve_100k).all(), segment_size
        assert sieve_primes(200).tolist() == [is_prime(n) for n in range(1, 201, 2)]
        assert (pair_counts_at(xs, gaps) == counts).all(), segment_size
        assert [oracle_pi(int(x)) for x in xs] == pis, segment_size


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
    for sieve in (sieve_100k, None):
        sweep = pair_counts_at(np.arange(3001), [0], sieve)[0]
        for x in range(1, 3001):
            assert sweep[x] - sweep[x - 1] == (1 if is_prime(x) else 0)
        assert pair_counts_at(np.arange(1), [0], sieve).tolist() == [[0]]
        assert pair_counts_at(np.arange(3), [0], sieve).tolist() == [[0, 0, 1]]


def test_gap_zero_counts_primes_as_oracle_pi(sieve_100k):
    xs = np.arange(3001)
    pi = [oracle_pi(x, sieve_100k) for x in range(3001)]
    assert pair_counts_at(xs, [0], sieve_100k)[0].tolist() == pi
    # Beside pair gaps in one call, at duplicate and unordered xs, and below 2.
    xs = np.array([1000, 2, 2, 0, 1, 3000, 1000])
    counts = pair_counts_at(xs, [2, 0, 998, 0])
    assert counts[1].tolist() == counts[3].tolist() == [168, 1, 1, 0, 0, 430, 168]
    for row, gap in zip(counts[[0, 2]], (2, 998)):
        assert row.tolist() == [oracle_pair_count(int(x), gap // 2, sieve_100k) for x in xs]
    for max_x in (0, 1):
        assert pair_counts_at(np.arange(max_x + 1), [0]).tolist() == [[0] * (max_x + 1)]
    assert pair_counts_at(np.array([], dtype=np.int64), [0, 2], sieve_100k).shape == (2, 0)


def peak_bytes(call) -> int:
    """The Python-heap peak (numpy arrays included) of one call, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_footprint_at_a_million():
    sieve = sieve_primes(10**6)
    # pi(x) counts the odd flags in place: no dense copy of 10^6 bytes.
    assert peak_bytes(lambda: oracle_pi(10**6, sieve)) < 10_000
    # One pair mask of 500,000 bytes plus the ~8,200 twin pairs' larger
    # members; an unpacked copy of the odd flags would add 500,000 more.
    xs = np.arange(0, 10**6 + 1, 1000)
    assert peak_bytes(lambda: pair_counts_at(xs, [2], sieve)) < 750_000


def test_streamed_counts_hold_one_segment():
    # A sieve to 8e6 alone is 4 MB; a streamed count holds one 1 MB segment,
    # its pair mask and the hits of one segment.
    xs = np.arange(0, 8 * 10**6 + 1, 1000)
    assert peak_bytes(lambda: pair_counts_at(xs, [0, 2, 6])) < 4_000_000


def test_gap_past_max_x_carries_no_tail():
    # A gap past max(xs) finds no pair and carries none of its 2^62 - 1 flags.
    assert peak_bytes(lambda: oracle_pair_count(100, 2**62 - 1)) < 100_000
    assert oracle_pair_count(100, 2**62 - 1) == 0


def test_oracle_imports_only_the_argument_checks():
    # The oracle checks the formula side, so it shares none of its code.
    ours = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("kempner") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("kempner")):
            ours |= {(node.module, alias.name) for alias in node.names}
    assert ours == {("core", "_as_i64"), ("core", "_as_u64")}


@pytest.mark.parametrize("module", ["core", "table", "census"])
def test_formula_side_never_imports_the_oracle(module):
    # Only the CLI and the tests compare the two sides; a count that called
    # the oracle would check itself.
    path = Path(oracle.__file__).with_name(f"{module}.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        assert not any("oracle" in name.split(".") for name in names), names


@pytest.mark.slow
def test_published_counts_past_the_old_cap():
    # pi and pi_2 at 10^10 (OEIS A006880, A007508); 10^10 +- 1 are composite,
    # so "p + 2 <= x" and "p <= x" count the same twins.
    assert pair_counts_at(np.array([10**10]), [0, 2]).tolist() == [[455_052_511], [27_412_679]]


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
    for gap in (-2, 1, 3):
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
    for xs in ([-5], [-5, 3]):
        with pytest.raises(ValueError, match="must be >= 0"):
            pair_counts_at(np.array(xs), [0])
    with pytest.raises(ValueError, match="even"):
        pair_counts_at([100], [2, 7])
    with pytest.raises(ValueError, match="64 bits"):
        pair_counts_at([2**64], [2])
    for xs in ([10.9, 100.5], [True, False]):  # once read as the counts at 10 and 100
        with pytest.raises(TypeError, match="integers"):
            pair_counts_at(np.array(xs), [0, 2])
    with pytest.raises(ValueError, match="below 2\\^63"):
        oracle_pair_count(2**63, 1)
    with pytest.raises(ValueError, match="below 2\\^63"):
        oracle_pi(2**63)
