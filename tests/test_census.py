"""Counting formulas: worked terms, oracle exactness, convention behavior."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kempner import table
from kempner.census import (
    PairCountQuery,
    count_pairs,
    count_primes,
    count_twin,
    pair_count_sweep,
    pair_term,
    pair_term_fast,
    prime_count_sweep,
    sample_counts,
    trace_terms,
    twin_count_sweep,
)
from kempner.core import Convention, is_prime, s
from kempner.oracle import pair_count_sweep as oracle_pair_sweep, pi_sweep
from kempner.table import s_range

PAPER = Convention.PAPER_LITERAL
FORMULA = Convention.FORMULA_CONSISTENT


# --- pair_term ---------------------------------------------------------------


def test_pair_term_worked_examples():
    assert pair_term(2, 1, 2, 4) == 1  # the spurious (2, 4) hit
    assert pair_term(3, 1, 3, 5) == 1
    assert pair_term(8, 1, 4, 5) == 0


def test_pair_term_rejects_zero_j():
    with pytest.raises(ValueError):
        pair_term(0, 1, 1, 1)


def test_pair_term_beyond_64_bit_products():
    # j * (j + 2n) and s_j * s_j2n here exceed 2^64; exact arithmetic required.
    j = 2**62 + 1
    assert pair_term(j, 1, j, j + 2) == 1
    assert pair_term(j, 1, j - 1, j + 2) == 0
    assert pair_term_fast(j, 1, j, j + 2) == 1
    assert pair_term_fast(j, 1, j - 1, j + 2) == 0


def test_fast_path_equals_division_exhaustively():
    tab = s_range(1, 30_020, PAPER)
    for half_gap in (1, 2, 3, 5, 10):
        gap = 2 * half_gap
        for j in range(1, 30_000):
            s_j = int(tab.values[j - 1])
            s_j2n = int(tab.values[j + gap - 1])
            assert pair_term(j, half_gap, s_j, s_j2n) == pair_term_fast(
                j, half_gap, s_j, s_j2n
            ), (j, half_gap)


def test_fast_path_equals_division_random_large():
    rng = random.Random(2718)
    for _ in range(2000):
        j = rng.randrange(1, 10**9)
        half_gap = rng.randrange(1, 11)
        s_j = s(j, PAPER)
        s_j2n = s(j + 2 * half_gap, PAPER)
        assert pair_term(j, half_gap, s_j, s_j2n) == pair_term_fast(
            j, half_gap, s_j, s_j2n
        ), (j, half_gap)


# --- count_twin --------------------------------------------------------------


def test_count_twin_examples():
    assert count_twin(7).formula_count == 2
    assert count_twin(100).formula_count == 8
    assert count_twin(3).formula_count == 0
    assert count_twin(1000).formula_count == 35  # frozen sieve value


def test_count_twin_verify_mode():
    report = count_twin(1000, verify=True)
    assert report.oracle_count == 35
    assert report.matches is True
    assert count_twin(1000).matches is None


def test_count_twin_correction_gate():
    for x in (0, 1, 2, 3):
        assert count_twin(x).correction_applied == 0
    for x in (4, 5, 100, 10_000):
        assert count_twin(x).correction_applied == -1


def test_count_twin_terms_evaluated():
    assert count_twin(10, FORMULA).terms_evaluated == 8  # j in [1, 8]
    assert count_twin(10, PAPER).terms_evaluated == 7  # j in [2, 8]
    assert count_twin(2).terms_evaluated == 0


def test_count_twin_conventions_agree():
    for x in (2, 3, 4, 5, 50, 747, 2000):
        assert count_twin(x, PAPER).formula_count == count_twin(x, FORMULA).formula_count


# --- count_pairs -------------------------------------------------------------


def test_count_pairs_examples():
    assert count_pairs(PairCountQuery(100, 2)).formula_count == 8
    for n in range(2, 9):
        assert count_pairs(PairCountQuery(2 * n + 1, n)).formula_count == 0
    assert count_pairs(PairCountQuery(10_000, 3)).formula_count == 411  # frozen


def test_count_pairs_rejects_zero_half_gap():
    with pytest.raises(ValueError):
        PairCountQuery(100, 0)


def test_count_pairs_delegates_twin_case():
    via_pairs = count_pairs(PairCountQuery(500, 1))
    direct = count_twin(500)
    assert via_pairs.formula_count == direct.formula_count
    assert via_pairs.correction_applied == -1


def test_count_pairs_no_correction_for_wider_gaps():
    for n in (2, 3, 5):
        assert count_pairs(PairCountQuery(3000, n)).correction_applied == 0


def test_count_pairs_verify_sample():
    for n in (2, 3, 4, 7):
        report = count_pairs(PairCountQuery(2500, n), verify=True)
        assert report.matches is True, n


# --- count_primes ------------------------------------------------------------


def test_count_primes_examples():
    assert count_primes(100).formula_count == 25
    assert count_primes(1).formula_count == 0
    assert count_primes(4).formula_count == 2
    assert count_primes(0).formula_count == 0


def test_count_primes_verify_and_sweep(sieve_100k):
    assert count_primes(3000, verify=True).matches is True
    sweep = prime_count_sweep(3000)
    truth = pi_sweep(3000, sieve_100k)
    assert (sweep == truth).all()


def test_count_primes_convention_free():
    for x in (0, 1, 4, 100, 999):
        assert count_primes(x, PAPER).formula_count == count_primes(x, FORMULA).formula_count


# --- trace_terms -------------------------------------------------------------


def test_trace_literal_rows_expose_j1_anomaly():
    rows = trace_terms(PairCountQuery(20, 1, PAPER), (1, 4))
    assert rows == [(1, 1, 3, 1), (2, 2, 4, 1), (3, 3, 5, 1), (4, 4, 3, 0)]


def test_trace_single_row_window():
    rows = trace_terms(PairCountQuery(100, 1), (50, 50))
    assert len(rows) == 1
    assert rows[0][0] == 50


def test_trace_twin_hits_in_window():
    rows = trace_terms(PairCountQuery(100, 1), (3, 9))
    hits = [j for j, _, _, term in rows if term == 1]
    assert hits == [3, 5]


def test_trace_rejects_bad_windows():
    q = PairCountQuery(100, 1)
    with pytest.raises(ValueError):
        trace_terms(q, (9, 3))
    with pytest.raises(ValueError):
        trace_terms(q, (0, 5))
    with pytest.raises(ValueError):
        trace_terms(q, (95, 99))  # beyond x - 2n


def test_trace_sum_reproduces_count():
    q = PairCountQuery(400, 1, FORMULA)
    rows = trace_terms(q, (1, 398))
    total = sum(term for *_, term in rows)
    report = count_twin(400, FORMULA)
    assert total + report.correction_applied == report.formula_count


# --- sweeps and cross-checks --------------------------------------------------


def test_twin_sweep_matches_point_function():
    sweep = twin_count_sweep(2000)
    rng = random.Random(5)
    for x in [0, 1, 2, 3, 4, 5] + [rng.randrange(2000) for _ in range(40)]:
        assert sweep[x] == count_twin(x).formula_count, x


def test_pair_sweep_matches_point_function():
    sweep = pair_count_sweep(2000, 3)
    rng = random.Random(6)
    for x in [0, 6, 7, 8] + [rng.randrange(2000) for _ in range(40)]:
        assert sweep[x] == count_pairs(PairCountQuery(x, 3)).formula_count, x


def test_prime_sweep_matches_point_function():
    sweep = prime_count_sweep(1500)
    for x in (0, 1, 2, 3, 4, 5, 700, 1500):
        assert sweep[x] == count_primes(x).formula_count, x


def test_twin_monotone_with_exact_increments(sieve_100k):
    # Increment at x iff (x-2, x) is a twin pair: the larger-member reading.
    limit = 10_000
    sweep = twin_count_sweep(limit)
    flags = sieve_100k.flags(limit)
    diffs = np.diff(sweep)
    assert (diffs >= 0).all()
    expected = np.zeros(limit, dtype=np.int64)
    expected[2:] = (flags[1:-2] & flags[3:]).astype(np.int64)
    np.testing.assert_array_equal(diffs, expected)


def test_sweep_convention_independence():
    for half_gap in (1, 2, 3):
        a = pair_count_sweep(2500, half_gap, PAPER)
        b = pair_count_sweep(2500, half_gap, FORMULA)
        assert (a == b).all()


def test_sweeps_match_oracle(sieve_100k):
    for half_gap in (1, 2, 5):
        formula = pair_count_sweep(4000, half_gap)
        truth = oracle_pair_sweep(4000, half_gap, sieve_100k)
        assert (formula == truth).all()


# --- published constants: an anchor independent of the oracle sieve ------------


@pytest.mark.parametrize(
    "x, pi, twins",
    [
        (10**8, 5_761_455, 440_312),
        pytest.param(10**9, 50_847_534, 3_424_506, marks=pytest.mark.slow),  # OEIS A007508
    ],
)
def test_published_prime_and_twin_counts(x, pi, twins):
    # 10^k - 1 is never prime, so "p <= x" and "p + 2 <= x" count the same pairs.
    counts = sample_counts(np.array([x]), [0, 2], (False,))
    assert counts.ravel().tolist() == [pi, twins]


# --- the uncorrected sum-from-1 reading ---------------------------------------


def test_literal_twin_overcounts_by_one_from_three(sieve_100k):
    literal = twin_count_sweep(2000, literal=True)
    truth = oracle_pair_sweep(2000, 1, sieve_100k)
    delta = literal - truth
    assert (delta[:3] == 0).all()
    assert (delta[3:] == 1).all()


def test_literal_pairs_overcount_iff_gap_plus_one_prime(sieve_100k):
    for half_gap in range(2, 11):
        literal = pair_count_sweep(2000, half_gap, literal=True)
        truth = oracle_pair_sweep(2000, half_gap, sieve_100k)
        delta = literal - truth
        threshold = 2 * half_gap + 1
        expected = 1 if is_prime(threshold) else 0
        assert (delta[:threshold] == 0).all(), half_gap
        assert (delta[threshold:] == expected).all(), half_gap


def test_literal_point_count_matches_sweep():
    literal_sweep = twin_count_sweep(300, literal=True)
    for x in (2, 3, 4, 5, 17, 300):
        assert count_twin(x, literal=True).formula_count == literal_sweep[x]


# --- report plumbing -----------------------------------------------------------


def test_report_elapsed_nonnegative():
    assert count_twin(100).elapsed >= 0.0


def test_query_validation_and_gap():
    q = PairCountQuery(100, 3)
    assert q.gap == 6
    with pytest.raises(ValueError):
        PairCountQuery(-1, 1)


# --- invariance over segment size and thread count ------------------------------


@st.composite
def _stream_settings(draw):
    """A gap, an x, and a segment size from {1, gap - 1, gap, gap + 1, drawn}."""
    half_gap = draw(st.integers(1, 8))
    gap = 2 * half_gap
    segment = draw(st.sampled_from([1, max(1, gap - 1), gap, gap + 1, draw(st.integers(1, 400))]))
    return draw(st.integers(0, 700)), half_gap, segment, draw(st.sampled_from([1, 2]))


@settings(max_examples=60, deadline=None)
@given(_stream_settings(), st.sampled_from([PAPER, FORMULA]), st.booleans())
def test_counts_do_not_depend_on_segment_size_or_threads(case, conv, literal):
    # A segment shorter than the gap makes the carried flags span several segments.
    x, half_gap, segment_size, threads = case
    stream = dict(segment_size=segment_size, threads=threads)
    query = PairCountQuery(x, half_gap, conv)
    got = count_pairs(query, literal=literal, **stream)
    want = count_pairs(query, literal=literal)
    assert (got.formula_count, got.terms_evaluated) == (want.formula_count, want.terms_evaluated)
    assert count_twin(x, conv, literal=literal, **stream).formula_count == count_twin(
        x, conv, literal=literal
    ).formula_count
    assert count_primes(x, conv, **stream).formula_count == count_primes(x, conv).formula_count
    np.testing.assert_array_equal(
        pair_count_sweep(x, half_gap, conv, literal, **stream),
        pair_count_sweep(x, half_gap, conv, literal),
    )
    np.testing.assert_array_equal(prime_count_sweep(x, conv, **stream), prime_count_sweep(x))


def test_one_pass_sieves_base_primes_once_and_opens_one_pool(monkeypatch):
    calls = {"base primes": 0, "pools": 0}
    small_primes, pool = table._small_primes, table.ThreadPoolExecutor

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(table, "_small_primes", counted("base primes", small_primes))
    monkeypatch.setattr(table, "ThreadPoolExecutor", counted("pools", pool))
    assert count_twin(5000, segment_size=64, threads=2).formula_count == 126
    assert calls == {"base primes": 1, "pools": 1}
