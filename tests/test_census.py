"""Counting formulas: worked terms, oracle exactness, convention behavior."""

import random
from collections import deque
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kempner import census, oracle, table
from kempner.census import (
    PairCountQuery,
    count_pairs,
    count_primes,
    count_twin,
    pair_term,
    sample_counts,
    trace_terms,
)
from kempner.core import Convention, is_prime, s
from kempner.oracle import oracle_pair_count, oracle_pi, pair_counts_at
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


# The counters replace the division by the fixed-point test s_j == j and
# s_j2n == j + 2n; these two check that the two agree on genuine S values.


def test_fast_path_equals_division_exhaustively():
    tab = s_range(1, 30_020, PAPER)
    for half_gap in (1, 2, 3, 5, 10):
        gap = 2 * half_gap
        for j in range(1, 30_000):
            s_j = int(tab.values[j - 1])
            s_j2n = int(tab.values[j + gap - 1])
            fixed = s_j == j and s_j2n == j + gap
            assert pair_term(j, half_gap, s_j, s_j2n) == fixed, (j, half_gap)


def test_fast_path_equals_division_random_large():
    rng = random.Random(2718)
    for _ in range(2000):
        j = rng.randrange(1, 10**9)
        half_gap = rng.randrange(1, 11)
        s_j = s(j, PAPER)
        s_j2n = s(j + 2 * half_gap, PAPER)
        fixed = s_j == j and s_j2n == j + 2 * half_gap
        assert pair_term(j, half_gap, s_j, s_j2n) == fixed, (j, half_gap)


# --- count_twin --------------------------------------------------------------


def test_count_twin_examples():
    assert count_twin(7).formula_count == 2
    assert count_twin(100).formula_count == 8
    assert count_twin(3).formula_count == 0
    assert count_twin(1000).formula_count == 35  # frozen sieve value


def test_count_twin_verify_mode():
    assert count_twin(1000).formula_count == oracle_pair_count(1000, 1) == 35


def test_count_twin_correction_gate():
    for x in (0, 1, 2, 3):
        assert count_twin(x).correction_applied == 0
    for x in (4, 5, 100, 10_000):
        assert count_twin(x).correction_applied == -1


def test_threads_below_one_are_rejected():
    # Checked before any work, so also where there is nothing to stream.
    for x in (0, 100):
        for threads in (0, -2):
            with pytest.raises(ValueError, match="threads must be >= 1"):
                count_twin(x, threads=threads)
        with pytest.raises(TypeError):
            count_twin(x, threads=1.5)
    with pytest.raises(ValueError, match=r"threads must be >= 1 \(got 0\)"):
        sample_counts(np.array([], np.int64), [2], threads=0)


def test_threads_over_the_limit_are_rejected_before_any_work():
    # The stream owns the limit; every entry point meets it before the base primes.
    too_many = table.MAX_THREADS + 1
    with patch.object(table, "_small_primes", side_effect=AssertionError("sieved")):
        for call in (
            lambda: s_range(1, 10**6, threads=too_many),
            lambda: count_twin(10**6, threads=too_many),
            lambda: count_primes(10**6, threads=too_many),
            lambda: sample_counts(np.array([], np.int64), [2], threads=too_many),
        ):
            with pytest.raises(ValueError, match=f"threads must be <= {table.MAX_THREADS} "):
                call()


# --- count_pairs -------------------------------------------------------------


def test_count_pairs_examples():
    assert count_pairs(PairCountQuery(100, 2)).formula_count == 8
    for n in range(2, 9):
        assert count_pairs(PairCountQuery(2 * n + 1, n)).formula_count == 0
    assert count_pairs(PairCountQuery(10_000, 3)).formula_count == 411  # frozen


def test_count_pairs_rejects_zero_half_gap():
    with pytest.raises(ValueError):
        PairCountQuery(100, 0)


def test_a_conv_that_is_not_a_convention_member_is_rejected():
    for call in (
        lambda: s_range(2, 5, "junk"),
        lambda: s_range(1, 5, "junk"),
        lambda: trace_terms(PairCountQuery(10, 1), (1, 2), "junk"),
    ):
        with pytest.raises(TypeError, match="Convention member"):
            call()


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
        assert count_pairs(PairCountQuery(2500, n)).formula_count == oracle_pair_count(2500, n), n


# --- count_primes ------------------------------------------------------------


def test_count_primes_examples():
    assert count_primes(100).formula_count == 25
    assert count_primes(1).formula_count == 0
    assert count_primes(4).formula_count == 2
    assert count_primes(0).formula_count == 0


def test_count_primes_verify_and_sweep(sieve_100k):
    assert count_primes(3000).formula_count == oracle_pi(3000)
    sweep = sample_counts(np.arange(3001), [0])[0, 0]
    truth = pair_counts_at(np.arange(3001), [0], sieve_100k)[0]
    assert (sweep == truth).all()


# --- trace_terms -------------------------------------------------------------


def test_trace_literal_rows_expose_j1_anomaly():
    rows = list(trace_terms(PairCountQuery(20, 1), (1, 4), PAPER))
    assert rows == [(1, 1, 3, 1), (2, 2, 4, 1), (3, 3, 5, 1), (4, 4, 3, 0)]


def test_trace_single_row_window():
    rows = list(trace_terms(PairCountQuery(100, 1), (50, 50)))
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


def test_trace_checks_at_the_call_and_computes_s_as_rows_are_taken(monkeypatch):
    q = PairCountQuery(100, 1)
    with monkeypatch.context() as m:
        m.setattr(census, "iter_segments", lambda *args: pytest.fail("stream made"))
        for window in ((9, 3), (0, 5), (95, 99), (1, 2**64)):
            with pytest.raises(ValueError):
                trace_terms(q, window)
    monkeypatch.setattr(table, "_fill_segment", lambda *args: pytest.fail("S computed"))
    rows = trace_terms(q, (3, 9))
    with pytest.raises(pytest.fail.Exception, match="S computed"):
        next(rows)


def test_trace_sum_reproduces_count():
    # Both conventions give the count without its correction: PAPER_LITERAL
    # summed from j = 2, FORMULA_CONSISTENT from j = 1.  PAPER_LITERAL summed
    # from j = 1 gives the literal reading's count.
    for half_gap in (1, 2, 3):
        for x in (2 * half_gap + 3, 50, 400, 1001):
            query = PairCountQuery(x, half_gap)
            window = (1, x - query.gap)
            paper = [term for *_, term in trace_terms(query, window, PAPER)]
            formula = [term for *_, term in trace_terms(query, window)]
            default = count_pairs(query)
            literal = count_pairs(query, literal=True)
            want = default.formula_count - default.correction_applied
            assert sum(paper[1:]) == sum(formula) == want, (half_gap, x)
            assert sum(paper) == literal.formula_count - literal.correction_applied, (half_gap, x)


def test_trace_memory_follows_the_window_not_the_gap(traced_peak):
    # S is computed over the window and the window shifted by 2n, not over
    # everything between them.  The tiles are built once per process; build
    # them first so the peak is the call's own.
    table._tiles()
    query = PairCountQuery(2 * 10**6 + 10, 10**6)
    rows, peak = traced_peak(lambda: list(trace_terms(query, (1, 4))))
    assert peak < 10**6
    assert [row[0] for row in rows] == [1, 2, 3, 4]


def test_trace_rows_stream_in_about_one_segment(traced_peak):
    # 2^18 rows held as a list take about 45 MB; streamed, one segment of
    # each side and its rows' Python ints are held at a time.
    table._tiles()
    query = PairCountQuery((1 << 18) + 2, 1)
    with patch.object(table, "SEGMENT_SIZE", 1 << 16):
        _, peak = traced_peak(lambda: deque(trace_terms(query, (1, 1 << 18)), maxlen=0))
    assert peak < 16 * 2**20


@pytest.mark.parametrize("size", [7, 64, 1000])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_trace_rows_at_segment_edges_match_core_s(size, data):
    # Each stream cuts its window into segments of `size`: the windows span
    # three or more, and the gaps run from 2 to past two segment lengths.
    conv = data.draw(st.sampled_from(list(Convention)))
    half_gap = data.draw(st.integers(1, size + 1))
    lo = data.draw(st.sampled_from([1, 2]) | st.integers(1, 2 * size))
    hi = lo + data.draw(st.integers(2 * size + 1, 3 * size))
    query = PairCountQuery(hi + 2 * half_gap + data.draw(st.integers(0, 3)), half_gap)
    with patch.object(table, "SEGMENT_SIZE", size):
        rows = list(trace_terms(query, (lo, hi), conv))
    want = []
    for j in range(lo, hi + 1):
        s_j, s_j2n = s(j, conv), s(j + 2 * half_gap, conv)
        want.append((j, s_j, s_j2n, pair_term(j, half_gap, s_j, s_j2n)))
    assert rows == want


# --- sweeps and cross-checks --------------------------------------------------


def test_twin_sweep_matches_point_function():
    sweep = sample_counts(np.arange(2001), [2])[0, 0]
    rng = random.Random(5)
    for x in [0, 1, 2, 3, 4, 5] + [rng.randrange(2000) for _ in range(40)]:
        assert sweep[x] == count_twin(x).formula_count, x


def test_pair_sweep_matches_point_function():
    sweep = sample_counts(np.arange(2001), [6])[0, 0]
    rng = random.Random(6)
    for x in [0, 6, 7, 8] + [rng.randrange(2000) for _ in range(40)]:
        assert sweep[x] == count_pairs(PairCountQuery(x, 3)).formula_count, x


def test_prime_sweep_matches_point_function():
    sweep = sample_counts(np.arange(1501), [0])[0, 0]
    for x in (0, 1, 2, 3, 4, 5, 700, 1500):
        assert sweep[x] == count_primes(x).formula_count, x


def test_twin_monotone_with_exact_increments(sieve_100k):
    # Increment at x iff (x-2, x) is a twin pair: the larger-member reading.
    limit = 10_000
    sweep = sample_counts(np.arange(limit + 1), [2])[0, 0]
    flags = np.zeros(limit + 1, dtype=bool)
    flags[1::2] = sieve_100k[: (limit + 1) // 2]  # the odd n, then the prime 2
    flags[2] = True
    diffs = np.diff(sweep)
    assert (diffs >= 0).all()
    expected = np.zeros(limit, dtype=np.int64)
    expected[2:] = (flags[1:-2] & flags[3:]).astype(np.int64)
    np.testing.assert_array_equal(diffs, expected)


def test_sweeps_match_oracle(sieve_100k):
    for half_gap in (1, 2, 5):
        formula = sample_counts(np.arange(4001), [2 * half_gap])[0, 0]
        truth = pair_counts_at(np.arange(4001), [2 * half_gap], sieve_100k)[0]
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
    counts = sample_counts(np.array([x]), [0, 2])
    assert counts[0].ravel().tolist() == [pi, twins]


@pytest.mark.slow
def test_published_prime_and_twin_counts_at_ten_to_the_ten():
    # Minutes on two threads; 10^10 - 1 and 10^10 + 1 are composite.
    counts = sample_counts(np.array([10**10]), [0, 2], threads=2)
    assert counts[0].ravel().tolist() == [455_052_511, 27_412_679]


# --- the uncorrected sum-from-1 reading ---------------------------------------


def test_literal_twin_overcounts_by_one_from_three(sieve_100k):
    literal = sample_counts(np.arange(2001), [2])[1, 0]
    truth = pair_counts_at(np.arange(2001), [2], sieve_100k)[0]
    delta = literal - truth
    assert (delta[:3] == 0).all()
    assert (delta[3:] == 1).all()


def test_literal_pairs_overcount_iff_gap_plus_one_prime(sieve_100k):
    for half_gap in range(2, 11):
        literal = sample_counts(np.arange(2001), [2 * half_gap])[1, 0]
        truth = pair_counts_at(np.arange(2001), [2 * half_gap], sieve_100k)[0]
        delta = literal - truth
        threshold = 2 * half_gap + 1
        expected = 1 if is_prime(threshold) else 0
        assert (delta[:threshold] == 0).all(), half_gap
        assert (delta[threshold:] == expected).all(), half_gap


# Gaps 2n with 2n + 1 prime (the literal j = 1 term can be 1) and composite.
_LITERAL_GAPS = [0, 2, 4, 6, 8, 10, 14, 20, 24, 26]


@st.composite
def _literal_case(draw):
    """Ascending xs (duplicates, 0 and 1 allowed), gaps, and a segment size near a gap."""
    xs = sorted(draw(st.lists(st.integers(0, 90), min_size=1, max_size=12)))
    xs = sorted(xs + draw(st.sampled_from([[], [0], [1], [0, 1], [xs[-1]]])))
    gaps = draw(st.lists(st.sampled_from(_LITERAL_GAPS), min_size=1, max_size=3))
    gaps.append(2 * (xs[-1] // 2 + 1 + draw(st.integers(0, 3))))  # even, past max(xs)
    gap = draw(st.sampled_from(gaps))
    segment_size = draw(st.sampled_from([1, 7, max(1, gap - 1), gap + 1]))
    return np.array(xs), gaps, segment_size, draw(st.sampled_from([1, 2]))


@settings(max_examples=60, deadline=None)
@given(_literal_case())
def test_literal_counts_are_the_plain_sum_from_one(case):
    # The literal reading adds the j = 1 term, the flag at 1 + 2n, to the default
    # count; here it is checked against the summands of the sum from j = 1.
    xs, gaps, segment_size, threads = case
    top = int(xs[-1])
    values = [0] + s_range(1, top, PAPER).values.tolist() if top else [0]
    with patch.object(table, "SEGMENT_SIZE", segment_size):
        got = sample_counts(xs, gaps, threads=threads)[1]
    for k, gap in enumerate(gaps):
        for i, x in enumerate(xs.tolist()):
            if gap:
                terms = [pair_term(j, gap // 2, values[j], values[j + gap]) for j in range(1, x - gap + 1)]
            else:
                terms = [values[j] // j for j in range(1, x + 1)]
            composite = int(x >= census._COMPOSITE_HITS.get(gap, x + 1))
            assert got[k, i] == sum(terms) - composite, (gap, x)


def test_one_pass_over_s_serves_every_gap_and_both_readings(monkeypatch):
    fills = []
    fill = table._fill_segment
    monkeypatch.setattr(table, "_fill_segment", lambda dest, a, b, base: fills.append(a) or fill(dest, a, b, base))
    with patch.object(table, "SEGMENT_SIZE", 64):
        counts = sample_counts(np.arange(1001), [2, 4, 8, 14])
    assert sorted(fills) == list(range(1, 1001, 64))  # 16 segments, each filled once for four gaps
    truth = pair_counts_at(np.arange(1001), [2, 4, 8, 14])
    literal_term = np.array([[1], [1], [0], [0]]) * (np.arange(1001) >= [[3], [5], [9], [15]])
    np.testing.assert_array_equal(counts, [truth, truth + literal_term])


@pytest.mark.parametrize(
    "segment_size, xs",
    [
        (7, [0, 1, 2, 3, 4, 5, 9, 10, 11, 40, 41, 43, 600, 2999, 3000]),
        (65536, [0, 1, 4, 5, 50, 65535, 65536, 65537, 70_000, 131_073, 299_999, 300_000]),
    ],
)
def test_sample_points_that_skip_segments_match_the_oracle(segment_size, xs):
    # A segment lists its hits only up to its last sample point, and none
    # when it holds no sample point; the points skip some segments whole
    # and fall mid-segment, at its first entry and at its last in others.
    xs = np.array(xs)
    gaps = [0, 2, 6, 30]
    with patch.object(table, "SEGMENT_SIZE", segment_size):
        counts = sample_counts(xs, gaps)
    np.testing.assert_array_equal(counts[0], pair_counts_at(xs, gaps))
    np.testing.assert_array_equal(counts, sample_counts(np.arange(xs[-1] + 1), gaps)[:, :, xs])


@pytest.mark.parametrize("size", [7, 63, 64, 65, 1000])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_packed_counts_at_word_and_segment_edges_match_a_plain_sieve(size, data):
    # Both sides count each segment's hits by popcount over packed 64-bit
    # words.  The xs fall on every segment and word edge of either side, over
    # at least two segments of each; one gap is at least the segment size, and
    # 64, 128 and 130 shift by whole words (the oracle by half the gap).
    top = data.draw(st.integers(2 * size + 2, 6 * size + 130))
    gaps = [0, 2, 6, 64, 128, 130, size + size % 2 + 2 * data.draw(st.integers(0, 3))]
    edges = {0, 1, 2, top}
    for a in range(1, top + 1, size):  # the census's segment of j in [a, a + size - 1]
        edges |= {a, a + size - 1} | {a + 64 * k + d for k in range(1, size // 64 + 2) for d in (-1, 0, 1)}
    for k0 in range(0, (top + 1) // 2, size):  # the oracle's segment of odd 2k + 1, k from k0
        starts = [k0] + [k0 + 64 * k for k in range(1, size // 64 + 2)] + [k0 + size]
        edges |= {2 * k + d for k in starts for d in (-1, 0, 1)}
    extra = data.draw(st.lists(st.integers(0, top), max_size=5))
    xs = np.array(sorted(x for x in [*edges, *extra] if 0 <= x <= top))
    prime = np.ones(top + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, int(top**0.5) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    want = np.empty((2, len(gaps), xs.size), dtype=np.int64)
    for k, gap in enumerate(gaps):
        hits = np.zeros(top + 1, dtype=bool)  # a pair is counted at its larger member
        hits[gap:] = prime[gap:] & prime[: max(top + 1 - gap, 0)]
        want[0, k] = np.cumsum(hits)[xs]
        # The literal reading adds the j = 1 term: 1 for gap 0, else whether 1 + gap is prime.
        term = 1 if gap == 0 else int(1 + gap <= top and prime[1 + gap])
        want[1, k] = want[0, k] + term * (xs >= 1 + gap)
    threads = data.draw(st.sampled_from([1, 2]))
    with patch.object(table, "SEGMENT_SIZE", size), patch.object(oracle, "SEGMENT_SIZE", size):
        np.testing.assert_array_equal(sample_counts(xs, gaps, threads=threads), want)
        np.testing.assert_array_equal(pair_counts_at(xs, gaps), want[0])


def test_literal_point_count_matches_sweep():
    literal_sweep = sample_counts(np.arange(301), [2])[1, 0]
    for x in (2, 3, 4, 5, 17, 300):
        assert count_twin(x, literal=True).formula_count == literal_sweep[x]


# --- report plumbing -----------------------------------------------------------


def test_report_elapsed_nonnegative():
    assert count_twin(100).elapsed >= 0.0


def test_sample_points_must_ascend_from_zero():
    # Unsorted points would read counts from the wrong segments.
    for xs in ([100, 50], [-5, 100]):
        with pytest.raises(ValueError):
            sample_counts(np.array(xs), [2])
    assert sample_counts(np.array([50, 50, 100]), [2])[0].ravel().tolist() == [6, 6, 8]
    for xs in ([10.9, 100.5], [False, True]):  # once read as the counts at 10 and 100
        with pytest.raises(TypeError, match="integers"):
            sample_counts(np.array(xs), [0, 2])
    for xs in ([2**63], [5, 2**64 - 1]):  # the int64 cast once wrapped these negative
        with pytest.raises(ValueError, match=r"max\(xs\) must be below 2\^63"):
            sample_counts(np.array(xs, dtype=np.uint64), [2])


def test_many_gaps_share_the_sample_points_memory(traced_peak):
    # The counts go straight into the result: with four gaps the peak is
    # the xs, the result and the point lookups of a segment, under 96 MiB.
    xs = np.arange(2, 2**20 + 2)
    counts, peak = traced_peak(lambda: sample_counts(xs, [2, 4, 6, 8]))
    assert peak < 96 << 20
    assert counts[0, :, -1].tolist() == pair_counts_at(xs[-1:], [2, 4, 6, 8])[:, 0].tolist()


def test_one_flag_window_follows_the_largest_gap_not_their_sum(traced_peak):
    # Each side holds one window of the last flags up to its largest gap: a
    # copy of them per gap would peak near 200 MiB here, and near 100 MiB on
    # the oracle's odd-only side.
    xs, gaps = np.array([10**6]), list(range(200_000, 202_000, 2))
    counts, peak = traced_peak(lambda: sample_counts(xs, gaps))
    assert peak < 32 << 20
    odd_counts, peak = traced_peak(lambda: pair_counts_at(xs, gaps))
    assert peak < 16 << 20
    np.testing.assert_array_equal(counts[0], odd_counts)


def test_gaps_past_x_count_zero_without_holding_gap_flags(traced_peak):
    # A pair count carries its last `gap` flags; past x none can pair.
    xs = np.arange(101)
    counts, peak = traced_peak(lambda: sample_counts(xs, [4, 10**12]))
    assert peak < 1 << 20
    assert (counts[:, 1] == 0).all()
    assert (counts[:, 0] == pair_counts_at(xs, [4])[0] + [[0], [1]] * (xs >= 5)).all()


def test_query_validation_and_gap():
    q = PairCountQuery(100, 3)
    assert q.gap == 6
    with pytest.raises(ValueError):
        PairCountQuery(-1, 1)


def test_counts_reject_x_and_gaps_from_2_63_before_any_work():
    # x and the gap index int64 arrays; the bound is named before any stream starts.
    assert PairCountQuery(2**63 - 1, 2**62 - 1).gap == 2**63 - 2
    with patch("kempner.census.iter_segments", side_effect=AssertionError("streamed")):
        for count in (
            lambda: count_twin(2**63),
            lambda: oracle_pair_count(2**63, 1),
            lambda: oracle_pi(2**63),
            lambda: count_pairs(PairCountQuery(2**63, 1)),
        ):
            with pytest.raises(ValueError, match="x must be below 2\\^63"):
                count()
        with pytest.raises(ValueError, match="gap must be below 2\\^63"):
            PairCountQuery(100, 2**62)


@pytest.mark.parametrize("counts", [sample_counts, pair_counts_at])
@pytest.mark.parametrize(
    "xs, gaps, error, message",
    [
        (np.arange(20), [3], ValueError, "gap must be even (got 3)"),
        (np.arange(20), [2**63], ValueError, f"gap must be below 2^63 (got {2**63})"),
        (np.arange(20), [-2], ValueError, "gap must be >= 0 (got -2)"),
        (np.int64(10), [2], ValueError, "xs must be one-dimensional (got 0 dimensions)"),
        (np.arange(20).reshape(4, 5), [2], ValueError, "xs must be one-dimensional (got 2 dimensions)"),
        (np.array([1.0, np.nan]), [2], TypeError, "sample points must be integers (got dtype float64)"),
        (np.array([1.0, 1e19]), [2], TypeError, "sample points must be integers (got dtype float64)"),
        (np.array([True, False]), [2], TypeError, "sample points must be integers (got dtype bool)"),
        (np.array([2**64]), [2], TypeError, "sample points must be integers (got dtype object)"),
        (np.array([-5, 3]), [2], ValueError, "sample points must be ascending and >= 0"),
        (np.array([5, 3]), [2], ValueError, "sample points must be ascending and >= 0"),
    ],
    ids=[
        "odd-gap",
        "gap-2^63",
        "negative-gap",
        "0-d-xs",
        "2-d-xs",
        "nan-xs",
        "float-xs-past-2^63",
        "bool-xs",
        "xs-past-64-bits",
        "negative-xs",
        "descending-xs",
    ],
)
def test_both_sides_reject_bad_gaps_and_xs_alike(counts, xs, gaps, error, message):
    # Unchecked, gap 3 counts (2, 5) and the non-pair (4, 7) at x = 19.
    with pytest.raises(error) as caught:
        counts(xs, gaps)
    assert type(caught.value) is error and str(caught.value) == message


# --- invariance over segment size and thread count ------------------------------


@st.composite
def _stream_settings(draw):
    """A gap, an x, and a segment size from {1, gap - 1, gap, gap + 1, drawn}."""
    half_gap = draw(st.integers(1, 8))
    gap = 2 * half_gap
    segment = draw(st.sampled_from([1, max(1, gap - 1), gap, gap + 1, draw(st.integers(1, 400))]))
    return draw(st.integers(0, 700)), half_gap, segment, draw(st.sampled_from([1, 2]))


@settings(max_examples=60, deadline=None)
@given(_stream_settings(), st.booleans())
def test_counts_do_not_depend_on_segment_size_or_threads(case, literal):
    # A segment shorter than the gap makes the carried flags span several segments.
    x, half_gap, segment_size, threads = case
    query = PairCountQuery(x, half_gap)
    xs = np.arange(x + 1)

    def counts(threads):
        pairs = count_pairs(query, literal=literal, threads=threads)
        return (
            pairs.formula_count,
            count_twin(x, literal=literal, threads=threads).formula_count,
            count_primes(x, threads=threads).formula_count,
            sample_counts(xs, [2 * half_gap], threads=threads)[int(literal), 0],
            sample_counts(xs, [0], threads=threads)[0, 0],
        )

    want = counts(1)
    with patch.object(table, "SEGMENT_SIZE", segment_size):
        got = counts(threads)
    assert got[:3] == want[:3]
    np.testing.assert_array_equal(got[3], want[3])
    np.testing.assert_array_equal(got[4], want[4])


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
    with patch.object(table, "SEGMENT_SIZE", 64):
        assert count_twin(5000, threads=2).formula_count == 126
    assert calls == {"base primes": 1, "pools": 1}
    # A range of one segment fills inline, whatever the thread count.
    calls.update({"base primes": 0, "pools": 0})
    assert count_twin(1000, threads=2).formula_count == 35
    assert calls == {"base primes": 1, "pools": 0}
