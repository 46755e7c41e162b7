"""Acceptance suite: every criterion at its stated tolerance.

All comparisons are exact integer equality (zero tolerance).  Stated time
budgets are asserted as hard bounds and each criterion prints one
PASS/FAIL line; run with ``pytest tests/test_acceptance.py -s`` to see
them.
"""

import random
import time

import numpy as np
from click.testing import CliRunner

from kempner.census import (
    PairCountQuery,
    count_pairs,
    count_primes,
    count_twin,
    pair_term,
    sample_counts,
)
from kempner.cli import main as cli_main
from kempner.core import Convention, factorize, is_prime, legendre_valuation, s, s_naive
from kempner.oracle import pair_counts_at, sieve_primes
from kempner.table import CacheFormatError, STable, s_range

PAPER = Convention.PAPER_LITERAL


def _run(num, description, body, budget=None):
    started = time.perf_counter()
    error = None
    try:
        body()
    except AssertionError as exc:  # still print the line before failing
        error = exc
    elapsed = time.perf_counter() - started
    over = budget is not None and elapsed >= budget
    status = "FAIL" if (error is not None or over) else "PASS"
    print(f"[{status}] criterion {num:2d} ({elapsed:6.2f}s): {description}")
    if error is not None:
        raise error
    if over:
        raise AssertionError(
            f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
        )


def test_criterion_1_definition_conformance():
    def body():
        for n in range(1, 5001):
            assert s(n, PAPER) == s_naive(n, PAPER), n

    _run(1, "s(n) = s_naive(n) for n in [1, 5000]", body, budget=30)


def test_criterion_2_fixed_point_law():
    def body():
        limit = 10**5
        table = s_range(2, limit)
        js = np.arange(2, limit + 1, dtype=np.uint64)
        fixed = table.values == js
        sieve = sieve_primes(limit)
        flags = np.array([sieve.is_prime(n) for n in range(limit + 1)])
        expected = flags[2:].copy()
        expected[4 - 2] = True
        assert (fixed == expected).all()

    _run(2, "s(n) = n iff n = 4 or n prime, n in [2, 1e5]", body, budget=10)


def test_criterion_3_twin_formula_reproduction():
    def body():
        limit = 10**5
        formula = sample_counts(np.arange(limit + 1), [2])[0, 0]
        truth = pair_counts_at(np.arange(limit + 1), [2])[0]
        assert (formula[2:] == truth[2:]).all()
        rng = random.Random(31)
        for x in [2, 3, 4, 5, limit] + [rng.randrange(2, limit) for _ in range(25)]:
            assert count_twin(x).formula_count == formula[x], x

    _run(3, "count_twin(x) = sieve count for all x in [2, 1e5]", body, budget=60)


def test_criterion_4_gap_formula_reproduction():
    def body():
        limit = 10**4
        sieve = sieve_primes(limit)
        rng = random.Random(41)
        for half_gap in range(2, 11):
            formula = sample_counts(np.arange(limit + 1), [2 * half_gap])[0, 0]
            truth = pair_counts_at(np.arange(limit + 1), [2 * half_gap], sieve)[0]
            assert (formula[2:] == truth[2:]).all(), half_gap
            for x in [rng.randrange(2, limit) for _ in range(5)]:
                report = count_pairs(PairCountQuery(x, half_gap))
                assert report.formula_count == formula[x], (half_gap, x)

    _run(4, "count_pairs(x, n) = sieve count, n in [2, 10], x in [2, 1e4]", body, budget=60)


def test_criterion_5_prime_count_formula():
    def body():
        limit = 10**5
        formula = sample_counts(np.arange(limit + 1), [0])[0, 0]
        truth = pair_counts_at(np.arange(limit + 1), [0])[0]
        assert (formula == truth).all()
        for x in (0, 1, 2, 3, 4, 5, 100, limit):
            assert count_primes(x).formula_count == formula[x], x

    _run(5, "count_primes(x) = pi(x) for all x in [0, 1e5]", body, budget=30)


def test_criterion_6_literal_discrepancy_documented():
    def body():
        limit = 10**4
        sieve = sieve_primes(limit)

        xs = np.arange(limit + 1)
        twin_delta = sample_counts(xs, [2])[1, 0] - pair_counts_at(xs, [2], sieve)[0]
        assert (twin_delta[5:] == 1).all()

        for half_gap in range(2, 11):
            delta = sample_counts(xs, [2 * half_gap])[1, 0] - pair_counts_at(
                xs, [2 * half_gap], sieve
            )[0]
            threshold = 2 * half_gap + 1
            expected = 1 if is_prime(threshold) else 0
            assert (delta[threshold:] == expected).all(), half_gap
            assert (delta[:threshold] == 0).all(), half_gap

        # cmd_verify must report exactly the predicted j=1 discrepancies.
        max_x = 2000
        gaps = ",".join(str(2 * n) for n in range(1, 11))
        result = CliRunner().invoke(
            cli_main, ["verify", "--max-x", str(max_x), "--gaps", gaps],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert "total_mismatches,0" in lines
        start = lines.index("literal_gap,x_from,x_to,delta")
        reported = lines[start + 1 : lines.index("total_mismatches,0")]
        predicted = [f"2,3,{max_x},1"] + [
            f"{2 * n},{2 * n + 1},{max_x},1"
            for n in range(2, 11)
            if is_prime(2 * n + 1)
        ]
        assert reported == predicted

    _run(6, "sum-from-1, S(1)=1 reading off by +1 exactly as predicted", body)


def test_criterion_7_worked_term_and_single_correction():
    def body():
        assert pair_term(2, 1, 2, 4) == 1
        for x in (0, 1, 2, 3):
            assert count_twin(x).correction_applied == 0, x
        for x in (4, 5, 77, 10_000):
            assert count_twin(x).correction_applied == -1, x

    _run(7, "pair_term(2,1,2,4) = 1; one -1 correction exactly when x >= 4", body)


def test_criterion_8_kernel_equivalence_and_determinism():
    def body():
        limit = 10**7
        started = time.perf_counter()
        single = s_range(1, limit, PAPER, threads=1)
        build_time = time.perf_counter() - started
        assert build_time < 60, f"single-threaded build took {build_time:.1f}s"

        rng = random.Random(81)
        for _ in range(10_000):
            j = rng.randrange(1, limit + 1)
            assert single.at(j) == s(j, PAPER), j

        parallel = s_range(1, limit, PAPER, threads=4)
        assert parallel.lo == single.lo and parallel.hi == single.hi
        assert parallel.conv == single.conv
        # Serialization is a pure function of (lo, hi, conv, values), so
        # identical payload bytes mean identical cache files.
        assert parallel.values.tobytes() == single.values.tobytes()

    _run(8, "s_range(1, 1e7) matches s on 1e4 samples; threads bit-identical", body)


def test_criterion_9_minimality_property():
    def body():
        rng = random.Random(91)
        for _ in range(10_000):
            n = rng.randrange(2, 10**9 + 1)
            fact = factorize(n)
            m = s(n)
            # m is the least m with v_p(m!) >= a for every p^a || n.
            assert all(legendre_valuation(m, p) >= a for p, a in fact), n
            assert not all(legendre_valuation(m - 1, p) >= a for p, a in fact), n

    _run(9, "n | s(n)! and n does not divide (s(n)-1)! for 1e4 random n <= 1e9", body, budget=30)


def test_criterion_10_cache_round_trip(tmp_path):
    def body():
        table = s_range(1, 10**6, PAPER)
        path = tmp_path / "million.skt"
        table.save(path)
        loaded = STable.load(path)
        assert loaded.lo == table.lo and loaded.hi == table.hi
        assert loaded.conv == table.conv
        assert np.array_equal(loaded.values, table.values)

        blob = bytearray(path.read_bytes())
        blob[4_000_017] ^= 0x10  # flip one bit inside the value block
        corrupt = tmp_path / "corrupt.skt"
        corrupt.write_bytes(bytes(blob))
        try:
            STable.load(corrupt)
            assert False, "corrupted cache accepted"
        except CacheFormatError:
            pass

        blob2 = bytearray(path.read_bytes())
        blob2[:4] = b"NOPE"
        bad_magic = tmp_path / "magic.skt"
        bad_magic.write_bytes(bytes(blob2))
        try:
            STable.load(bad_magic)
            assert False, "bad magic accepted"
        except CacheFormatError:
            pass

    _run(10, "1e6-entry cache round-trips losslessly; corruption rejected", body)
