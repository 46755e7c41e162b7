"""CLI surface: exact output bytes, exit codes, determinism."""

import itertools
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from kempner import census, cli, oracle, table
from kempner.cli import main
from kempner.core import Convention, s
from kempner.table import STable, s_range

FORMULA = Convention.FORMULA_CONSISTENT


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if any S value, table or count is computed."""

    def fail(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for module, name in ((census, "iter_segments"), (cli, "iter_segments"),
                         (table, "_small_primes"), (cli, "s")):
        monkeypatch.setattr(module, name, fail)


def assert_usage_error(result):
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Invalid value for" in result.output
    assert "Traceback" not in result.output


# --- s -------------------------------------------------------------------------


def test_s_basic(runner):
    result = invoke(runner, "s", "4")
    assert result.exit_code == 0
    assert result.output == "n,s\n4,4\n"


def test_s_convention_paper(runner):
    assert invoke(runner, "s", "1", "--convention", "paper").output == "n,s\n1,1\n"
    assert invoke(runner, "s", "1", "--convention", "formula").output == "n,s\n1,0\n"


def test_s_rejects_zero(runner):
    result = runner.invoke(main, ["s", "0"])
    assert result.exit_code == 2


# --- twins ----------------------------------------------------------------------


def test_twins_verify(runner):
    result = invoke(runner, "twins", "100", "--verify")
    assert result.exit_code == 0
    assert result.output == "x,t2,oracle,match\n100,8,8,true\n"


def test_twins_small(runner):
    assert invoke(runner, "twins", "3").output == "x,t2\n3,0\n"


def test_twins_thousand_verified(runner):
    result = invoke(runner, "twins", "1000", "--verify")
    assert result.exit_code == 0
    assert result.output == "x,t2,oracle,match\n1000,35,35,true\n"


def test_twins_trace_rows(runner):
    result = invoke(runner, "twins", "20", "--trace", "3..9")
    lines = result.output.splitlines()
    assert lines[0] == "x,t2"
    assert lines[2] == "j,s_j,s_j_plus_gap,term"
    assert lines[3] == "3,3,5,1"
    assert lines[-1] == "9,6,11,0"


def test_twins_trace_bad_window(runner, no_work):
    # Each is rejected before the count starts; 1..19 passes x - 2 = 18.
    for window in ("9..3", "zap", "0..3", "1..19", "1..2..3", f"1..{2**64}"):
        assert_usage_error(runner.invoke(main, ["twins", "20", "--trace", window]))


def test_twins_trace_window_limit(runner, monkeypatch):
    monkeypatch.setattr(cli, "MAX_TRACE_ROWS", 7)
    assert invoke(runner, "twins", "30", "--trace", "3..9").output.splitlines()[-1] == "9,6,11,0"
    assert_usage_error(runner.invoke(main, ["twins", "30", "--trace", "3..10"]))


# --- pairs ----------------------------------------------------------------------


def test_pairs_verify(runner):
    result = invoke(runner, "pairs", "100", "--gap", "4", "--verify")
    assert result.exit_code == 0
    assert result.output == "x,gap,count,oracle,match\n100,4,8,8,true\n"


def test_pairs_small(runner):
    assert invoke(runner, "pairs", "7", "--gap", "6").output == "x,gap,count\n7,6,0\n"


def test_pairs_gap_two_delegates(runner):
    result = invoke(runner, "pairs", "100", "--gap", "2", "--verify")
    assert result.output == "x,gap,count,oracle,match\n100,2,8,8,true\n"


def test_pairs_gap_six_verified(runner):
    result = invoke(runner, "pairs", "10000", "--gap", "6", "--verify")
    assert result.output == "x,gap,count,oracle,match\n10000,6,411,411,true\n"


def test_pairs_rejects_odd_or_small_gap(runner):
    assert runner.invoke(main, ["pairs", "100", "--gap", "3"]).exit_code == 2
    assert runner.invoke(main, ["pairs", "100", "--gap", "0"]).exit_code == 2


# --- pi -------------------------------------------------------------------------


def test_pi_verify(runner):
    result = invoke(runner, "pi", "100", "--verify")
    assert result.output == "x,pi,oracle,match\n100,25,25,true\n"


def test_pi_small(runner):
    assert invoke(runner, "pi", "1").output == "x,pi\n1,0\n"
    assert invoke(runner, "pi", "4").output == "x,pi\n4,2\n"


# --- table ----------------------------------------------------------------------


def test_table_csv_stdout(runner):
    result = invoke(runner, "table", "1", "10")
    lines = result.output.splitlines()
    assert lines[0] == "n,s,is_fixed_point"
    values = [int(line.split(",")[1]) for line in lines[1:]]
    assert values == [0, 2, 3, 4, 5, 3, 7, 4, 6, 5]
    fixed = [line.split(",")[2] for line in lines[1:]]
    assert fixed == ["false", "true", "true", "true", "true",
                     "false", "true", "false", "false", "false"]


def test_table_csv_paper_convention(runner):
    result = invoke(runner, "table", "1", "3", "--convention", "paper")
    assert result.output.splitlines()[1] == "1,1,true"


def test_table_single_row(runner):
    result = invoke(runner, "table", "5", "5")
    assert result.output == "n,s,is_fixed_point\n5,5,true\n"


def test_table_cache_round_trip(runner, tmp_path):
    path = tmp_path / "cache.skt"
    result = invoke(runner, "table", "1", "1000", "--format", "cache", "--out", str(path))
    assert result.exit_code == 0
    loaded = STable.load(path)
    assert loaded.lo == 1 and loaded.hi == 1000
    direct = invoke(runner, "table", "1", "1000").output.splitlines()[1:]
    assert [int(line.split(",")[1]) for line in direct] == loaded.values.tolist()


def test_table_cache_env_dir(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("SKT_CACHE_DIR", str(tmp_path / "cachedir"))
    result = invoke(runner, "table", "2", "50", "--format", "cache")
    assert result.exit_code == 0
    written = result.output.strip()
    assert written.endswith("s_2_50_formula.skt")
    assert STable.load(written).hi == 50


def test_table_bad_range(runner):
    assert runner.invoke(main, ["table", "10", "5"]).exit_code == 2
    assert runner.invoke(main, ["table", "0", "5"]).exit_code == 2


def test_table_io_failure(runner):
    result = runner.invoke(
        main, ["table", "1", "10", "--format", "cache", "--out", "/nonexistent/v.skt"]
    )
    assert result.exit_code == 3


def test_table_csv_does_not_depend_on_segment_size_or_threads(runner):
    base = invoke(runner, "table", "1", "3000").output
    for segment_size in (1, 7, table.SEGMENT_SIZE):
        for threads in ("1", "2"):
            with patch.object(table, "SEGMENT_SIZE", segment_size):
                other = invoke(runner, "table", "1", "3000", "--threads", threads)
            assert other.output == base, (segment_size, threads)


def test_table_csv_streams_in_less_memory_than_the_values(runner, tmp_path, traced_peak):
    path = tmp_path / "table.csv"
    table._tiles()  # the pre-sieve tiles (3.8 MB, built once per process) count in no call
    with patch.object(table, "SEGMENT_SIZE", 4096):
        result, peak = traced_peak(lambda: invoke(runner, "table", "1", "200000", "--out", str(path)))
    assert result.exit_code == 0
    assert peak < 8 * 200_000  # the table's u64 values alone: 1.6 MB
    lines = path.read_text().splitlines()
    assert len(lines) == 200_001
    assert lines[-1] == f"200000,{s(200_000)},false"


def test_table_cache_streams_in_less_memory_than_the_values(runner, tmp_path, traced_peak):
    path = tmp_path / "cache.skt"
    args = ("table", "1", "200000", "--format", "cache", "--out", str(path), "--threads", "2")
    table._tiles()
    with patch.object(table, "SEGMENT_SIZE", 4096):
        result, peak = traced_peak(lambda: invoke(runner, *args))
    assert result.exit_code == 0
    assert peak < 8 * 200_000  # the table's u64 values alone: 1.6 MB
    assert path.read_bytes() == s_range(1, 200_000, FORMULA).to_bytes()
    assert invoke(runner, "table", "6", "15", "--format", "cache", "--out", str(path)).exit_code == 0
    assert STable.load(path).values.tolist() == [s(j) for j in range(6, 16)]


@pytest.mark.parametrize("segment_size", [3, table.SEGMENT_SIZE])
def test_table_csv_across_two_to_the_32_same_over_threads(runner, tmp_path, segment_size):
    lo, hi = 2**32 - 5, 2**32 + 5
    caches = []
    with patch.object(table, "SEGMENT_SIZE", segment_size):
        one = invoke(runner, "table", str(lo), str(hi), "--threads", "1").stdout_bytes
        two = invoke(runner, "table", str(lo), str(hi), "--threads", "2").stdout_bytes
        for threads in ("1", "2"):
            path = tmp_path / f"cache{threads}.skt"
            invoke(runner, "table", str(lo), str(hi), "--format", "cache", "--out", str(path),
                   "--threads", threads)
            caches.append(path.read_bytes())
    assert one == two
    rows = one.decode().splitlines()
    assert rows[1] == f"{lo},{lo},true"  # 2^32 - 5 is prime
    assert rows[2:] == [f"{j},{s(j)},false" for j in range(lo + 1, hi + 1)]
    # The segments below 2^32 stream as uint32 and are widened to u64.
    assert caches == [s_range(lo, hi, FORMULA).to_bytes()] * 2


def test_table_csv_unwritable_out_exits_before_any_work(runner, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was opened")

    monkeypatch.setattr(cli, "iter_segments", no_work)
    monkeypatch.setattr(table, "_small_primes", no_work)
    for fmt in ("csv", "cache"):
        result = runner.invoke(main, ["table", "1", "10", "--format", fmt, "--out", "/nonexistent/t.csv"])
        assert result.exit_code == 3, fmt
        assert "cannot write /nonexistent/t.csv" in result.output


@pytest.mark.parametrize("command, counter", [(["twins", "100"], "count_twin"),
                                              (["pairs", "100", "--gap", "4"], "count_pairs"),
                                              (["pi", "100"], "count_primes")])
def test_verified_count_mismatch_exits_one(runner, monkeypatch, command, counter):
    monkeypatch.setattr(census, counter, lambda *args, **kwargs: census.CountReport(5))
    for truth in ("oracle_pair_count", "oracle_pi"):
        monkeypatch.setattr(oracle, truth, lambda *args, **kwargs: 6)
    result = runner.invoke(main, command + ["--verify"])
    assert result.exit_code == 1
    assert result.output.splitlines()[1].endswith(",5,6,false")
    assert runner.invoke(main, command).exit_code == 0


# --- verify ----------------------------------------------------------------------


def test_verify_clean_sweep(runner):
    result = invoke(runner, "verify", "--max-x", "300", "--gaps", "2,4,6,8")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "gap,x_checked,mismatches"
    assert lines[1] == "2,299,0"
    assert "total_mismatches,0" in lines
    literal_start = lines.index("literal_gap,x_from,x_to,delta")
    literal = lines[literal_start + 1 : -1]
    # gap 2 departs from x = 3; gaps 4 and 6 from 2n+1 (prime); gap 8 never (9 composite).
    assert literal == ["2,3,300,1", "4,5,300,1", "6,7,300,1"]


def test_verify_full_twin_sweep_hundred_thousand(runner):
    result = invoke(runner, "verify", "--max-x", "100000", "--gaps", "2")
    lines = result.output.splitlines()
    assert lines[1] == "2,99999,0"
    assert lines[-1] == "total_mismatches,0"
    assert result.exit_code == 0


def test_verify_step_sampling(runner):
    result = invoke(runner, "verify", "--max-x", "1000", "--gaps", "2", "--step", "100")
    lines = result.output.splitlines()
    assert lines[1] == "2,11,0"  # x = 2, 102, ..., 902 plus the forced 1000
    assert result.exit_code == 0


def test_verify_rejects_bad_gaps(runner):
    assert runner.invoke(main, ["verify", "--max-x", "50", "--gaps", "5"]).exit_code == 2
    assert runner.invoke(main, ["verify", "--max-x", "50", "--gaps", ""]).exit_code == 2


# --- cross-cutting ----------------------------------------------------------------


def test_outputs_deterministic(runner):
    for args in (["table", "1", "50"], ["twins", "500", "--verify"],
                 ["verify", "--max-x", "200", "--gaps", "2,4"]):
        assert invoke(runner, *args).output == invoke(runner, *args).output


def test_thread_count_does_not_change_output(runner):
    with patch.object(table, "SEGMENT_SIZE", 256):
        single = invoke(runner, "twins", "2000", "--verify", "--threads", "1")
        multi = invoke(runner, "twins", "2000", "--verify", "--threads", "4")
    assert single.output == multi.output


def test_verify_numbers_reproducible_from_library(runner):
    # Spot-check that printed literal deltas equal library-recomputed values.
    from kempner import census, oracle

    result = invoke(runner, "verify", "--max-x", "400", "--gaps", "6")
    lines = result.output.splitlines()
    sieve = oracle.sieve_primes(400)
    literal = census.sample_counts(np.arange(401), [6])[1, 0]
    truth = oracle.pair_counts_at(np.arange(401), [6], sieve)[0]
    gap, x_from, x_to, delta = map(int, lines[lines.index("literal_gap,x_from,x_to,delta") + 1].split(","))
    for x in (x_from, (x_from + x_to) // 2, x_to):
        assert literal[x] - truth[x] == delta


# --- usage errors ------------------------------------------------------------------


_2_64 = str(2**64)


@pytest.mark.parametrize("args", [
    ["s", "--", "-1"], ["s", "0"], ["s", _2_64],
    ["twins", "--", "-1"], ["twins", str(2**63)], ["twins", _2_64],
    ["pairs", "--gap", "4", "--", "-1"], ["pairs", _2_64, "--gap", "4"],
    ["pairs", "100", "--gap", "-2"], ["pairs", "100", "--gap", "0"],
    ["pairs", "100", "--gap", _2_64], ["pairs", "100", "--gap", "4,6"],
    ["pi", "--", "-1"], ["pi", _2_64],
    ["table", "--", "-1", "5"], ["table", "0", "5"], ["table", "--", "1", "-1"],
    ["table", "1", "0"], ["table", "1", _2_64], ["table", str(2**64 - 1), _2_64],
    ["verify", "--max-x", "-1"], ["verify", "--max-x", _2_64],
    ["verify", "--max-x", "10", "--step", "-1"], ["verify", "--max-x", "10", "--step", "0"],
    ["verify", "--max-x", "10", "--gaps", "2,-2"], ["verify", "--max-x", "10", "--gaps", "0"],
    ["verify", "--max-x", "10", "--gaps", f"2,{_2_64}"],
])  # fmt: skip
def test_integer_arguments_out_of_range_are_usage_errors(runner, no_work, args):
    assert_usage_error(runner.invoke(main, args))


@pytest.mark.parametrize("command", [["twins", "10000000"], ["pairs", "10000000", "--gap", "4"],
                                     ["pi", "10000000"], ["table", "1", "10000000"],
                                     ["verify", "--max-x", "1000000"]])
def test_threads_over_the_limit_are_usage_errors(runner, no_work, command):
    assert_usage_error(runner.invoke(main, command + ["--threads", str(cli.MAX_THREADS + 1)]))


@pytest.mark.parametrize("command", [["twins", "1000"], ["pairs", "1000", "--gap", "4"],
                                     ["pi", "1000"], ["table", "1", "10"],
                                     ["verify", "--max-x", "100"]])
@pytest.mark.parametrize("option", ["--segment-size", "--threads"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_segment_and_thread_values_below_one_are_usage_errors(runner, command, option, value):
    result = runner.invoke(main, command + [option, value])
    assert result.exit_code == 2
    if option == "--segment-size":  # no longer an option: segment length is table.SEGMENT_SIZE
        assert "No such option" in result.output
    else:
        assert f"Invalid value for '{option}'" in result.output


@pytest.mark.parametrize("command", [["verify", "--max-x", "5000000000", "--step", "5000"],
                                     ["twins", "5000000000", "--verify"],
                                     ["pairs", "5000000000", "--gap", "6", "--verify"],
                                     ["pi", "5000000000", "--verify"],
                                     ["pi", "4000000000", "--verify"],
                                     ["twins", "2082408385", "--verify"]])
def test_oracle_streams_past_the_old_cap(runner, monkeypatch, command):
    # These x were refused while the oracle held its whole sieve; it now
    # streams one segment at a time.  Both sides are stubbed to count only
    # the prime 2: the oracle gets no segments, the formula side agrees.
    def only_two(xs, gaps, threads=1):
        counts = (np.array(gaps)[:, None] == 0) & (xs >= 2)
        return np.stack([counts, counts]).astype(np.int64)

    monkeypatch.setattr(census, "sample_counts", only_two)
    monkeypatch.setattr(oracle, "_segments", lambda limit, sieve=None: iter(()))
    result = runner.invoke(main, command)
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[-1].endswith((",true", "total_mismatches,0"))


@pytest.mark.slow
def test_verify_past_the_old_cap_in_bounded_memory():
    # A whole sieve to 3e9 would take 1.4 GiB; the streamed oracle holds a segment.
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    args = [sys.executable, "-m", "kempner", "verify", "--max-x", "3000000000", "--step", "4999"]
    with subprocess.Popen(args, stdout=subprocess.PIPE, env=env, text=True) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)  # the rusage of this child alone
        proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    assert usage.ru_maxrss < 150 * 1024  # KiB
    points = len(range(2, 3 * 10**9 + 1, 4999)) + 1  # the grid ends below max-x, which is added
    assert out.splitlines() == [
        "gap,x_checked,mismatches",
        f"2,{points},0",
        "literal_gap,x_from,x_to,delta",
        "2,5001,3000000000,1",  # 3 = 1 + 2 is prime: the j = 1 term counts from x = 3
        "total_mismatches,0",
    ]


def test_oversized_verify_grid_rejected_before_any_work(runner, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the grid size was checked")

    monkeypatch.setattr(np, "arange", no_work)
    monkeypatch.setattr(oracle, "sieve_primes", no_work)
    monkeypatch.setattr(census, "iter_segments", no_work)
    result = runner.invoke(main, ["verify", "--max-x", "2000000000", "--step", "1"])
    assert result.exit_code == 2
    assert "sampled x grid" in result.output


def test_verify_grid_limit_counts_the_forced_max_x(runner, monkeypatch):
    args = ["verify", "--max-x", "1000", "--step", "100"]  # 2, 102, ..., 902 and 1000
    monkeypatch.setattr(cli, "MAX_VERIFY_POINTS", 11)
    assert runner.invoke(main, args).exit_code == 0
    monkeypatch.setattr(cli, "MAX_VERIFY_POINTS", 10)
    assert runner.invoke(main, args).exit_code == 2


# --- literal runs -----------------------------------------------------------------------


@pytest.mark.parametrize("delta, runs", [
    ([], []),
    ([0, 0, 0], []),
    ([2, 2, 0, 0], [(3, 10, 2)]),
    ([0, 0, -1, -1], [(17, 24, -1)]),
    ([1, 1, 3, 3, 3], [(3, 10, 1), (17, 31, 3)]),
])  # fmt: skip
def test_runs_compress_equal_nonzero_deltas(delta, runs):
    xs = 3 + 7 * np.arange(len(delta), dtype=np.int64)
    assert list(cli._runs(xs, np.array(delta, dtype=np.int64))) == runs


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2, 2), max_size=40))
def test_runs_match_a_plain_grouping(delta):
    xs = 3 + 7 * np.arange(len(delta), dtype=np.int64)
    expected, i = [], 0
    for d, group in itertools.groupby(delta):
        n = len(list(group))
        if d:
            expected.append((int(xs[i]), int(xs[i + n - 1]), d))
        i += n
    assert list(cli._runs(xs, np.array(delta, dtype=np.int64))) == expected


# --- thread count and segment size --------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2500), st.lists(st.sampled_from([2, 4, 6, 8, 10, 12, 14]), min_size=1,
                                      max_size=3, unique=True),
       st.integers(1, 40), st.sampled_from([1, 2]), st.integers(1, 300))
def test_verify_output_does_not_depend_on_threads_or_segment_size(max_x, gaps, step, threads,
                                                                  segment_size):
    runner = CliRunner()
    args = ["verify", "--max-x", str(max_x), "--gaps", ",".join(map(str, gaps)),
            "--step", str(step)]
    base = runner.invoke(main, args + ["--threads", "1"])
    with patch.object(table, "SEGMENT_SIZE", segment_size):
        other = runner.invoke(main, args + ["--threads", str(threads)])
    assert base.exit_code == other.exit_code == 0
    assert other.output == base.output
