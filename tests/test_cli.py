"""CLI surface: exact output bytes, exit codes, determinism."""

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from kempner import census, cli, oracle, table
from kempner.cli import main
from kempner.table import STable


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


# --- s -------------------------------------------------------------------------


def test_s_basic(runner):
    result = invoke(runner, "s", "4")
    assert result.exit_code == 0
    assert result.output == "n,s\n4,4\n"


def test_s_convention_paper(runner):
    assert invoke(runner, "s", "1", "--convention", "paper").output == "n,s\n1,1\n"
    assert invoke(runner, "s", "1", "--convention", "formula").output == "n,s\n1,0\n"


def test_s_kernels_agree(runner):
    naive = invoke(runner, "s", "6", "--kernel", "naive").output
    factor = invoke(runner, "s", "6", "--kernel", "factor").output
    assert naive == factor == "n,s\n6,3\n"


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


def test_twins_trace_bad_window(runner):
    assert runner.invoke(main, ["twins", "20", "--trace", "9..3"]).exit_code == 2
    assert runner.invoke(main, ["twins", "20", "--trace", "zap"]).exit_code == 2


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


# --- bench -----------------------------------------------------------------------


def test_bench_empty_table(runner):
    result = invoke(runner, "bench", "--max-x", "0")
    assert result.exit_code == 0
    assert result.output == "kernel,max_x,elapsed_s\n"


def test_bench_row_format(runner):
    result = invoke(runner, "bench", "--max-x", "2000", "--kernel", "range")
    lines = result.output.splitlines()
    assert lines[0] == "kernel,max_x,elapsed_s"
    kernel, max_x, elapsed = lines[1].split(",")
    assert kernel == "range" and max_x == "2000"
    assert float(elapsed) >= 0.0


def test_bench_naive_slower_than_range(runner):
    def elapsed_of(kernel):
        out = invoke(runner, "bench", "--max-x", "10000", "--kernel", kernel).output
        return float(out.splitlines()[1].split(",")[2])

    assert elapsed_of("naive") > elapsed_of("range")


# --- cross-cutting ----------------------------------------------------------------


def test_outputs_deterministic(runner):
    for args in (["table", "1", "50"], ["twins", "500", "--verify"],
                 ["verify", "--max-x", "200", "--gaps", "2,4"]):
        assert invoke(runner, *args).output == invoke(runner, *args).output


def test_thread_count_does_not_change_output(runner):
    single = invoke(runner, "twins", "2000", "--verify", "--threads", "1",
                    "--segment-size", "256")
    multi = invoke(runner, "twins", "2000", "--verify", "--threads", "4",
                   "--segment-size", "256")
    assert single.output == multi.output


def test_verify_numbers_reproducible_from_library(runner):
    # Spot-check that printed literal deltas equal library-recomputed values.
    from kempner import census, oracle

    result = invoke(runner, "verify", "--max-x", "400", "--gaps", "6")
    lines = result.output.splitlines()
    sieve = oracle.sieve_primes(400)
    literal = census.pair_count_sweep(400, 3, literal=True)
    truth = oracle.pair_count_sweep(400, 3, sieve)
    gap, x_from, x_to, delta = map(int, lines[lines.index("literal_gap,x_from,x_to,delta") + 1].split(","))
    for x in (x_from, (x_from + x_to) // 2, x_to):
        assert literal[x] - truth[x] == delta


# --- usage errors ------------------------------------------------------------------


@pytest.mark.parametrize("command", [["twins", "1000"], ["pairs", "1000", "--gap", "4"],
                                     ["pi", "1000"], ["table", "1", "10"],
                                     ["verify", "--max-x", "100"], ["bench", "--max-x", "10"]])
@pytest.mark.parametrize("option", ["--segment-size", "--threads"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_segment_and_thread_values_below_one_are_usage_errors(runner, command, option, value):
    result = runner.invoke(main, command + [option, value])
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.output


@pytest.mark.parametrize("command", [["verify", "--max-x", "5000000000"],
                                     ["twins", "5000000000", "--verify"],
                                     ["pairs", "5000000000", "--gap", "6", "--verify"],
                                     ["pi", "5000000000", "--verify"]])
def test_oracle_cap_rejected_before_any_work(runner, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the oracle cap was checked")

    monkeypatch.setattr(table, "_small_primes", no_work)
    monkeypatch.setattr(census, "iter_segments", no_work)
    result = runner.invoke(main, command)
    assert result.exit_code == 2
    assert "over the cap" in result.output


def test_oversized_verify_grid_rejected_before_any_work(runner, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the grid size was checked")

    monkeypatch.setattr(np, "arange", no_work)
    monkeypatch.setattr(oracle, "sieve_primes", no_work)
    monkeypatch.setattr(census, "iter_segments", no_work)
    result = runner.invoke(main, ["verify", "--max-x", "4000000000", "--step", "1"])
    assert result.exit_code == 2
    assert "sampled x grid" in result.output


def test_verify_grid_limit_counts_the_forced_max_x(runner, monkeypatch):
    args = ["verify", "--max-x", "1000", "--step", "100"]  # 2, 102, ..., 902 and 1000
    monkeypatch.setattr(cli, "MAX_VERIFY_POINTS", 11)
    assert runner.invoke(main, args).exit_code == 0
    monkeypatch.setattr(cli, "MAX_VERIFY_POINTS", 10)
    assert runner.invoke(main, args).exit_code == 2


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
    other = runner.invoke(main, args + ["--threads", str(threads),
                                        "--segment-size", str(segment_size)])
    assert base.exit_code == other.exit_code == 0
    assert other.output == base.output
