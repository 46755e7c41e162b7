"""Benchmark of the kempner pipeline: one command, three checked workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh processes started from here: set-up probes
that only import the package and warm up, then one process that also
measures.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it, ``record {...}``, holds the environment, the operation
rates and the seed.  ``--workload all`` prints one such pair per workload.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("stream_counts", "verify_sweep", "high_tables")
SETUP_SAMPLES = {"full": 3, "smoke": 1}  # setup_s is the median over this many fresh processes
TIMEOUT_S = 170  # the whole of one workload's run, set-up probes included

# Units of the operation rates printed in the record line.
RATE_UNITS = {
    "twin_rate_1t": "j/s",
    "twin_rate": "j/s",
    "pairs_rate": "j/s",
    "pi_rate": "j/s",
    "verify_rate": "x*gaps/s",
    "window_rate_1e9": "entries/s",
    "window_rate_1e12": "entries/s",
    "cache_write_rate": "MB/s",
    "cache_read_rate": "MB/s",
    "point_rate": "calls/s",
}


class BenchmarkError(RuntimeError):
    pass


def git_sha() -> str:
    """The commit of the checkout, or "unknown" when it is not a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )  # fmt: skip
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def run_worker(args, role: str, timeout: float) -> dict:
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size, "--role", role,
    ]  # fmt: skip
    if args.spans is not None:
        cmd += ["--spans", str(args.spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{args.workload} {role} process ran past {timeout:.0f} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{args.workload} {role} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args) -> tuple[dict, dict]:
    """One workload: (record, result) as printed."""
    deadline = time.monotonic() + TIMEOUT_S
    setups = [run_worker(args, "setup", deadline - time.monotonic())["setup_s"] for _ in range(SETUP_SAMPLES[args.size] - 1)]
    out = run_worker(args, "measure", deadline - time.monotonic())
    setups.append(out["setup_s"])
    if args.trace:
        metrics = {name: {"value": out["layers"][name], "unit": unit} for name, unit in LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MiB"},
            "round_s": {"value": out["round_s"], "unit": "s"},
        }
    result = {
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": git_sha(),
        **{key: out[key] for key in ("python", "numpy", "click", "nproc", "cpu", "rounds", "attempted", "failed")},
        "setup_samples_s": setups,
        "round_s_each": out["round_s_each"],
        "op_rates": {name: {"value": value, "unit": RATE_UNITS[name]} for name, value in out["op_rates"].items()},
        "problems": out["problems"],
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the kempner pipeline.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SETUP_SAMPLES), default="full",
                        help="smoke: inputs small enough for the benchmark's own test")
    parser.add_argument("--spans", type=Path, default=None,
                        help="with --trace 1 and one --workload, write every span as a JSON line to this file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kempner" / "__init__.py").is_file():
        print(f"error: no kempner sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    correct = True
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = name
        try:
            record, result = run_workload(args)
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for problem in record["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        correct = correct and result["correct"]
        print("record " + json.dumps(record))
        print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
