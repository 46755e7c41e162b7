"""The benchmark's own test, at the smoke size: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )  # fmt: skip


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = bench(
        "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
        "--size", "smoke", "--spans", str(spans),
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace:
        records = [json.loads(line) for line in spans.read_text().splitlines()]
        ids = {r["id"] for r in records}
        assert records and all(r["start"] <= r["end"] and r["parent"] in ids | {None} for r in records)
    else:
        assert not spans.exists()


def test_wrong_published_value_fails_the_count_check(monkeypatch, tmp_path):
    stream = workloads.StreamCounts(workloads.SIZES["smoke"], 5, tmp_path)
    ops = stream.round(0)  # the first round counts at the published x = 10^5
    for op in ops:
        op.result = op.call()
    assert stream.check(ops) == []
    pi, pi2 = workloads.PUBLISHED[10**5]
    monkeypatch.setitem(workloads.PUBLISHED, 10**5, (pi, pi2 + 1))
    assert stream.check(ops) != []


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".tmp-*"))
    proc = bench("--workload", "stream_counts", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
