"""One workload in one fresh process; ``run.py`` starts it and reads its last line.

With ``--role setup`` it only imports the package, warms up and reports how
long that took.  With ``--role measure`` it goes on to run whole rounds
until ``--seconds`` have passed, checks every round, and reports round
times, operation rates, peak RSS and, with ``--trace 1``, per-layer metrics
from every other round (the rounds between run untraced, for the overhead).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent


def run_op(op) -> None:
    started = perf_counter()
    try:
        op.result = op.call()
    except Exception:  # counted as a failed operation; the run goes on
        traceback.print_exc(file=sys.stderr)
        op.failed = True
    op.seconds = perf_counter() - started


def measure(workload, seconds: float, tracer: Tracer | None = None) -> dict:
    """Run rounds for ``seconds``; with a tracer, every odd round is traced."""
    untraced: list[list] = []
    traced: list[list] = []
    layers = []
    problems: list[str] = []
    started = perf_counter()
    k = 0
    while k == 0 or perf_counter() - started < seconds or (tracer is not None and k < 2):
        ops = workload.round(k)
        tracing = tracer is not None and k % 2 == 1
        if tracing:
            tracer.round = k
            first = len(tracer.spans)
            tracer.install()
        try:
            for op in ops:
                run_op(op)
        finally:
            if tracing:
                tracer.remove()
        if tracing:
            layers.append(layer_metrics(tracer.spans[first:]))
        problems += workload.check(ops)
        for op in ops:
            op.result = None  # keep only timings: a round's outputs can be large
        (traced if tracing else untraced).append(ops)
        k += 1
    problems += workload.finish()
    rates: dict[str, list[float]] = {}
    for ops in untraced:
        done: dict[str, list] = {}
        for op in ops:
            if not op.failed:
                done.setdefault(op.rate, []).append(op)
        for rate, rate_ops in done.items():
            rates.setdefault(rate, []).append(sum(op.work for op in rate_ops) / sum(op.seconds for op in rate_ops))
    round_s = [sum(op.seconds for op in ops) for ops in untraced]
    every = [op for ops in untraced + traced for op in ops]
    out = {
        "rounds": k,
        "round_s": statistics.median(round_s),
        "round_s_each": round_s,
        "op_rates": {rate: statistics.median(v) for rate, v in rates.items()},
        "attempted": len(every),
        "failed": sum(op.failed for op in every),
        "problems": problems,
    }
    if tracer is not None:
        traced_s = [sum(op.seconds for op in ops) for ops in traced]
        out["layers"] = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
        out["layers"]["trace.overhead_ratio"] = statistics.median(traced_s) / out["round_s"]
    return out


def environment() -> dict:
    import platform
    from importlib.metadata import version

    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": version("click"),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--role", choices=("setup", "measure"), default="measure")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=Path(__file__).parent) as tmp:
        started = perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import workloads  # imports numpy, click and kempner: part of set-up

        workload = workloads.WORKLOADS[args.workload](workloads.SIZES[args.size], args.seed, Path(tmp))
        workload.warm_up()
        result = {"setup_s": perf_counter() - started}
        if args.role == "measure":
            tracer = Tracer() if args.trace else None
            result.update(measure(workload, args.seconds, tracer))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["nproc"] = workloads.NPROC
            result.update(environment())
            if tracer is not None and args.spans is not None:
                with args.spans.open("w") as fh:
                    for span in tracer.spans:
                        fh.write(json.dumps(span.record()) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
