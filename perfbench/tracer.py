"""Spans around kempner's public functions, installed from outside the package.

``Tracer.install`` replaces every public function of ``kempner.core``,
``table``, ``census`` and ``oracle`` -- at each module attribute that holds
it, so calls between modules are caught -- plus the ``STable`` cache
methods and the callbacks of the ``kempner`` CLI commands, with wrappers
that record a span: name, start, end, the span that was open on the same
thread when it began (its parent), and the round it belongs to.
``Tracer.remove`` puts the originals back.  ``layer_metrics`` turns one
round's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("core", "table", "census", "oracle")

# core.s looks up S(p^a) through core's own binding of s_prime_power; leaving
# that one unwrapped makes core.s_prime_power.calls count the segment
# kernel's prime-power table builds, which go through kempner.table's binding.
UNWRAPPED = {("kempner.core", "s_prime_power")}

# The work a span counts, from its call's arguments: S entries, bytes
# hashed, or the largest j a counter needs.
WORK = {
    "table.s_range": lambda lo, hi, *a, **k: hi - lo + 1,
    "table.fnv1a64": lambda data, *a, **k: len(data),
    "census.count_twin": lambda x, *a, **k: x,
    "census.count_pairs": lambda query, *a, **k: query.x,
    "census.count_primes": lambda x, *a, **k: x,
    "census.pair_count_sweep": lambda max_x, *a, **k: max_x,
}

# Spans whose Python-heap peak tracemalloc measures (numpy arrays included).
ALLOC = {"census.pair_count_sweep", "cli.verify"}

# Per-layer metrics and their units, in report order.  Times, counts and
# peaks are per traced round.
LAYER_METRICS = {
    "table.s_range.ns_per_entry": "ns",
    "table.s_range.busy_s": "s",
    "table.s_range.entries": "count",
    "table.s_range.calls": "count",
    "census.count_twin.self_s": "s",
    "census.count_pairs.self_s": "s",
    "census.count_primes.self_s": "s",
    "census.s_entries_per_j": "ratio",
    "census.pair_count_sweep.self_s": "s",
    "census.pair_count_sweep.peak_alloc_mb": "MiB",
    "oracle.sieve_primes.busy_s": "s",
    "oracle.pair_count_sweep.busy_s": "s",
    "cli.verify.self_s": "s",
    "cli.verify.peak_alloc_mb": "MiB",
    "table.fnv1a64.busy_s": "s",
    "table.fnv1a64.bytes": "B",
    "table.STable.to_bytes.busy_s": "s",
    "table.STable.from_bytes.busy_s": "s",
    "table.STable.save.busy_s": "s",
    "table.STable.load.busy_s": "s",
    "core.s.busy_s": "s",
    "core.factorize.busy_s": "s",
    "core.s_prime_power.calls": "count",
    "trace.overhead_ratio": "ratio",
}


@dataclass(eq=False)
class Span:
    sid: int
    name: str
    parent: Span | None
    round: int
    work: int = 0
    start: float = 0.0
    end: float = 0.0
    alloc_base: int = 0
    peak_alloc: int = 0

    def record(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "round": self.round,
            "start": self.start,
            "end": self.end,
            "parent": self.parent.sid if self.parent else None,
            "work": self.work,
            "peak_alloc": self.peak_alloc,
        }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.round = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._alloc_open: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        alloc = name in ALLOC

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(next(self._ids), name, stack[-1] if stack else None, self.round)
            if work is not None:
                span.work = int(work(*args, **kwargs))
            if alloc:
                self._alloc_enter(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if alloc:
                    self._alloc_exit(span)
                self.spans.append(span)

        return traced

    # tracemalloc keeps one process-wide peak; a nested span resets it, so
    # every open span folds in the peak seen so far before each reset.
    def _alloc_enter(self, span: Span) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        for outer in self._alloc_open:
            outer.peak_alloc = max(outer.peak_alloc, peak - outer.alloc_base)
        tracemalloc.reset_peak()
        span.alloc_base = current
        self._alloc_open.append(span)

    def _alloc_exit(self, span: Span) -> None:
        _, peak = tracemalloc.get_traced_memory()
        self._alloc_open.pop()
        for open_span in (span, *self._alloc_open):
            open_span.peak_alloc = max(open_span.peak_alloc, peak - open_span.alloc_base)
        if not self._alloc_open:
            tracemalloc.stop()

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in ("kempner", "kempner.cli")]
        modules += [importlib.import_module(f"kempner.{layer}") for layer in LAYERS]
        for layer in LAYERS:
            module = importlib.import_module(f"kempner.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, type) or not callable(fn) or fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    if vars(holder).get(attr) is fn and (holder.__name__, attr) not in UNWRAPPED:
                        self._patch(holder, attr, traced)
        stable = importlib.import_module("kempner.table").STable
        for attr in ("to_bytes", "from_bytes", "save", "load"):
            raw = vars(stable)[attr]
            if isinstance(raw, classmethod):
                self._patch(stable, attr, classmethod(self._wrap(f"table.STable.{attr}", raw.__func__)))
            else:
                self._patch(stable, attr, self._wrap(f"table.STable.{attr}", raw))
        for command in importlib.import_module("kempner.cli").main.commands.values():
            self._patch(command, "callback", self._wrap(f"cli.{command.name}", command.callback))

    def remove(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one round's spans (every metric but the overhead)."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    child_s: dict[int, float] = defaultdict(float)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            child_s[span.parent.sid] += span.end - span.start

    def busy(name: str) -> float:
        return sum(s.end - s.start for s in by_name[name])

    def self_s(name: str) -> float:
        return sum(s.end - s.start - child_s[s.sid] for s in by_name[name])

    def peak_mb(name: str) -> float:
        return max((s.peak_alloc for s in by_name[name]), default=0) / 2**20

    def under_census(span: Span) -> bool:
        while span.parent is not None:
            span = span.parent
            if span.name.startswith("census."):
                return True
        return False

    ranges = by_name["table.s_range"]
    entries = sum(s.work for s in ranges)
    census_entries = sum(s.work for s in ranges if under_census(s))
    # Every census counter needs S(j) for j from 1 or 2 up to its x, so the
    # distinct j a round needs run up to the largest x.
    needed = max((s.work for s in spans if s.name.startswith("census.")), default=0)
    out = {
        "table.s_range.ns_per_entry": busy("table.s_range") / entries * 1e9 if entries else 0.0,
        "table.s_range.busy_s": busy("table.s_range"),
        "table.s_range.entries": entries,
        "table.s_range.calls": len(ranges),
        "census.count_twin.self_s": self_s("census.count_twin"),
        "census.count_pairs.self_s": self_s("census.count_pairs"),
        "census.count_primes.self_s": self_s("census.count_primes"),
        "census.s_entries_per_j": census_entries / needed if needed else 0.0,
        "census.pair_count_sweep.self_s": self_s("census.pair_count_sweep"),
        "census.pair_count_sweep.peak_alloc_mb": peak_mb("census.pair_count_sweep"),
        "oracle.sieve_primes.busy_s": busy("oracle.sieve_primes"),
        "oracle.pair_count_sweep.busy_s": busy("oracle.pair_count_sweep"),
        "cli.verify.self_s": self_s("cli.verify"),
        "cli.verify.peak_alloc_mb": peak_mb("cli.verify"),
        "table.fnv1a64.busy_s": busy("table.fnv1a64"),
        "table.fnv1a64.bytes": sum(s.work for s in by_name["table.fnv1a64"]),
        "core.s.busy_s": busy("core.s"),
        "core.factorize.busy_s": busy("core.factorize"),
        "core.s_prime_power.calls": len(by_name["core.s_prime_power"]),
    }
    for attr in ("to_bytes", "from_bytes", "save", "load"):
        out[f"table.STable.{attr}.busy_s"] = busy(f"table.STable.{attr}")
    return out
