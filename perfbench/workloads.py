"""The benchmark's workloads: seeded inputs, timed operations and their checks.

Each workload is a sequence of rounds.  A round draws its inputs from the
workload's seeded generator, runs a fixed list of operations against the
kempner package (each timed on its own) and is then checked by code that
shares nothing with the code under test: an independent sieve, the
published values of pi(x) and pi_2(x), Miller-Rabin and Legendre
valuations written here, and the documented output contract of
``kempner verify``.

The operations call the package through module attributes looked up at
call time (``census.count_twin``, not a bound alias), so the tracer in
``tracer.py`` sees every call once it has patched those attributes.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from typing import Callable

import numpy as np
from click.testing import CliRunner

from kempner import census, cli, core, oracle, table

NPROC = len(os.sched_getaffinity(0))

# pi(x) and the number of twin pairs (p, p + 2) with p + 2 <= x (OEIS A007508).
PUBLISHED = {10**5: (9_592, 1_224), 10**7: (664_579, 58_980)}

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24, independent of kempner.core."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(m: int, p: int) -> int:
    """Exponent of the prime p in m!."""
    total, q = 0, p
    while q <= m:
        total += m // q
        q *= p
    return total


def is_least_factorial_multiple(m: int, factors: dict[int, int]) -> bool:
    """Whether m is the least integer with n | m!, for n given by its factors."""
    divides = lambda k: all(legendre(k, p) >= a for p, a in factors.items())  # noqa: E731
    return m >= 1 and divides(m) and not (m > 1 and divides(m - 1))


def checked_factors(n: int) -> dict[int, int] | None:
    """kempner's factorization of n, or None unless its product is n and every
    factor passes this module's primality test."""
    factors = dict(core.factorize(n).factors)
    product = 1
    for p, a in factors.items():
        product *= p**a
    if product != n or not all(is_prime(p) for p in factors):
        return None
    return factors


def trial_factors(n: int) -> dict[int, int]:
    """Factorization of a small n by trial division."""
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def prime_flags(lo: int, hi: int) -> np.ndarray:
    """Primality of every j in [lo, hi] by a plain segmented sieve (lo >= 2)."""
    limit = isqrt(hi)
    base = np.ones(limit + 1, dtype=bool)
    base[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if base[p]:
            base[p * p :: p] = False
    flags = np.ones(hi - lo + 1, dtype=bool)
    for p in np.flatnonzero(base).tolist():
        first = max(p * p, -(-lo // p) * p)
        flags[first - lo :: p] = False
    return flags


def prev_prime(m: int) -> int:
    while not is_prime(m):
        m -= 1
    return m


@dataclass(frozen=True)
class Size:
    """Input sizes of one benchmark size preset."""

    count_x: int  # stream_counts: x of the first round
    count_jitter: int  # later rounds add a seeded offset below this
    verify_x: int  # verify_sweep: --max-x, plus a seeded offset below verify_jitter
    verify_jitter: int
    verify_steps: tuple[int, int]  # --step is drawn from this half-open range
    window_1e9: int  # S entries per window near 10^9 (the first one is also cached)
    windows_1e9: int  # such windows per round
    window_1e12: int  # S entries of the one window near 10^12
    points: int  # core.s calls per round, n near 10^18


SIZES = {
    "full": Size(10**7, 1 << 16, 2 * 10**6, 20_000, (500, 1500), 1 << 20, 4, 1 << 19, 600),
    "smoke": Size(10**5, 1 << 10, 20_000, 200, (5, 15), 1 << 12, 2, 1 << 10, 20),
}


@dataclass
class Op:
    """One timed call into the package.

    ``rate`` names the operation rate this call feeds; ``work`` is its size
    in that rate's unit (j values, x * gaps, S entries, MB, calls).
    """

    rate: str
    work: float
    call: Callable[[], object]
    args: object = None  # the inputs the check needs, when work alone does not give them
    result: object = None
    seconds: float = 0.0
    failed: bool = False


class Workload:
    name = ""

    def __init__(self, size: Size, seed: int, tmpdir: Path) -> None:
        self.size = size
        self.rng = random.Random(f"{self.name}:{seed}")  # inputs
        self.check_rng = random.Random(f"{self.name}:{seed}:check")  # what the checks sample

    def warm_up(self) -> None:
        """Untimed calls that finish lazy set-up before the first round."""

    def round(self, k: int) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> list[str]:
        """Problems found in the outputs of one round's operations that did not fail."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Problems found by checks made once per run, after the last round."""
        return []


class StreamCounts(Workload):
    """count_twin at 1 and nproc threads, count_pairs (gap 6) and count_primes at one x."""

    name = "stream_counts"

    def warm_up(self) -> None:
        top = self.size.count_x + self.size.count_jitter
        table.s_range(top - 4096, top)  # fills the prime-power tables of every base prime
        census.count_twin(4096, threads=NPROC)

    def round(self, k: int) -> list[Op]:
        # The first round sits on a published x; later ones move by a seeded offset.
        x = self.size.count_x + (self.rng.randrange(self.size.count_jitter) if k else 0)
        return [
            Op("twin_rate_1t", x, lambda: census.count_twin(x, threads=1)),
            Op("twin_rate", x, lambda: census.count_twin(x, threads=NPROC)),
            Op("pairs_rate", x, lambda: census.count_pairs(census.PairCountQuery(x, 3), threads=NPROC)),
            Op("pi_rate", x, lambda: census.count_primes(x, threads=NPROC)),
        ]

    def check(self, ops: list[Op]) -> list[str]:
        x = ops[0].work  # every operation of the round counts up to the same x
        sieve = oracle.sieve_primes(x)
        expected = {
            "twin_rate_1t": oracle.oracle_pair_count(x, 1, sieve),
            "twin_rate": oracle.oracle_pair_count(x, 1, sieve),
            "pairs_rate": oracle.oracle_pair_count(x, 3, sieve),
            "pi_rate": oracle.oracle_pi(x, sieve),
        }
        problems = []
        if x in PUBLISHED and (expected["pi_rate"], expected["twin_rate"]) != PUBLISHED[x]:
            problems.append(f"pi, pi2 at x={x} are {expected['pi_rate']}, {expected['twin_rate']}; published {PUBLISHED[x]}")
        counts = {op.rate: op.result.formula_count for op in ops if not op.failed}
        problems += [
            f"{rate} at x={x}: count {count}, expected {expected[rate]}"
            for rate, count in counts.items()
            if count != expected[rate]
        ]
        if counts.keys() >= {"twin_rate_1t", "twin_rate"} and counts["twin_rate_1t"] != counts["twin_rate"]:
            problems.append(f"twin counts at x={x} differ between 1 and {NPROC} threads")
        return problems


# Gaps 2n up to 32 split by whether 2n + 1 is prime, which decides whether the
# uncorrected literal reading overcounts.
PRIME_GAPS = [g for g in range(2, 34, 2) if is_prime(g + 1)]
COMPOSITE_GAPS = [g for g in range(2, 34, 2) if not is_prime(g + 1)]


class VerifySweep(Workload):
    """``kempner verify`` in-process: two gaps with 2n + 1 prime, two with it composite."""

    name = "verify_sweep"

    def __init__(self, size: Size, seed: int, tmpdir: Path) -> None:
        super().__init__(size, seed, tmpdir)
        self.runner = CliRunner()

    def warm_up(self) -> None:
        top = self.size.verify_x + self.size.verify_jitter
        table.s_range(top - 4096, top)
        self.runner.invoke(cli.main, ["verify", "--max-x", "1000", "--gaps", "2,8"])

    def round(self, k: int) -> list[Op]:
        max_x = self.size.verify_x + self.rng.randrange(self.size.verify_jitter)
        gaps = sorted(self.rng.sample(PRIME_GAPS, 2) + self.rng.sample(COMPOSITE_GAPS, 2))
        step = self.rng.randrange(*self.size.verify_steps)
        args = [
            "verify", "--max-x", str(max_x), "--gaps", ",".join(map(str, gaps)),
            "--step", str(step), "--threads", str(NPROC),
        ]  # fmt: skip
        call = lambda: self.runner.invoke(cli.main, args)  # noqa: E731
        return [Op("verify_rate", max_x * len(gaps), call, (max_x, gaps, step))]

    def check(self, ops: list[Op]) -> list[str]:
        (op,) = ops
        if op.failed:
            return []
        max_x, gaps, step = op.args
        result = op.result
        where = f"verify --max-x {max_x} --gaps {gaps} --step {step}"
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            return [f"{where} raised {result.exception!r}"]
        if result.exit_code != 0:
            return [f"{where}: exit code {result.exit_code}"]
        xs = list(range(2, max_x + 1, step))
        if xs[-1] != max_x:
            xs.append(max_x)
        lines = result.stdout.splitlines()
        if "literal_gap,x_from,x_to,delta" not in lines:
            return [f"{where}: no literal section"]
        literal_at = lines.index("literal_gap,x_from,x_to,delta")
        summary = ["gap,x_checked,mismatches"] + [f"{g},{len(xs)},0" for g in gaps]
        literal = [f"{g},{next(x for x in xs if x >= g + 1)},{max_x},1" for g in gaps if is_prime(g + 1)]
        problems = []
        if lines[:literal_at] != summary:
            problems.append(f"{where}: summary section {lines[:literal_at]} != {summary}")
        if lines[literal_at + 1 : -1] != literal:
            problems.append(f"{where}: literal rows {lines[literal_at + 1:-1]} != {literal}")
        if lines[-1:] != ["total_mismatches,0"]:
            problems.append(f"{where}: last line {lines[-1:]}")
        return problems


class HighTables(Workload):
    """s_range windows near 10^9 and 10^12, a cache write and read, and core.s near 10^18."""

    name = "high_tables"
    LO_1E9 = (10**9, 10**8)  # windows start at LO_1E9[0] plus a seeded offset below LO_1E9[1]
    LO_1E12 = (10**12, 10**9)
    SAMPLE = 16  # entries per window checked against core.s and Legendre minimality

    def __init__(self, size: Size, seed: int, tmpdir: Path) -> None:
        super().__init__(size, seed, tmpdir)
        self.path = tmpdir / "window.skt"
        self.last_cached: table.STable | None = None

    def warm_up(self) -> None:
        # The first window at the top of each offset range, long enough to hold
        # a multiple of every base prime, builds the prime-power tables of
        # every base prime the later windows use.
        for (lo, span), n in ((self.LO_1E9, self.size.window_1e9), (self.LO_1E12, self.size.window_1e12)):
            top = lo + span + n
            table.s_range(top - max(n, isqrt(top) + 1), top)
        small = table.s_range(10**9, 10**9 + 4095)
        small.save(self.path)
        table.STable.load(self.path)
        core.s(self._point()[0])

    def _point(self) -> tuple[int, dict[int, int]]:
        """n near 10^18 with its factorization, as n = a * p * q: a below 10^4
        (cleared by trial division), p a prime in [10^5, 10^6) for the rho
        splitter, q the prime that brings n to about 10^18.  Building n from
        known factors keeps the factoring cost steady from n to n and gives
        the check a factorization made apart from kempner."""
        a = self.rng.randrange(1, 10**4)
        p = prev_prime(self.rng.randrange(10**5, 10**6))
        q = prev_prime(10**18 // (a * p))
        factors = trial_factors(a)
        for r in (p, q):
            factors[r] = factors.get(r, 0) + 1
        return a * p * q, factors

    def round(self, k: int) -> list[Op]:
        size = self.size
        ops = []
        for _ in range(size.windows_1e9):
            lo = self.LO_1E9[0] + self.rng.randrange(self.LO_1E9[1])
            ops.append(Op("window_rate_1e9", size.window_1e9, lambda lo=lo: table.s_range(lo, lo + size.window_1e9 - 1)))
        lo = self.LO_1E12[0] + self.rng.randrange(self.LO_1E12[1])
        ops.append(Op("window_rate_1e12", size.window_1e12, lambda: table.s_range(lo, lo + size.window_1e12 - 1)))
        cached = ops[0]
        mb = 8 * size.window_1e9 / 1e6
        ops.append(Op("cache_write_rate", mb, lambda: cached.result.save(self.path)))
        ops.append(Op("cache_read_rate", mb, lambda: table.STable.load(self.path)))
        points = [self._point() for _ in range(size.points)]
        ops.append(Op("point_rate", len(points), lambda: [core.s(n) for n, _ in points], points))
        return ops

    def check(self, ops: list[Op]) -> list[str]:
        problems = []
        by_rate: dict[str, list[Op]] = {}
        for op in ops:
            by_rate.setdefault(op.rate, []).append(op)
        for op in by_rate["window_rate_1e9"] + by_rate["window_rate_1e12"]:
            if not op.failed:
                problems += self._check_window(op.result, op.work)
        (write,), (read,) = by_rate["cache_write_rate"], by_rate["cache_read_rate"]
        source = ops[0]
        if not (source.failed or write.failed or read.failed):
            got, want = read.result, source.result
            if (got.lo, got.hi, got.conv) != (want.lo, want.hi, want.conv) or not np.array_equal(got.values, want.values):
                problems.append(f"cache round trip of [{want.lo}, {want.hi}] is not lossless")
            self.last_cached = want
        (point,) = by_rate["point_rate"]
        if not point.failed:
            for (n, factors), m in zip(point.args, point.result):
                if not is_least_factorial_multiple(m, factors):
                    problems.append(f"s({n}) = {m} fails the Legendre minimality test")
        return problems

    def _check_window(self, tb: table.STable, entries: int) -> list[str]:
        lo, hi = tb.lo, tb.hi
        if hi - lo + 1 != entries or len(tb.values) != entries:
            return [f"window at {lo} has {len(tb.values)} entries, expected {entries}"]
        fixed = tb.values == np.arange(lo, hi + 1, dtype=np.uint64)
        wrong = np.flatnonzero(fixed != prime_flags(lo, hi))
        if wrong.size:
            return [f"S(j) = j disagrees with primality at {wrong.size} j in [{lo}, {hi}], first j={lo + int(wrong[0])}"]
        problems = []
        for i in self.check_rng.sample(range(entries), min(self.SAMPLE, entries)):
            j, value = lo + i, int(tb.values[i])
            if core.s(j) != value:
                problems.append(f"s_range gives S({j}) = {value}, core.s gives {core.s(j)}")
            factors = checked_factors(j)
            if factors is None:
                problems.append(f"factorize({j}) is not a prime factorization of {j}")
            elif not is_least_factorial_multiple(value, factors):
                problems.append(f"s_range gives S({j}) = {value}, which fails the Legendre minimality test")
        return problems

    def finish(self) -> list[str]:
        """One flipped bit anywhere in a cache file must make the reader refuse it."""
        if self.last_cached is None:
            return []
        self.last_cached.save(self.path)
        blob = bytearray(self.path.read_bytes())
        at = self.check_rng.randrange(len(blob))
        blob[at] ^= 1 << self.check_rng.randrange(8)
        self.path.write_bytes(bytes(blob))
        try:
            table.STable.load(self.path)
        except table.CacheFormatError:
            return []
        return [f"cache with byte {at} flipped was accepted"]


WORKLOADS = {w.name: w for w in (StreamCounts, VerifySweep, HighTables)}
