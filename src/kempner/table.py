"""Dense S tables: a segmented range kernel and a checksummed cache format.

The range kernel divides nothing per prime.  For every base prime
p <= sqrt(hi) and every power p^k in range it takes the strided view of the
multiples of p^k in a segment, raises them to at least S(p^k), and
multiplies p into a running product of the part of j over the base primes.
One division of j by that product leaves a cofactor that is 1 or a prime
above sqrt(hi), its own candidate.  ``iter_segments`` is the one source of
S values: it yields the segments of a range in order, sieving the base
primes once.  ``s_range`` has it write whole segments into one table, in
parallel across the threads; the counters in :mod:`kempner.census` consume
them one at a time in O(segment_size + pi(sqrt(hi))) memory, the threads
splitting each segment.

Cache files are little-endian:

    magic "SKT1" | version u32 | lo u64 | hi u64 | convention u8
    | (hi - lo + 1) values u64 | FNV-1a 64 checksum u64

where the checksum covers every preceding byte and the convention byte is
0 for FORMULA_CONSISTENT, 1 for PAPER_LITERAL.  Readers reject bad magic,
bad length, unknown versions and checksum mismatches.
"""

from __future__ import annotations

import operator
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .core import U64_MAX, Convention, _as_u64, s_prime_power

__all__ = [
    "DEFAULT_SEGMENT_SIZE",
    "CacheFormatError",
    "STable",
    "fnv1a64",
    "s_range",
]

DEFAULT_SEGMENT_SIZE = 1 << 20  # 8 MiB of u64 per segment: cache friendly, tunable

_MAGIC = b"SKT1"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQB")
_CHECKSUM = struct.Struct("<Q")
_CONV_CODE = {Convention.FORMULA_CONSISTENT: 0, Convention.PAPER_LITERAL: 1}
_CONV_FROM_CODE = {code: conv for conv, code in _CONV_CODE.items()}

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & U64_MAX
    return h


class CacheFormatError(ValueError):
    """An S-table cache blob failed structural or checksum validation."""


@dataclass
class STable:
    """Contiguous cache of S(j) for j in [lo, hi] under a fixed convention."""

    lo: int
    hi: int
    conv: Convention
    values: np.ndarray  # uint64, values[j - lo] = S(j)

    def __post_init__(self) -> None:
        self.lo = _as_u64(self.lo, "lo", minimum=1)
        self.hi = _as_u64(self.hi, "hi", minimum=self.lo)
        self.values = np.ascontiguousarray(self.values, dtype=np.uint64)
        if self.values.shape != (self.hi - self.lo + 1,):
            raise ValueError(
                f"values length {self.values.shape[0]} != range size {self.hi - self.lo + 1}"
            )

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def at(self, j: int) -> int:
        """S(j) addressed by value j, not by array index."""
        if not self.lo <= j <= self.hi:
            raise IndexError(f"{j} outside table range [{self.lo}, {self.hi}]")
        return int(self.values[j - self.lo])

    def to_bytes(self) -> bytes:
        """Serialize to the checksummed cache format (deterministic bytes)."""
        payload = _HEADER.pack(_MAGIC, _VERSION, self.lo, self.hi, _CONV_CODE[self.conv])
        payload += self.values.astype("<u8", copy=False).tobytes()
        return payload + _CHECKSUM.pack(fnv1a64(payload))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "STable":
        """Parse and validate a cache blob; raises CacheFormatError on any defect."""
        if len(blob) < _HEADER.size + _CHECKSUM.size:
            raise CacheFormatError(f"blob too short ({len(blob)} bytes)")
        magic, version, lo, hi, conv_code = _HEADER.unpack_from(blob, 0)
        if magic != _MAGIC:
            raise CacheFormatError(f"bad magic {magic!r}")
        if version != _VERSION:
            raise CacheFormatError(f"unsupported version {version}")
        if conv_code not in _CONV_FROM_CODE:
            raise CacheFormatError(f"unknown convention byte {conv_code}")
        if lo < 1 or hi < lo:
            raise CacheFormatError(f"bad range [{lo}, {hi}]")
        count = hi - lo + 1
        expected = _HEADER.size + 8 * count + _CHECKSUM.size
        if len(blob) != expected:
            raise CacheFormatError(f"length {len(blob)} != expected {expected}")
        (stored,) = _CHECKSUM.unpack_from(blob, len(blob) - _CHECKSUM.size)
        if fnv1a64(blob[: -_CHECKSUM.size]) != stored:
            raise CacheFormatError("checksum mismatch")
        values = np.frombuffer(
            blob, dtype="<u8", count=count, offset=_HEADER.size
        ).astype(np.uint64)
        return cls(lo, hi, _CONV_FROM_CODE[conv_code], values)

    def save(self, path) -> None:
        """Write the cache file atomically: a temp file in the same directory,
        then ``os.replace``, so a failed write leaves any existing file intact."""
        blob = self.to_bytes()
        tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "STable":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def _small_primes(limit: int) -> np.ndarray:
    """All primes <= limit by a plain sieve (base primes for the range kernel)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def _fill_segment(dest: np.ndarray, a: int, b: int, base: np.ndarray) -> None:
    """Compute S(j) for j in [a, b] into dest (dest aliases the output array).

    Every multiple of p^k in the segment takes the max with S(p^k), which
    grows with k, so the highest power of p that divides j wins.  ``prod``
    collects those powers, the part of j over the base primes; one division
    leaves the cofactor, which is 1 or a single prime above sqrt(b).
    """
    n = b - a + 1
    dest[:] = 0
    prod = np.ones(n, dtype=np.uint64)
    for p in base:
        p = int(p)
        if p * p > b:
            break
        q, k = p, 1
        while q <= b:
            off = (-a) % q
            if off >= n:
                break
            # S(p^k) = k*p while k <= p, which every p >= 17 meets below 2^64.
            hits = dest[off::q]
            np.maximum(hits, k * p if k <= p else s_prime_power(p, k), out=hits)
            prod[off::q] *= p
            q, k = q * p, k + 1
    residual = np.arange(a, b + 1, dtype=np.uint64)
    residual //= prod
    np.maximum(dest, residual, where=residual > 1, out=dest)


def iter_segments(
    lo: int,
    hi: int,
    conv: Convention = Convention.PAPER_LITERAL,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
    out: np.ndarray | None = None,
):
    """Yield (a, values) with values[i] = S(a + i), segment by segment over [lo, hi] in order.

    The base primes are sieved once per call and at most one thread pool is
    opened; the values do not depend on the thread count.  Without ``out``,
    ``values`` is a view of one buffer that the next segment overwrites, and
    threads > 1 fill disjoint sub-spans of each segment, so no segment is
    computed ahead of its consumer.  With ``out`` (indexed by j - lo) every
    segment keeps its own slice, so whole segments run in parallel.
    """
    lo = _as_u64(lo, "lo", minimum=1)
    hi = _as_u64(hi, "hi", minimum=lo)
    segment_size = operator.index(segment_size)
    if segment_size < 1:
        raise ValueError(f"segment_size must be >= 1 (got {segment_size})")
    threads = max(1, int(threads))
    base = _small_primes(isqrt(hi))
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        run = pool.map if pool else map
        if out is None:
            segments = _split_segments(lo, hi, segment_size, threads, base, run)
        else:
            segments = _whole_segments(out, lo, hi, segment_size, base, run)
        for a, values in segments:
            if a == 1:
                values[0] = conv.s_of_one
            yield a, values


def _whole_segments(out: np.ndarray, lo: int, hi: int, segment_size: int, base, run):
    """Fill each segment into its own slice of out, whole segments in parallel."""
    spans = [(a, min(a + segment_size - 1, hi)) for a in range(lo, hi + 1, segment_size)]
    fill = lambda span: _fill_segment(  # noqa: E731
        out[span[0] - lo : span[1] - lo + 1], *span, base
    )
    for (a, b), _ in zip(spans, run(fill, spans)):
        yield a, out[a - lo : b - lo + 1]


def _split_segments(lo: int, hi: int, segment_size: int, threads: int, base, run):
    """Fill one reused buffer per segment, the threads taking disjoint sub-spans."""
    buffer = np.empty(min(segment_size, hi - lo + 1), np.uint64)
    for a in range(lo, hi + 1, segment_size):
        b = min(a + segment_size - 1, hi)
        values = buffer[: b - a + 1]
        step = -(-(b - a + 1) // threads)
        spans = [(c, min(c + step - 1, b)) for c in range(a, b + 1, step)]
        fill = lambda span: _fill_segment(  # noqa: E731
            values[span[0] - a : span[1] - a + 1], *span, base
        )
        list(run(fill, spans))
        yield a, values


def s_range(
    lo: int,
    hi: int,
    conv: Convention = Convention.PAPER_LITERAL,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> STable:
    """Compute S(j) for every j in [lo, hi] by segmented sieving.

    The segments of :func:`iter_segments` are written in place into the
    returned table; the result is bit-identical for every thread count and
    segment size.
    """
    lo = _as_u64(lo, "lo", minimum=1)
    hi = _as_u64(hi, "hi", minimum=lo)
    out = np.empty(hi - lo + 1, dtype=np.uint64)
    for _ in iter_segments(lo, hi, conv, segment_size, threads, out):
        pass
    return STable(lo, hi, conv, out)


def default_cache_dir() -> str:
    """Directory for S-table caches: $SKT_CACHE_DIR if set, else the cwd."""
    return os.environ.get("SKT_CACHE_DIR", ".")
