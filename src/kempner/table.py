"""Dense S tables: a segmented range kernel and a checksummed cache format.

The range kernel divides nothing per prime.  For every base prime p <=
sqrt(b), b the end of a segment, and every power p^k in range it raises the
multiples of p^k in the segment to at least S(p^k).  The primes up to
cbrt(b) also multiply p into a running product of the part of j over them.
The larger ones, the split primes, keep no product when the strided loop
reaches past cbrt(b): a j <= b has at most two prime factors above cbrt(b),
so an array that holds S of the part of j over them (1, q, 2q or max(q,
q')) stands in for that part.  One division of j by the product times that
array leaves the one prime of j above sqrt(b), or 1, or a value below the
array's entry (``_fill_segment`` gives the cases).  The powers 2^1..2^6,
3^1..3^3, 5, 7, 11, 13, 17, 19 and 23 are done once per process: two
pre-sieve tiles of coprime periods, one for 2^6 * 3^3 * 5 * 7 * 11 =
665,280 and one for 13 * 17 * 19 * 23 = 96,577, hold the S and product of
their powers for j mod their period, and every segment starts as the max
of the two tiles' S and the product of their products, in the one pass
that fills it (the PreSieve of primesieve, K. Walisch, which combines its
buffers the same way).  The higher powers of p <= 23 and the primes up to
span / _BAND_HITS then walk strided views of the segment, one prime at a
time.  The larger primes, each of which hits the segment only a few times,
form the large band: a bulk pass computes the offsets of all their powers
as one vector and applies every hit with ``np.maximum.at`` and
``np.multiply.at``, a block of primes at a time (the bucket idea of
Oliveira e Silva, Herzog and Pardi, Math. Comp. 83, 2014).
A segment that ends below 2^32 holds S, the product and the cofactor as
uint32, any other as uint64; ``iter_segments`` yields the values in that
dtype, and a table holds them as uint64.  The last step is an unmasked max
of S and the cofactor, which leaves 1 at j = 1; ``iter_segments`` writes
the convention's S(1) over it.

``iter_segments`` is the one source of S values: it yields the segments of
a range in order, sieving the base primes once and filling whole segments of
``SEGMENT_SIZE`` entries in parallel, at most one per thread ahead of the
consumer, from a ring of buffers in O(threads * SEGMENT_SIZE + pi(sqrt(hi)))
memory.  Every output reads that stream: ``s_range`` copies the segments
into one table, ``write_cache`` writes them to a cache file as they come,
and the counters in :mod:`kempner.census` and the CLI's CSV read them in
place.

Cache files are little-endian:

    magic "SKT2" | version u32 | lo u64 | hi u64 | convention u8
    | (hi - lo + 1) values u64 | checksum u64

where the checksum is the 8-byte BLAKE2b digest (RFC 7693, read as a
little-endian u64) of every preceding byte and the convention byte is 0 for
FORMULA_CONSISTENT, 1 for PAPER_LITERAL.  Readers reject bad magic, bad
length, unknown versions and checksum mismatches; the older "SKT1" files
are rejected by name.
"""

from __future__ import annotations

import os
import struct
from bisect import bisect_right
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache, partial
from itertools import islice
from math import isqrt

import numpy as np

from .core import Convention, _as_u64, _check_convention, _small_primes, s_prime_power

__all__ = [
    "CacheFormatError",
    "STable",
    "s_range",
]

# Entries per segment: 4 MiB of u64, and up to `threads` segments are in
# flight.  Values and counts do not depend on it; speed at 10^9 is flat
# from 2^17 to 2^20.  Read at each call, so tests can patch it.
SEGMENT_SIZE = 1 << 19
# Primes above span / _BAND_HITS (and above 23) hit a span at most about
# _BAND_HITS times; they skip the strided loop for the bulk pass, which takes
# _BAND_BLOCK of them per step so that its temporaries stay bounded.
_BAND_HITS = 128
_BAND_BLOCK = 1 << 14
# The prime powers of the two pre-sieve tiles, one dict each; a tile covers
# j mod the product of its powers, 665,280 and 96,577, which are coprime.
_TILE_POWERS = ({2: 6, 3: 3, 5: 1, 7: 1, 11: 1}, {13: 1, 17: 1, 19: 1, 23: 1})
# The exponent of each prime in its tile, and the largest such prime, up to
# which every prime takes the strided loop.
_PRESIEVED = {p: e for powers in _TILE_POWERS for p, e in powers.items()}
_TILE_TOP = max(_PRESIEVED)

_MAGIC = b"SKT2"
_VERSION = 2
_HEADER = struct.Struct("<4sIQQB")
_CHECKSUM_SIZE = 8
_CONV_CODE = {Convention.FORMULA_CONSISTENT: 0, Convention.PAPER_LITERAL: 1}
_CONV_FROM_CODE = {code: conv for conv, code in _CONV_CODE.items()}


def _digest(data=b""):
    """A BLAKE2b hash of data whose 8-byte digest is the checksum slot as stored."""
    import hashlib  # loads OpenSSL, about 4 MiB of RSS, so only cache I/O pays for it

    return hashlib.blake2b(data, digest_size=_CHECKSUM_SIZE)


def _chunks(lo: int, hi: int, conv: Convention, blocks):
    """The bytes of the cache file of [lo, hi] in order: the header, each
    block of values as little-endian u64 and the checksum of all before it."""
    header = _HEADER.pack(_MAGIC, _VERSION, lo, hi, _CONV_CODE[conv])
    digest = _digest(header)
    yield header
    for block in blocks:
        block = block.astype("<u8", copy=False)
        digest.update(block)
        yield block
    yield digest.digest()


def write_cache(path, lo: int, hi: int, conv: Convention, blocks) -> None:
    """Write the cache file of [lo, hi] from its blocks of values, one block at a time.

    The write is atomic: a temp file in the same directory, opened before
    the first block is read, then ``os.replace``, so a failed write leaves
    any existing file intact.
    """
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            for chunk in _chunks(lo, hi, conv, blocks):
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class CacheFormatError(ValueError):
    """An S-table cache blob failed structural or checksum validation."""


def _check_header(head, size: int) -> tuple[int, int, Convention]:
    """Check the header ``head`` of a cache blob of ``size`` bytes, and that
    size against the range it gives; returns (lo, hi, conv).

    Raises CacheFormatError on any defect but the checksum, which needs the
    whole blob.
    """
    if size < _HEADER.size + _CHECKSUM_SIZE or len(head) < _HEADER.size:
        raise CacheFormatError(f"blob too short ({size} bytes)")
    magic, version, lo, hi, conv_code = _HEADER.unpack_from(head, 0)
    if magic == b"SKT1":
        raise CacheFormatError(
            "SKT1 is an older cache format; regenerate the file with "
            "`kempner table --format cache`"
        )
    if magic != _MAGIC:
        raise CacheFormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise CacheFormatError(f"unsupported version {version}")
    if conv_code not in _CONV_FROM_CODE:
        raise CacheFormatError(f"unknown convention byte {conv_code}")
    if lo < 1 or hi < lo:
        raise CacheFormatError(f"bad range [{lo}, {hi}]")
    expected = _HEADER.size + 8 * (hi - lo + 1) + _CHECKSUM_SIZE
    if size != expected:
        raise CacheFormatError(f"length {size} != expected {expected}")
    return lo, hi, _CONV_FROM_CODE[conv_code]


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
        _check_convention(self.conv)
        self.values = np.ascontiguousarray(self.values, dtype=np.uint64)
        if self.values.shape != (self.hi - self.lo + 1,):
            raise ValueError(
                f"values length {self.values.shape[0]} != range size {self.hi - self.lo + 1}"
            )

    def to_bytes(self) -> bytes:
        """Serialize to the checksummed cache format (deterministic bytes)."""
        return b"".join(_chunks(self.lo, self.hi, self.conv, [self.values]))

    @classmethod
    def from_bytes(cls, blob: bytes | bytearray) -> "STable":
        """Parse and validate a cache blob; raises CacheFormatError on any defect.

        The values are a view of a writable blob such as a ``bytearray``
        (which the table then keeps alive) and a copy of a read-only one.
        """
        lo, hi, conv = _check_header(blob, len(blob))
        if _digest(memoryview(blob)[:-_CHECKSUM_SIZE]).digest() != blob[-_CHECKSUM_SIZE:]:
            raise CacheFormatError("checksum mismatch")
        values = np.frombuffer(blob, dtype="<u8", count=hi - lo + 1, offset=_HEADER.size)
        if not values.flags.writeable:
            values = values.copy()
        return cls(lo, hi, conv, values)

    def save(self, path) -> None:
        """Write the cache file atomically with :func:`write_cache`, the values
        straight from the table, so no blob of the file is built."""
        write_cache(path, self.lo, self.hi, self.conv, [self.values])

    @classmethod
    def load(cls, path) -> "STable":
        """Read and validate a cache file into one buffer, which the values then view.

        The header and the file size are checked before the buffer is made,
        so a file that is no cache fails in bounded memory.
        """
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            _check_header(fh.read(_HEADER.size), size)
            fh.seek(0)
            blob = bytearray(size)
            del blob[fh.readinto(blob) :]  # a file cut short while read leaves no zeros
        return cls.from_bytes(blob)


@cache
def _tiles() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The pre-sieve tiles: (S, ``prod``) over the powers of each dict of _TILE_POWERS.

    Entry i of a tile of period t, the product of its powers, holds the
    largest S(p^k) over its powers p^k that divide i (uint8, at most 23) and
    their product gcd(i, t) (uint32).  Built once per process (3.8 MB in
    all, about 4 ms) and read-only, so every thread shares them.  A tile
    grows one prime at a time: the tile of the primes so far, repeated p^e
    times, is the tile of those primes mod the new length, so only the
    strides of p are left to apply.
    """
    tiles = []
    for powers in _TILE_POWERS:
        smax = np.zeros(1, dtype=np.uint8)
        part = np.ones(1, dtype=np.uint32)
        for p, e in powers.items():
            smax, part = np.tile(smax, p**e), np.tile(part, p**e)
            for k in range(1, e + 1):
                hits = smax[:: p**k]
                np.maximum(hits, s_prime_power(p, k), out=hits)
                part[:: p**k] *= p
        smax.flags.writeable = part.flags.writeable = False
        tiles.append((smax, part))
    return tuple(tiles)


def _presieve(dest: np.ndarray, prod: np.ndarray, a: int) -> None:
    """Start the segment from a: dest = S and prod = gcd(j, t) * gcd(j, t') over both tiles.

    One max and one multiply per contiguous piece, and a piece ends where
    either tile wraps, about six per 2^19 entries.  The product is taken in
    the dtype of dest: it reaches 665,280 * 96,577 > 2^32, which a uint32
    multiply would wrap.
    """
    (smax, part), (smax2, part2) = _tiles()
    n, i = dest.size, 0
    while i < n:
        off, off2 = (a + i) % smax.size, (a + i) % smax2.size
        m = min(n - i, smax.size - off, smax2.size - off2)
        np.maximum(smax[off : off + m], smax2[off2 : off2 + m], out=dest[i : i + m])
        np.multiply(
            part[off : off + m], part2[off2 : off2 + m], out=prod[i : i + m], dtype=dest.dtype
        )
        i += m


def _fill_segment(dest: np.ndarray, a: int, b: int, base: np.ndarray) -> None:
    """Compute S(j) for j in [a, b] into dest, working in the dtype of dest.

    Every multiple of p^k in the segment takes the max with S(p^k), which
    grows with k, so the highest power of p that divides j wins.  ``prod``
    collects those powers, the part of j over the base primes up to the
    cube root of b and the primes of the tiles; one division leaves the
    cofactor.

    The base primes p with max(23, cbrt(b)) < p <= sqrt(b), the split
    primes, keep no product.  A j <= b has at most two prime factors above
    cbrt(b), counted with multiplicity, so its part over the split primes
    is 1, q, q^2 or q*q' (q < q'), and a separate array ``split`` holds
    S of that part: 1, q, 2q or q'.  A prime P above sqrt(b) fits beside
    at most one split prime (q*q'*P and q^2*P exceed b).  The divisor
    d = prod * split is at most j, and j // d is P or 1 when the split
    part is 1 or q, and q // 2 or q when it is q^2 or q*q', below ``split``
    in both cases.  So S(j) is the max of S, ``split`` and j // d, with one
    strided call per power of a split prime instead of two.  ``split`` is
    made only when the strided loop reaches past cbrt(b); then the bulk
    pass feeds it too, without a product, and otherwise the split primes
    all take the bulk pass with a product, so a segment with no strided
    split prime (near 10^12) makes no extra pass.

    The segment starts as the two pre-sieve tiles combined by
    :func:`_presieve`, so the powers of _TILE_POWERS cost nothing beyond
    the pass that fills it; the strided loop starts each p <= 23 at the
    first power past its tile (2^7, 3^4, 5^2, 7^2, 11^2, 13^2, 17^2, 19^2,
    23^2).  Primes up to max(23, n / _BAND_HITS) walk strided views of the
    segment; the larger ones, which hit it rarely, go to the bulk pass in
    blocks.  Every tile prime is on the strided loop, so none reaches
    ``split`` or the bulk pass, where its factor would count twice in the
    divisor.  ``prod``, ``split`` and the cofactor take the dtype of dest,
    which :func:`iter_segments` makes uint32 when b < 2^32 (every value and
    product is at most j) and uint64 otherwise.

    The last step is the max of S and the cofactor, unmasked.  For j >= 2 a
    cofactor of 1 means j has a base prime or a prime of a tile, so S is
    already at least 2 and the 1 changes nothing.  For j = 1 it leaves 1,
    and :func:`iter_segments` overwrites that entry with the convention's
    S(1).
    """
    n = b - a + 1
    prod = np.empty_like(dest)
    _presieve(dest, prod, a)
    top = int(np.searchsorted(base, isqrt(b), side="right"))
    edge = min(top, int(np.searchsorted(base, max(_TILE_TOP, n // _BAND_HITS), side="right")))
    # base[:cut]: the primes of base[:edge] with p <= 23 or p^3 <= b, exact for any b.
    cut = bisect_right(base, b, hi=edge, key=lambda p: 0 if p <= _TILE_TOP else int(p) ** 3)
    for p in base[:cut].tolist():
        k = _PRESIEVED.get(p, 0) + 1
        q = p**k
        while q <= b:
            off = (-a) % q
            if off >= n:
                break
            # S(p^k) = k*p while k <= p, which every p >= 17 meets below 2^64.
            hits = dest[off::q]
            np.maximum(hits, k * p if k <= p else s_prime_power(p, k), out=hits)
            prod[off::q] *= p
            q, k = q * p, k + 1
    split = None
    if cut < edge:
        # Primes ascend, so each entry ends with the largest split prime that
        # divides it, or 2p where p^2 does.
        split = np.ones_like(dest)
        for p in base[cut:edge].tolist():
            off = (-a) % p
            if off < n:
                split[off::p] = p
                off = (-a) % (p * p)
                if off < n:
                    split[off :: p * p] = 2 * p
    band = (dest, prod) if split is None else (split, None)
    for start in range(edge, top, _BAND_BLOCK):
        _fill_band(*band, a, b, base[start : min(start + _BAND_BLOCK, top)])
    if split is not None:
        prod *= split  # the divisor prod * split is at most j
        np.maximum(dest, split, out=dest)
        del split  # freed before the residual takes its place
    residual = np.arange(a, b + 1, dtype=dest.dtype)
    residual //= prod
    np.maximum(dest, residual, out=dest)


def _fill_band(s: np.ndarray, prod: np.ndarray | None, a: int, b: int, primes: np.ndarray) -> None:
    """The strided loop's work for a block of primes p >= 29, a few numpy calls per power k.

    The offsets of the first multiple of p^k in the span are one vector; the
    hits of every prime are expanded from them at once and applied with
    ``ufunc.at``, which handles the primes that share a j.  A prime with no
    multiple of p^k in the span has none of p^(k+1), so each power keeps
    only the primes that hit.  The hit values take the dtype of ``s``.  With
    ``prod`` None (split primes) only ``s`` is raised.
    """
    n = b - a + 1
    p = primes.astype(np.uint64)
    q, k = p, 1
    while p.size:
        off = (q - np.uint64(a) % q) % q  # (-a) mod p^k
        hit = off < n
        p, q, off = p[hit], q[hit], off[hit].astype(np.int64)
        step = np.minimum(q, n).astype(np.int64)  # a power past the span hits it once
        counts = (n - 1 - off) // step + 1
        first = np.cumsum(counts) - counts
        rank = np.arange(counts.sum()) - np.repeat(first, counts)
        idx = np.repeat(off, counts) + rank * np.repeat(step, counts)
        hit_primes = np.repeat(p, counts).astype(s.dtype, copy=False)
        np.maximum.at(s, idx, hit_primes * k)  # S(p^k) = k*p, as k <= p
        if prod is not None:
            np.multiply.at(prod, idx, hit_primes)
        more = q <= np.uint64(b) // p
        p, q, k = p[more], q[more] * p[more], k + 1


def iter_segments(
    lo: int,
    hi: int,
    conv: Convention = Convention.PAPER_LITERAL,
    *,
    threads: int = 1,
):
    """Yield (a, values) with values[i] = S(a + i), segment by segment over [lo, hi] in order.

    ``values`` is uint32 for a segment that ends below 2^32 (a view of the
    first half of its uint64 buffer) and uint64 for any other.

    The base primes are sieved once per call; the values do not depend on
    the thread count or the segment size.  ``threads``, cut to the number of
    segments, is the size of a ring of buffers that whole segments of
    ``SEGMENT_SIZE`` entries are filled into, and segment i + threads is
    started only once the consumer has returned from segment i, so a
    yielded view stays valid until then and at most ``threads`` segments
    are in flight.  One thread fills inline and opens no pool.
    """
    lo = _as_u64(lo, "lo", minimum=1)
    hi = _as_u64(hi, "hi", minimum=lo)
    _check_convention(conv)
    threads = _as_u64(threads, "threads", minimum=1)
    segment_size = SEGMENT_SIZE
    threads = min(threads, -(-(hi - lo + 1) // segment_size))
    base = _small_primes(isqrt(hi))
    ring = np.empty((threads, min(segment_size, hi - lo + 1)), np.uint64)

    def fill(a: int):
        b = min(a + segment_size - 1, hi)
        values = ring[(a - lo) // segment_size % threads, : b - a + 1]
        if b < 1 << 32:
            values = values.view(np.uint32)[: b - a + 1]
        _fill_segment(values, a, b, base)
        return a, values

    starts = iter(range(lo, hi + 1, segment_size))
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        # One thread defers each fill until its segment is taken.
        submit = pool.submit if pool else partial
        ahead = deque(submit(fill, start) for start in islice(starts, threads))
        while ahead:
            task = ahead.popleft()
            a, values = task.result() if pool else task()
            if a == 1:
                values[0] = conv.s_of_one
            yield a, values
            ahead.extend(submit(fill, start) for start in islice(starts, 1))


def s_range(
    lo: int,
    hi: int,
    conv: Convention = Convention.PAPER_LITERAL,
    *,
    threads: int = 1,
) -> STable:
    """Compute S(j) for every j in [lo, hi] by segmented sieving.

    The segments of :func:`iter_segments` are copied into the returned
    table as they come; the result is bit-identical for every thread count.
    """
    lo = _as_u64(lo, "lo", minimum=1)
    hi = _as_u64(hi, "hi", minimum=lo)
    _check_convention(conv)  # iter_segments checks only once iterated, after the allocation
    _as_u64(threads, "threads", minimum=1)
    out = np.empty(hi - lo + 1, dtype=np.uint64)
    for a, values in iter_segments(lo, hi, conv, threads=threads):
        out[a - lo : a - lo + values.size] = values
    return STable(lo, hi, conv, out)
