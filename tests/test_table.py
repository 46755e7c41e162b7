"""Range kernel and cache format: equivalence, determinism, serialization."""

import errno
import hashlib
import os
import random
import struct
import sys
import time
from math import isqrt
from unittest.mock import patch

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from kempner import core, table
from kempner.core import Convention, s
from kempner.table import CacheFormatError, STable, s_range

PAPER = Convention.PAPER_LITERAL
FORMULA = Convention.FORMULA_CONSISTENT


# The kernel leaves S = 1 at j = 1 and iter_segments writes the convention's
# S(1) over it, in whichever segment and thread j = 1 lands.
_FIRST_TEN_SETTINGS = pytest.mark.parametrize(
    "segment_size, threads", [(size, t) for size in (1, table.SEGMENT_SIZE) for t in (1, 2)]
)


@_FIRST_TEN_SETTINGS
def test_first_ten_paper(segment_size, threads):
    with patch.object(table, "SEGMENT_SIZE", segment_size):
        tab = s_range(1, 10, PAPER, threads=threads)
    assert tab.values.tolist() == [1, 2, 3, 4, 5, 3, 7, 4, 6, 5]


@_FIRST_TEN_SETTINGS
def test_first_ten_formula(segment_size, threads):
    with patch.object(table, "SEGMENT_SIZE", segment_size):
        tab = s_range(1, 10, FORMULA, threads=threads)
    assert tab.values.tolist() == [0, 2, 3, 4, 5, 3, 7, 4, 6, 5]


def test_degenerate_single_entry():
    for k in (1, 2, 97, 4096, 999983):
        tab = s_range(k, k)
        assert tab.values.tolist() == [s(k)]


def test_matches_scalar_kernel_on_random_windows():
    rng = random.Random(99)
    for _ in range(10):
        lo = rng.randrange(1, 10**7 - 1000)
        tab = s_range(lo, lo + 999)
        for j in range(lo, lo + 1000):
            assert tab.values[j - lo] == s(j), j


def test_full_sweep_matches_factorization_kernel():
    tab = s_range(1, 5000)
    for n in range(1, 5001):
        assert tab.values[n - 1] == s(n), n


def test_segment_boundaries_do_not_matter():
    with patch.object(table, "SEGMENT_SIZE", 1000):
        whole = s_range(1, 1000)
    for seg in (1, 7, 64, 999):
        with patch.object(table, "SEGMENT_SIZE", seg):
            assert (s_range(1, 1000).values == whole.values).all()


def test_offset_range_does_not_depend_on_convention():
    a = s_range(2, 500, PAPER)
    b = s_range(2, 500, FORMULA)
    assert (a.values == b.values).all()


def test_thread_counts_give_identical_bytes():
    with patch.object(table, "SEGMENT_SIZE", 1 << 15):
        one = s_range(1, 300_000, PAPER, threads=1)
        four = s_range(1, 300_000, PAPER, threads=4)
    assert one.to_bytes() == four.to_bytes()


@pytest.mark.parametrize("threads", [2, 3])
def test_held_segment_survives_the_fills_ahead_of_it(threads):
    # The pool fills the next segments while the consumer holds this one; a
    # ring of fewer buffers than threads would overwrite the view held here.
    whole = s_range(1, 3000).values
    seen = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with patch.object(table, "SEGMENT_SIZE", 100):
            for a, values in table.iter_segments(1, 3000, threads=threads):
                time.sleep(0.01)  # ample time for the fills in flight to finish
                assert (values == whole[a - 1 : a - 1 + values.size]).all(), a
                seen += values.size
    finally:
        sys.setswitchinterval(interval)
    assert seen == 3000


def test_many_tiny_segments_keep_memory_bounded(traced_peak):
    # A bounded look-ahead is in flight, not one future per segment.
    with patch.object(table, "SEGMENT_SIZE", 1):
        tab, peak = traced_peak(lambda: s_range(1, 5000, threads=2))
    assert peak < 1 << 20
    assert (tab.values == s_range(1, 5000).values).all()


# Windows around c * p^k for the tile primes p <= 23, among them every k > p
# (where S(p^k) < k * p) below 10^13, which keeps the base primes cheap; 13
# first reaches k > p at 13^14 (see below).  Windows around c * t for the
# tile periods t and their product cross the seams of the pre-sieve tiles,
# and those within 16 of 2^32 the switch of the kernel's working dtype from
# uint32 to uint64.
_HIGH_POWERS = [p**k for p in table._PRESIEVED for k in range(2, 64) if p**k < 10**13]
_PERIODS = [smax.size for smax, _ in table._tiles()]
_SEAMS = [*_PERIODS, _PERIODS[0] * _PERIODS[1]]


@st.composite
def _windows(draw):
    width = draw(st.integers(0, 16))
    centre = draw(
        st.one_of(
            st.integers(1, 3000),
            st.builds(lambda c, q: c * q, st.integers(1, 9), st.sampled_from(_HIGH_POWERS)),
            st.builds(lambda c, t: c * t, st.integers(1, 30), st.sampled_from(_SEAMS)),
            st.integers(2**32 - 16, 2**32 + 16),
            st.integers(1, 10**12),
        )
    )
    lo = max(1, centre - draw(st.integers(0, width)))
    segment_size = draw(st.sampled_from([1, 7, None])) or draw(st.integers(1, width + 1))
    return lo, lo + width, segment_size


@settings(max_examples=60, deadline=None)
@given(_windows(), st.sampled_from([PAPER, FORMULA]))
def test_windows_match_scalar_kernel(window, conv):
    lo, hi, segment_size = window
    with patch.object(table, "SEGMENT_SIZE", segment_size):
        tab = s_range(lo, hi, conv)
    assert tab.values.tolist() == [s(j, conv) for j in range(lo, hi + 1)]


def test_thirteen_past_the_exponent_bound():
    # 13^14 and 13^15 are the powers of 13 with k > 13 below 2^64; the 3.7M
    # base primes of the first sieve in under a second, those of the second
    # take minutes.  With one entry per segment every prime above 13 goes
    # through the bulk pass, seven times over.
    lo = 13**14 - 3
    expected = [s(j) for j in range(lo, lo + 7)]
    for segment_size in (1, table.SEGMENT_SIZE):
        with patch.object(table, "SEGMENT_SIZE", segment_size):
            assert s_range(lo, lo + 6).values.tolist() == expected


# sha256 of s_range(lo, hi, PAPER).to_bytes(): a change to the kernel keeps
# every byte, whatever the thread count and the segment size.
_ONE_TO_TEN_TO_THE_7 = "5912ced9c00497135328ce6f0209dfa143ce8af0b2a82d179332ec9363518ce5"
_PINNED_WINDOWS = {
    "1e9": (10**9, 10**9 + (1 << 20) - 1),
    "1e12": (10**12, 10**12 + (1 << 20) - 1),
    "13^14": (13**14 - 3, 13**14 + 3),
    "2^32": (2**32 - 3 * 10**5, 2**32 + 3 * 10**5),
}
_WINDOW_DIGESTS = {
    "1e9": "e6cc997ac8d8a723b78827acf8ace0d3a51add605863e1641b972c9fb9e1bd63",
    "1e12": "4cc45aba5d91328d40c730b2bef3f06955d784d1a10db93f974b35b05b6e3842",
    "13^14": "24d3db3f7c697be275d1ce1519bcb9557df4600c36e1050f374dc6f6f55c5ef9",
    "2^32": "a426e040141039fbd02616ec17051352e59e4d430548b568b2306090ea3856f7",
}
_PINNED_DIGESTS = [
    *(
        pytest.param(1, 10**7, threads, size, _ONE_TO_TEN_TO_THE_7, id=f"1e7-{threads}-{size}")
        for threads, size in [(1, None), (2, None), (1, 65536), (1, 1 << 20)]
    ),
    pytest.param(1, 10**7, 1, 7, _ONE_TO_TEN_TO_THE_7, id="1e7-1-7", marks=pytest.mark.slow),
    *(
        pytest.param(lo, hi, 1, None, _WINDOW_DIGESTS[name], id=name)
        for name, (lo, hi) in _PINNED_WINDOWS.items()
    ),
]


@pytest.mark.parametrize("lo, hi, threads, segment_size, digest", _PINNED_DIGESTS)
def test_pinned_digests(lo, hi, threads, segment_size, digest):
    with patch.object(table, "SEGMENT_SIZE", segment_size or table.SEGMENT_SIZE):
        tab = s_range(lo, hi, PAPER, threads=threads)
    sha = hashlib.sha256()
    for chunk in table._chunks(tab.lo, tab.hi, tab.conv, [tab.values]):  # to_bytes() in pieces
        sha.update(chunk)
    assert sha.hexdigest() == digest


def test_window_across_two_to_the_32():
    # Segments that end below 2^32 run in uint32, the rest in uint64.
    lo, hi = 2**32 - 300, 2**32 + 300
    whole = s_range(lo, hi).to_bytes()
    for segment_size in (1, 7):
        with patch.object(table, "SEGMENT_SIZE", segment_size):
            assert s_range(lo, hi).to_bytes() == whole, segment_size
    assert STable.from_bytes(whole).values.tolist() == [s(j) for j in range(lo, hi + 1)]


@pytest.mark.parametrize("segment_size", [1 << 19, pytest.param(7, marks=pytest.mark.slow)])
def test_tile_copy_wraps_inside_one_segment(segment_size):
    # Segments of 2^20 entries are longer than both tiles: the one from
    # 700,000 starts in pieces that end at 1,330,560 (two periods of the
    # first tile) and at each multiple of 96,577, the period of the second.
    with patch.object(table, "SEGMENT_SIZE", 1 << 20):
        wrapped = s_range(700_000, 2_200_000).to_bytes()
    with patch.object(table, "SEGMENT_SIZE", segment_size):
        assert s_range(700_000, 2_200_000).to_bytes() == wrapped


def test_tile_holds_s_and_gcd_over_its_powers():
    # Entry i of each tile is S(g) and g for g = gcd(i, t), t its period,
    # with S(1) = 0; the two periods are coprime.
    assert _PERIODS == [665_280, 96_577]
    assert np.gcd(*_PERIODS) == 1
    for powers, (smax, part) in zip(table._TILE_POWERS, table._tiles()):
        period = int(np.prod([p**e for p, e in powers.items()]))
        assert smax.size == part.size == period
        g = np.gcd(np.arange(period), period)
        s_of = np.zeros(period + 1, dtype=np.int64)
        for d in sympy.divisors(period):
            s_of[d] = s(d, FORMULA)
        assert (smax.dtype, part.dtype) == (np.uint8, np.uint32)
        assert not (smax.flags.writeable or part.flags.writeable)
        assert (part == g).all()
        assert (smax == s_of[g]).all()


def _presieved(a, n, dtype):
    dest, prod = np.empty(n, dtype), np.empty(n, dtype)
    table._presieve(dest, prod, a)
    return dest, prod


def test_presieve_gives_both_tiles_gcds_in_the_dtype_of_dest():
    # prod is gcd(j, t) * gcd(j, t') = gcd(j, t * t'), which exceeds 2^32 at
    # the multiples of every divisor of t * t' from 2^32 on: a uint32
    # multiply would wrap there.  dest is S of it.
    both = _PERIODS[0] * _PERIODS[1]
    s_of = dict(zip(sympy.divisors(both), (s(d, FORMULA) for d in sympy.divisors(both))))
    rng = random.Random(21)
    cases = [(rng.randrange(1, 2**40), rng.choice([1, 7, 1000, 1 << 19])) for _ in range(12)]
    cases += [(rng.randrange(1, 2**31), 1 << 20)]
    big = [d for d in sympy.divisors(both) if d >= 2**32]
    assert len(big) == 14  # t * t' / d for d in 1..14
    cases += [(c * d - 3, 7) for d in big for c in (1, 2, 5)]
    for a, n in cases:
        dtypes = [np.uint64] + [np.uint32] * (a + n <= 2**32)
        for dtype in dtypes:
            dest, prod = _presieved(a, n, dtype)
            g = np.gcd(np.arange(a, a + n, dtype=np.uint64), np.uint64(both))
            assert (prod == g).all(), (a, n, dtype)
            divisors, at = np.unique(g, return_inverse=True)
            assert (dest == np.array([s_of[d] for d in divisors.tolist()])[at]).all()


@pytest.mark.parametrize("segment_size", [1, 7, table.SEGMENT_SIZE])
def test_windows_across_the_tile_seams(segment_size):
    for t in _SEAMS:
        for c in (1, 2, 3):
            lo, hi = c * t - 20, c * t + 20
            with patch.object(table, "SEGMENT_SIZE", segment_size):
                got = s_range(lo, hi).values.tolist()
            assert got == [s(j) for j in range(lo, hi + 1)], (t, c)


@pytest.mark.parametrize("segment_size", [1, 7])
def test_tile_primes_past_their_tiles(segment_size):
    # Every power past the tiles below 10^9, from 2^7, 3^4, 5^2, ... and
    # 23^2 on, runs through the strided loop in segments of 1 and 7 entries.
    for q in _HIGH_POWERS:
        p = next(p for p in table._PRESIEVED if q % p == 0)
        if q <= p ** table._PRESIEVED[p] or q > 10**9:
            continue
        lo, hi = q - 3, q + 3
        with patch.object(table, "SEGMENT_SIZE", segment_size):
            got = s_range(lo, hi).values.tolist()
        assert got == [s(j) for j in range(lo, hi + 1)], q


def _plain_sieve(limit):
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def test_small_primes_match_a_plain_sieve():
    ref = _plain_sieve(3000)
    for limit in range(3001):
        assert table._small_primes(limit).tolist() == ref[ref <= limit].tolist(), limit
    assert (table._small_primes(10**6 + 3) == _plain_sieve(10**6 + 3)).all()
    assert core._TRIAL_PRIMES == tuple(_plain_sieve(core._TRIAL_BOUND - 1).tolist())


# A span of 20 * _BAND_HITS entries puts the band edge at 20: 19 is the
# largest prime of the strided loop, 23 the smallest of the bulk pass.
_SPAN = 20 * table._BAND_HITS


@pytest.mark.parametrize("power", [19**2, 19**3, 19**4, 23**2, 23**3, 23**4])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_band_edge_windows(power, where):
    centre = power << _SPAN.bit_length()  # an odd p^k times a power of 2 past the span
    lo = {"first": centre, "middle": centre - _SPAN // 2, "last": centre - _SPAN + 1}[where]
    with patch.object(table, "SEGMENT_SIZE", _SPAN):
        tab = s_range(lo, lo + _SPAN - 1)
    assert tab.values.tolist() == [s(j) for j in range(lo, lo + _SPAN)]


def test_large_window_identical_over_threads_and_segments():
    # 999983, the largest prime below 10^6, is a base prime of every window
    # near 10^12; its square is in this one.
    lo = 999983**2 - 100
    with patch.object(table, "SEGMENT_SIZE", 1 << 19):
        whole = s_range(lo, lo + 200).to_bytes()
    for segment_size in (1, 7, 1 << 19):
        for threads in (1, 2):
            with patch.object(table, "SEGMENT_SIZE", segment_size):
                tab = s_range(lo, lo + 200, threads=threads)
            assert tab.to_bytes() == whole, (segment_size, threads)
    assert tab.values.tolist() == [s(j) for j in range(lo, lo + 201)]


# The split primes of a segment that ends at b are the base primes in
# (max(13, cbrt(b)), sqrt(b)]; they keep no product.  Centres near x of the
# forms m*q*q', m*q^2 and q*P put q among the first primes above cbrt(x) or
# the last ones up to sqrt(x).  A window of 128*(q + 1) entries that ends
# just past the centre and past q^2 walks q on the strided path; a narrow
# one, or one of segments of 1 or 7 entries, sends it through the bulk pass.
def _split_centre(x, above_cbrt, i, form):
    if above_cbrt:
        q = sympy.nextprime(max(13, sympy.integer_nthroot(x, 3)[0]), i + 1)
        inner = sympy.nextprime(q)
    else:
        q = sympy.prevprime(isqrt(x) + 1)
        for _ in range(i):
            q = sympy.prevprime(q)
        inner = sympy.prevprime(q)
    if form == "q*P":
        return q, q * sympy.prevprime(x // q + 1)
    core_part = q * inner if form == "q*q'" else q * q
    return q, max(1, x // core_part) * core_part


_SPLIT_FORMS = ["q*q'", "q^2", "q*P"]


@st.composite
def _split_windows(draw):
    x = draw(st.integers(4, 11).flatmap(lambda e: st.integers(10**e, 10 ** (e + 1))))
    q, centre = _split_centre(
        x, draw(st.booleans()), draw(st.integers(0, 2)), draw(st.sampled_from(_SPLIT_FORMS))
    )
    lo = max(1, centre - draw(st.integers(0, 16)))
    hi = centre + draw(st.integers(0, 16))
    segment_size = draw(st.sampled_from([1, 7, 1 << 19]))
    if segment_size == 1 << 19 and q < 4000 and q * q - hi < 10**4 and draw(st.booleans()):
        top = max(hi, q * q)
        return max(1, top - 128 * (q + 1) + 1), top, (lo, hi), segment_size
    return lo, hi, (lo, hi), segment_size


@settings(max_examples=80, deadline=None)
@given(_split_windows())
def test_split_windows_match_scalar_kernel(window):
    lo, hi, (check_lo, check_hi), segment_size = window
    with patch.object(table, "SEGMENT_SIZE", segment_size):
        tab = s_range(lo, hi)
    checked = range(check_lo, check_hi + 1)
    assert tab.values[check_lo - lo : check_hi - lo + 1].tolist() == [s(j) for j in checked]


@pytest.mark.parametrize("x", [10**5, 10**6, 10**7])
@pytest.mark.parametrize("above_cbrt", [True, False])
@pytest.mark.parametrize("form", _SPLIT_FORMS)
def test_split_primes_on_the_strided_path(x, above_cbrt, form):
    for i in range(2):
        q, centre = _split_centre(x, above_cbrt, i, form)
        hi = max(centre, q * q) + 16  # one segment that holds the centre, with q <= sqrt(hi)
        lo = hi - 128 * (q + 1) + 1
        cbrt = sympy.integer_nthroot(hi, 3)[0]
        assert max(13, cbrt) < q <= min(isqrt(hi), (hi - lo + 1) // table._BAND_HITS)
        window = range(centre - 16, centre + 17)
        tab = s_range(lo, hi)
        got = tab.values[window.start - lo : window.stop - lo].tolist()
        assert got == [s(j) for j in window], q


@pytest.mark.parametrize("k", [211, 997, 1000])
def test_split_moves_where_the_segment_end_crosses_a_cube(k):
    # 211 and 997 are prime: a split prime while b < k^3, a prime with a
    # product from b = k^3 on.  1000 is not, so nothing moves at 10^9.
    cube = k**3
    expected = {j: s(j) for j in range(cube - 41, cube + 42)}
    for hi in (cube - 1, cube, cube + 1):
        # One segment of 2^17 entries: the strided loop runs to 1024 > k.
        tab = s_range(hi - (1 << 17) + 1, hi)
        assert tab.values[-40:].tolist() == [expected[j] for j in range(hi - 39, hi + 1)], hi
    for segment_size in (1, 7, 1 << 19):
        with patch.object(table, "SEGMENT_SIZE", segment_size):
            tab = s_range(cube - 41, cube + 41)
        assert tab.values.tolist() == list(expected.values()), segment_size


@pytest.mark.parametrize("threads", [1, 2])
def test_stream_is_uint32_below_two_to_the_32(threads):
    lo, hi = 2**32 - 250, 2**32 + 150
    with patch.object(table, "SEGMENT_SIZE", 100):
        tab = s_range(lo, hi, threads=threads)
        dtypes = []
        for a, values in table.iter_segments(lo, hi, threads=threads):
            b = a + values.size - 1
            assert values.dtype == (np.uint32 if b < 2**32 else np.uint64), (a, b)
            assert values.tolist() == tab.values[a - lo : b - lo + 1].tolist()
            dtypes.append(values.dtype)
    assert set(dtypes) == {np.dtype(np.uint32), np.dtype(np.uint64)}
    assert tab.values.dtype == np.uint64
    assert s_range(1, 100).values.dtype == np.uint64


def test_entry_bounds_invariant():
    tab = s_range(2, 10_000)
    js = np.arange(2, 10_001, dtype=np.uint64)
    assert (tab.values >= 2).all()
    assert (tab.values <= js).all()


def test_rejections():
    with pytest.raises(ValueError):
        s_range(0, 10)
    with pytest.raises(ValueError):
        s_range(10, 5)
    for threads in (0, -2):
        with pytest.raises(ValueError):
            s_range(1, 10, threads=threads)
    with pytest.raises(TypeError):
        s_range(1, 10, threads=2.0)
    # Checked before the output is allocated (2^45 entries take 256 TiB).
    for hi in (2**45, 2**60):
        with pytest.raises(ValueError, match="threads"):
            s_range(1, hi, threads=0)
        with pytest.raises(TypeError):
            s_range(1, hi, threads=2.0)
        with pytest.raises(TypeError, match="Convention"):
            s_range(1, hi, "paper")


def test_stable_length_validation():
    with pytest.raises(ValueError):
        STable(1, 10, PAPER, np.zeros(5, dtype=np.uint64))


# --- serialization -----------------------------------------------------------


def test_skt2_known_answer_bytes():
    header = b"SKT2" + struct.pack("<IQQB", 2, 1, 10, 1)  # version 2, [1, 10], PAPER_LITERAL
    values = struct.pack("<10Q", 1, 2, 3, 4, 5, 3, 7, 4, 6, 5)
    checksum = hashlib.blake2b(header + values, digest_size=8).digest()
    assert checksum == bytes.fromhex("9109bb5ca5e3b45d")  # little-endian u64 slot
    assert s_range(1, 10, PAPER).to_bytes() == header + values + checksum


# s_range(1, 10, PAPER) as the SKT1 format (FNV-1a checksum) wrote it.
_SKT1_FIRST_TEN = bytes.fromhex(
    "534b5431 01000000 0100000000000000 0a00000000000000 01"  # magic, version 1, lo, hi, conv
    "0100000000000000 0200000000000000 0300000000000000 0400000000000000 0500000000000000"
    "0300000000000000 0700000000000000 0400000000000000 0600000000000000 0500000000000000"
    "1f3c5cf0842a2134"  # FNV-1a 64 of the preceding bytes
)


def test_skt1_blob_is_rejected():
    with pytest.raises(CacheFormatError, match="SKT1"):
        STable.from_bytes(_SKT1_FIRST_TEN)


def test_round_trip_bytes():
    tab = s_range(1, 2000, PAPER)
    back = STable.from_bytes(tab.to_bytes())
    assert back.lo == tab.lo
    assert back.hi == tab.hi
    assert back.conv == tab.conv
    assert (back.values == tab.values).all()


def test_round_trip_file(tmp_path):
    tab = s_range(37, 4000, FORMULA)
    path = tmp_path / "window.skt"
    tab.save(path)
    back = STable.load(path)
    assert (back.values == tab.values).all()
    assert (back.lo, back.hi, back.conv) == (37, 4000, FORMULA)


def test_load_holds_one_copy(tmp_path, traced_peak):
    path = tmp_path / "window.skt"
    s_range(1, 1 << 20).save(path)
    back, peak = traced_peak(lambda: STable.load(path))
    assert peak < 1.25 * os.path.getsize(path)
    assert back.values.flags.writeable
    back.values[0] = 7
    assert back.values[0] == 7


@pytest.mark.parametrize("bad", ["magic", "length"])
def test_load_checks_the_header_before_reading_the_file(tmp_path, bad, traced_peak):
    # A sparse 256 MiB file: no cache at all, or a valid header of 10 entries.
    head = b"JUNK" if bad == "magic" else table._HEADER.pack(table._MAGIC, table._VERSION, 1, 10, 0)
    path = tmp_path / "big.skt"
    path.write_bytes(head)
    os.truncate(path, 256 << 20)

    def load():
        with pytest.raises(CacheFormatError, match=bad):
            STable.load(path)

    _, peak = traced_peak(load)
    assert peak < 1 << 20


def test_from_bytes_copies_a_read_only_blob():
    blob = s_range(1, 50).to_bytes()
    tab = STable.from_bytes(blob)
    tab.values[0] = 7
    assert STable.from_bytes(blob).values[0] == 1


def test_serialization_is_deterministic():
    a = s_range(1, 500).to_bytes()
    b = s_range(1, 500).to_bytes()
    assert a == b


def test_convention_byte_round_trips():
    for conv in (PAPER, FORMULA):
        tab = s_range(1, 50, conv)
        assert STable.from_bytes(tab.to_bytes()).conv == conv


def test_rejects_bad_magic():
    blob = bytearray(s_range(1, 50).to_bytes())
    blob[0] ^= 0xFF
    with pytest.raises(CacheFormatError):
        STable.from_bytes(bytes(blob))


def test_rejects_bad_version():
    blob = bytearray(s_range(1, 50).to_bytes())
    blob[4] = 99
    with pytest.raises(CacheFormatError):
        STable.from_bytes(bytes(blob))


def test_rejects_bad_convention_byte():
    blob = bytearray(s_range(1, 50).to_bytes())
    blob[24] = 7
    with pytest.raises(CacheFormatError):
        STable.from_bytes(bytes(blob))


def test_rejects_corrupted_value():
    blob = bytearray(s_range(1, 50).to_bytes())
    blob[40] ^= 0x01
    with pytest.raises(CacheFormatError, match="checksum"):
        STable.from_bytes(bytes(blob))


def test_rejects_corrupted_checksum():
    blob = bytearray(s_range(1, 50).to_bytes())
    blob[-1] ^= 0x01
    with pytest.raises(CacheFormatError, match="checksum"):
        STable.from_bytes(bytes(blob))


def test_rejects_truncation():
    blob = s_range(1, 50).to_bytes()
    with pytest.raises(CacheFormatError):
        STable.from_bytes(blob[:-3])
    with pytest.raises(CacheFormatError):
        STable.from_bytes(blob[:10])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**6), st.integers(0, 20), st.data())
def test_any_flipped_byte_is_rejected(lo, width, data):
    blob = bytearray(s_range(lo, lo + width).to_bytes())
    blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    with pytest.raises(CacheFormatError):
        STable.from_bytes(bytes(blob))


def test_failed_save_keeps_existing_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "window.skt"
    s_range(1, 50).save(path)
    before = path.read_bytes()

    class DiskFull:
        """A file that takes half of the first write, then runs out of space."""

        def __init__(self, *args):
            self.fh = open(*args)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(table, "open", DiskFull, raising=False)
    with pytest.raises(OSError):
        s_range(1, 500).save(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["window.skt"]
    s_range(1, 500).save(path)
    assert STable.load(path).values.size == 500


def test_save_writes_the_values_without_a_blob(tmp_path, traced_peak):
    tab = STable(1, 1 << 20, FORMULA, np.arange(1, (1 << 20) + 1, dtype=np.uint64))
    _, peak = traced_peak(lambda: tab.save(tmp_path / "big.skt"))
    assert peak < 1 << 20  # the values take 8 MiB
    assert (tmp_path / "big.skt").read_bytes() == tab.to_bytes()
