"""Range kernel and cache format: equivalence, determinism, serialization."""

import errno
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kempner import table
from kempner.core import Convention, s
from kempner.table import CacheFormatError, STable, fnv1a64, s_range

PAPER = Convention.PAPER_LITERAL
FORMULA = Convention.FORMULA_CONSISTENT


def test_first_ten_paper():
    tab = s_range(1, 10, PAPER)
    assert tab.values.tolist() == [1, 2, 3, 4, 5, 3, 7, 4, 6, 5]


def test_first_ten_formula():
    tab = s_range(1, 10, FORMULA)
    assert tab.values.tolist() == [0, 2, 3, 4, 5, 3, 7, 4, 6, 5]


def test_degenerate_single_entry():
    for k in (1, 2, 97, 4096, 999983):
        tab = s_range(k, k)
        assert len(tab) == 1
        assert tab.at(k) == s(k)


def test_matches_scalar_kernel_on_random_windows():
    rng = random.Random(99)
    for _ in range(10):
        lo = rng.randrange(1, 10**7 - 1000)
        tab = s_range(lo, lo + 999)
        for j in range(lo, lo + 1000):
            assert tab.at(j) == s(j), j


def test_full_sweep_matches_factorization_kernel():
    tab = s_range(1, 5000)
    for n in range(1, 5001):
        assert tab.at(n) == s(n), n


def test_segment_boundaries_do_not_matter():
    whole = s_range(1, 1000, segment_size=1000)
    for seg in (1, 7, 64, 999):
        assert (s_range(1, 1000, segment_size=seg).values == whole.values).all()


def test_offset_range_does_not_depend_on_convention():
    a = s_range(2, 500, PAPER)
    b = s_range(2, 500, FORMULA)
    assert (a.values == b.values).all()


def test_thread_counts_give_identical_bytes():
    one = s_range(1, 300_000, PAPER, segment_size=1 << 15, threads=1)
    four = s_range(1, 300_000, PAPER, segment_size=1 << 15, threads=4)
    assert one.to_bytes() == four.to_bytes()


# Windows around c * p^k for p <= 13, among them every k > p (where
# S(p^k) < k * p) below 10^13, which keeps the base primes cheap; 13 first
# reaches k > p at 13^14 (see below).
_HIGH_POWERS = [p**k for p in (2, 3, 5, 7, 11, 13) for k in range(2, 64) if p**k < 10**13]


@st.composite
def _windows(draw):
    width = draw(st.integers(0, 16))
    centre = draw(
        st.one_of(
            st.integers(1, 3000),
            st.builds(lambda c, q: c * q, st.integers(1, 9), st.sampled_from(_HIGH_POWERS)),
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
    tab = s_range(lo, hi, conv, segment_size=segment_size)
    assert tab.values.tolist() == [s(j, conv) for j in range(lo, hi + 1)]


def test_thirteen_past_the_exponent_bound():
    # 13^14 and 13^15 are the powers of 13 with k > 13 below 2^64; the base
    # primes of the first take seconds to sieve, of the second minutes.
    lo = 13**14 - 3
    tab = s_range(lo, lo + 6)
    assert tab.values.tolist() == [s(j) for j in range(lo, lo + 7)]


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
    with pytest.raises(ValueError):
        s_range(1, 10, segment_size=0)


def test_at_range_checks():
    tab = s_range(5, 10)
    assert tab.at(5) == 5
    with pytest.raises(IndexError):
        tab.at(4)
    with pytest.raises(IndexError):
        tab.at(11)


def test_stable_length_validation():
    with pytest.raises(ValueError):
        STable(1, 10, PAPER, np.zeros(5, dtype=np.uint64))


# --- serialization -----------------------------------------------------------


def test_fnv1a64_reference_vectors():
    # Published FNV-1a 64 test vectors.
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


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
    assert len(STable.load(path)) == 500
