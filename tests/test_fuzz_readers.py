"""Fuzzed readers: whatever a field file, a decomposition (manifest and
blob) or a config holds, reading it either succeeds or raises an OvtlError.

The inputs are valid files with truncations, bit flips, overwritten header
fields and replaced manifest or config values.  Runs are derandomized and
bounded, so every run tries the same cases.
"""

import struct

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from ovtl.atomics import smooth_decompose_tl
from ovtl.errors import FormatError, OvtlError
from ovtl.fieldio import (
    _HEADER,
    Config,
    config_to_text,
    parse_config,
    read_decomposition_blob,
    read_field,
    write_decomposition,
    write_field,
)
from ovtl.generators import band_limited_random
from ovtl.lattice import Grid
from helpers import random_strip, write_strip_file

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)

# (offset, format) of the header fields after the magic: version, d, N, n, j_count
HEADER_FIELDS = ((4, "<H"), (6, "<I"), (10, "<I"), (14, "<I"), (18, "<I"))
U32_EDGES = (0, 1, 2, 3, 4, 15, 16, 32, 64, 2**16 - 1, 2**31, 2**32 - 1)
VALUES = st.one_of(
    st.sampled_from(["", "-1", "0", "1", "2", "3", "4", "64", "nan", "inf", "-inf", "1e400",
                     "1.5", "0x10", "9" * 40, "none", "auto", "lp", "poisson", "1,2", ",",
                     "[x]", "=", "%(x)s"]),
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(repr),
    st.text(max_size=12),
)


def _reads_or_ovtl_error(read, *args) -> None:
    try:
        read(*args)
    except OvtlError:
        pass


def _flip(raw: bytes, bits) -> bytes:
    out = bytearray(raw)
    for pos, bit in bits:
        out[pos] ^= 1 << bit
    return bytes(out)


def _overwrite(raw: bytes, pos: int, fmt: str, value: int) -> bytes:
    value %= 1 << (8 * struct.calcsize(fmt))
    return raw[:pos] + struct.pack(fmt, value) + raw[pos + struct.calcsize(fmt):]


def _mutations(raw: bytes, fields) -> st.SearchStrategy:
    """Truncations of ``raw``, one to four bit flips, and overwrites of the
    header fields ``fields`` = ((offset, struct format), ...)."""
    values = st.one_of(st.sampled_from(U32_EDGES), st.integers(0, 2**32 - 1))
    return st.one_of(
        st.integers(0, len(raw) - 1).map(lambda k: raw[:k]),
        st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 7)),
                 min_size=1, max_size=4).map(lambda bits: _flip(raw, bits)),
        st.tuples(st.sampled_from(fields), values).map(
            lambda fv: _overwrite(raw, fv[0][0], fv[0][1], fv[1])),
    )


def _edits(text: str) -> st.SearchStrategy:
    """``text`` with one "key = value" line's value replaced, one line
    dropped, or cut short."""
    lines = text.splitlines(keepends=True)
    keyed = [i for i, line in enumerate(lines) if " = " in line]

    def replace(i, value):
        key = lines[i].split(" = ", 1)[0]
        return "".join(lines[:i] + [f"{key} = {value}\n"] + lines[i + 1:])

    return st.one_of(
        st.tuples(st.sampled_from(keyed), VALUES).map(lambda iv: replace(*iv)),
        st.integers(0, len(lines) - 1).map(lambda i: "".join(lines[:i] + lines[i + 1:])),
        st.integers(0, len(text) - 1).map(lambda k: text[:k]),
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A plain field file, a strip field file (which the reader rejects), and
    a manifest and blob."""
    root = tmp_path_factory.mktemp("fuzz")
    grid = Grid(1, 32)
    write_field(root / "f.ovtl", band_limited_random(grid, 2, 1))
    write_strip_file(root / "F.ovtl", random_strip(Grid(2, 16), 1, 2, 2))
    f = band_limited_random(grid, 1, 3)
    write_decomposition(root / "m.txt", root / "b.bin",
                        smooth_decompose_tl(f, 0.5, 1, 1))
    return root


@pytest.mark.parametrize("name", ["f.ovtl", "F.ovtl"])
def test_read_field_fuzzed(files, name):
    raw = (files / name).read_bytes()
    path = files / f"fuzzed-{name}"

    @FUZZ
    @given(_mutations(raw, HEADER_FIELDS))
    def check(data):
        path.write_bytes(data)
        _reads_or_ovtl_error(read_field, path)

    check()


def test_read_decomposition_blob_fuzzed_blob(files):
    raw = (files / "b.bin").read_bytes()
    manifest = (files / "m.txt").read_text()
    offsets = [int(line.split(" = ")[1]) for line in manifest.splitlines()
               if line.startswith("blob_offset = ")]
    # each record's header fields, then its box starts and sides (d = 1)
    fields = [(off + pos, fmt) for off in offsets
              for pos, fmt in HEADER_FIELDS + ((_HEADER.size, "<I"), (_HEADER.size + 4, "<I"))]
    path = files / "fuzzed.bin"

    @FUZZ
    @given(_mutations(raw, fields))
    def check(data):
        path.write_bytes(data)
        _reads_or_ovtl_error(read_decomposition_blob, path, files / "m.txt")

    check()


def test_read_decomposition_blob_bad_side_rejected(files):
    # a box side outside 1..N (0 holds no data, past N overlaps itself) is a
    # FormatError, never a field rebuilt from an empty or misread block
    raw = (files / "b.bin").read_bytes()
    offsets = [int(line.split(" = ")[1]) for line in (files / "m.txt").read_text().splitlines()
               if line.startswith("blob_offset = ")]
    path = files / "bad-side.bin"

    @FUZZ
    @given(st.sampled_from(offsets),
           st.one_of(st.just(0), st.integers(33, 2**32 - 1)))  # N = 32
    def check(off, side):
        path.write_bytes(_overwrite(raw, off + _HEADER.size + 4, "<I", side))
        with pytest.raises(FormatError, match=f"record at {off}"):
            read_decomposition_blob(path, files / "m.txt")

    check()


def test_read_decomposition_blob_fuzzed_manifest(files):
    path = files / "fuzzed.txt"

    @FUZZ
    @given(_edits((files / "m.txt").read_text()))
    def check(text):
        path.write_text(text)
        _reads_or_ovtl_error(read_decomposition_blob, files / "b.bin", path)

    check()


@FUZZ
@given(st.one_of(_edits(config_to_text(Config())), st.text(max_size=80)))
def test_parse_config_fuzzed(text):
    _reads_or_ovtl_error(parse_config, text)
