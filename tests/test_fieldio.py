import os
import re
import struct
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ovtl.atomics import smooth_decompose_h1, smooth_decompose_tl
from ovtl.errors import FormatError
from ovtl.fieldio import (
    MAGIC,
    _HEADER,
    read_decomposition_blob,
    read_field,
    write_decomposition,
    write_field,
)
from ovtl.generators import band_limited_random
from ovtl.lattice import Grid, box_indices
from helpers import embed, random_strip, side_cells, write_strip_file


def _decompose(grid, seed, target="tl"):
    f = band_limited_random(grid, 2, seed)
    if target == "tl":
        return f, smooth_decompose_tl(f, 0.5, 1, 0)
    return f, smooth_decompose_h1(f)


def _records(blob: bytes, manifest: str, d: int) -> list:
    """(version, starts, sides) of every record the manifest lists."""
    out = []
    for off in map(int, re.findall(r"^blob_offset = (\d+)$", manifest, re.M)):
        version = _HEADER.unpack_from(blob, off)[1]
        box = struct.unpack_from(f"<{2 * d}I", blob, off + _HEADER.size)
        out.append((version, box[:d], box[d:]))
    return out


def _write_v1(man_path, blob_path, dec):
    """Rewrite a decomposition in the version-1 layout: each record is the
    field header, then the atom on the whole grid; offsets follow suit."""
    grid = dec.grid
    atoms = [atom for _, atom in dec.low_pairs + dec.high_pairs]
    offsets, chunks, offset = [], [], 0
    for atom in atoms:
        data = np.ascontiguousarray(embed(atom), dtype="<c16").tobytes()
        chunks.append(_HEADER.pack(MAGIC, 1, grid.d, grid.N, atom.n, 0) + data)
        offsets.append(offset)
        offset += len(chunks[-1])
    blob_path.write_bytes(b"".join(chunks))
    it = iter(offsets)
    text = re.sub(r"^blob_offset = \d+$", lambda m: f"blob_offset = {next(it)}",
                  man_path.read_text(), flags=re.M)
    man_path.write_text(text)


@pytest.mark.parametrize("d,N,target", [(1, 64, "tl"), (1, 64, "h1"), (2, 32, "tl"),
                                        (2, 32, "h1")])
def test_blob_v2_roundtrip(tmp_path, d, N, target):
    grid = Grid(d, N)
    f, dec = _decompose(grid, 41 + d, target)
    man, blob = tmp_path / "m.txt", tmp_path / "b.bin"
    write_decomposition(man, blob, dec)
    recs = _records(blob.read_bytes(), man.read_text(), d)
    assert {v for v, _, _ in recs} == {2}
    # coarse cubes stored on the whole grid, and boxes that wrap the torus
    assert any(sides == (N,) * d for _, _, sides in recs)
    assert any(s < N and o + s > N for _, starts, sides in recs
               for o, s in zip(starts, sides))
    rec, meta, atoms = read_decomposition_blob(blob, man)
    assert len(atoms) == int(meta["atoms"]) == len(recs)
    expected = dec.reconstruct().data
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(rec.data - expected)) <= 1e-15 * scale
    assert np.max(np.abs(rec.data - f.data)) <= 1e-9 * np.max(np.abs(f.data))


@pytest.mark.parametrize("d,N", [(1, 64), (2, 16)])
def test_blob_v1_still_read(tmp_path, d, N):
    grid = Grid(d, N)
    _, dec = _decompose(grid, 45 + d)
    man, blob = tmp_path / "m.txt", tmp_path / "b.bin"
    write_decomposition(man, blob, dec)
    v2 = read_decomposition_blob(blob, man)[0].data
    _write_v1(man, blob, dec)
    assert {v for v, _, _ in _records(blob.read_bytes(), man.read_text(), d)} == {1}
    v1 = read_decomposition_blob(blob, man)[0].data
    scale = np.max(np.abs(v2))
    assert np.max(np.abs(v1 - v2)) <= 1e-15 * scale
    assert np.max(np.abs(v1 - dec.reconstruct().data)) <= 1e-15 * scale


def _box_side(atom) -> int:
    """Side in cells of the box an atom is stored on: the whole grid for the
    low atom, else its cube grown by N 2^-(level+2) cells on every side,
    capped at the grid."""
    N = atom.grid.N
    if atom.kind == "alpha_one":
        return N
    return min(side_cells(atom.cube) + 2 * (N >> (atom.cube.level + 2)), N)


@pytest.mark.parametrize("target", ["tl", "h1"])
@pytest.mark.parametrize("d,N", [(1, 64), (2, 32), (3, 16)])
def test_blob_bytes_follow_box_rule(tmp_path, d, N, target):
    # each record is a header, d starts, d sides and a (side^d, n, n) block
    _, dec = _decompose(Grid(d, N), 50 + d, target)
    man, blob = tmp_path / "m.txt", tmp_path / "b.bin"
    write_decomposition(man, blob, dec)
    atoms = [atom for _, atom in dec.low_pairs + dec.high_pairs]
    sides = [s for _, _, s in _records(blob.read_bytes(), man.read_text(), d)]
    assert sides == [(_box_side(a),) * d for a in atoms]
    record = [_HEADER.size + 8 * d + 16 * dec.n**2 * _box_side(a) ** d for a in atoms]
    assert len(blob.read_bytes()) == sum(record)
    assert re.findall(r"^blob_offset = (\d+)$", man.read_text(), re.M) == \
        [str(sum(record[:k])) for k in range(len(record))]


def _write_2q(man_path, blob_path, dec):
    """Rewrite a decomposition with every Hardy and alpha_q atom stored on
    its doubled cube 2Q, as blobs were written before the projected-support
    cut; offsets follow suit."""
    atoms = []
    for c, atom in dec.high_pairs:
        origin, side = atom.cube.box(double=True)
        idx = box_indices(dec.grid, origin, (side,) * dec.grid.d)
        atoms.append((c, replace(atom, origin=origin, block=embed(atom)[np.ix_(*idx)])))
    write_decomposition(man_path, blob_path, replace(dec, high_pairs=atoms))


@pytest.mark.parametrize("target", ["tl", "h1"])
@pytest.mark.parametrize("d,N", [(1, 64), (2, 32), (3, 16)])
def test_blob_on_2q_boxes_still_rebuilds(tmp_path, d, N, target):
    _, dec = _decompose(Grid(d, N), 55 + d, target)
    man, blob = tmp_path / "m.txt", tmp_path / "b.bin"
    write_decomposition(man, blob, dec)
    new = read_decomposition_blob(blob, man)[0].data
    man2, blob2 = tmp_path / "m2.txt", tmp_path / "b2.bin"
    _write_2q(man2, blob2, dec)
    assert len(blob2.read_bytes()) > len(blob.read_bytes())
    old = read_decomposition_blob(blob2, man2)[0].data
    assert np.max(np.abs(old - new)) <= 1e-15 * np.max(np.abs(new))


# ---------------------------------------------------------------------------
# typed format errors
# ---------------------------------------------------------------------------

def _field_file(tmp_path):
    path = tmp_path / "f.ovtl"
    write_field(path, band_limited_random(Grid(1, 32), 2, 3))
    return path, path.read_bytes()


@pytest.mark.parametrize("corrupt", [
    lambda raw: raw[:10],                                  # truncated header
    lambda raw: b"NOPE" + raw[4:],                         # bad magic
    lambda raw: raw[:4] + struct.pack("<H", 7) + raw[6:],  # bad version
    lambda raw: raw[:-16],                                 # short payload
    lambda raw: raw[:6] + struct.pack("<I", 5) + raw[10:],   # no such dimension
    lambda raw: raw[:10] + struct.pack("<I", 48) + raw[14:],  # N not a power of two
    lambda raw: raw[:14] + struct.pack("<I", 0) + raw[18:],  # n = 0
    lambda raw: raw[:10] + struct.pack("<II", 16, 2**31) + raw[18:],  # N^d n^2 wraps in int64
    lambda raw: raw[:18] + struct.pack("<I", 2**32 - 1) + raw[22:],  # j_count far past the file
    lambda raw: raw[:10] + struct.pack("<I", 2**31) + raw[14:],  # N far past the file
    lambda raw: raw[:6] + struct.pack("<II", 3, 2**20) + raw[14:],  # byte count past 2^63
])
def test_read_field_format_errors(tmp_path, corrupt):
    path, raw = _field_file(tmp_path)
    path.write_bytes(corrupt(raw))
    with pytest.raises(FormatError):
        read_field(path)


@pytest.mark.parametrize("pos,value", [(18, 2**32 - 1), (10, 2**31), (14, 2**31)])
def test_read_field_claimed_size_not_allocated(tmp_path, pos, value):
    # j_count, N or n claims up to terabytes: the reader never asks for the
    # claimed size, so its allocations stay near the file's
    path, raw = _field_file(tmp_path)
    path.write_bytes(_patch(raw, pos, "<I", value))
    tracemalloc.start()
    try:
        # a claimed j_count is a strip field, rejected before any payload is read
        with pytest.raises(FormatError, match="plain field" if pos == 18 else "header needs"):
            read_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("cut", [0, 16], ids=["whole", "short"])
def test_read_field_from_a_pipe(tmp_path, cut):
    # a pipe has no size to check: it reads to its end, whole or short
    path, raw = _field_file(tmp_path)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(raw[:len(raw) - cut]), daemon=True)
    writer.start()
    try:
        if cut:
            with pytest.raises(FormatError, match="header needs"):
                read_field(fifo)
        else:
            assert np.array_equal(read_field(fifo).data, read_field(path).data)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_one_scale_strip_rejected(tmp_path):
    path = tmp_path / "F.ovtl"
    write_strip_file(path, random_strip(Grid(2, 16), 2, 1, 48))
    with pytest.raises(FormatError, match="j_count = 1: expected a plain field"):
        read_field(path)


@pytest.fixture
def blob_pair(tmp_path):
    _, dec = _decompose(Grid(1, 64), 47)
    man, blob = tmp_path / "m.txt", tmp_path / "b.bin"
    write_decomposition(man, blob, dec)
    return man, blob


def _patch(raw: bytes, pos: int, fmt: str, value) -> bytes:
    return raw[:pos] + struct.pack(fmt, value) + raw[pos + struct.calcsize(fmt):]


def _last_offset(man) -> int:
    return int(re.findall(r"^blob_offset = (\d+)$", man.read_text(), re.M)[-1])


def test_blob_offset_past_end(blob_pair):
    man, blob = blob_pair
    size = len(blob.read_bytes())
    man.write_text(re.sub(r"blob_offset = \d+$", f"blob_offset = {size}",
                          man.read_text(), count=1, flags=re.M))
    with pytest.raises(FormatError, match="past the end"):
        read_decomposition_blob(blob, man)


@pytest.mark.parametrize("key,value", [("n", "3"), ("N", "128")])
def test_blob_record_disagrees_with_manifest(blob_pair, key, value):
    man, blob = blob_pair
    man.write_text(re.sub(rf"^{key} = \d+$", f"{key} = {value}", man.read_text(),
                          count=1, flags=re.M))
    with pytest.raises(FormatError, match="the manifest"):
        read_decomposition_blob(blob, man)


@pytest.mark.parametrize("field,fmt,value,match", [
    (4, "<H", 3, "unsupported version"),      # version outside {1, 2}
    (_HEADER.size, "<I", 64, "outside N"),    # start >= N
    (_HEADER.size + 4, "<I", 65, "outside N"),  # side > N
])
def test_blob_record_header_errors(blob_pair, field, fmt, value, match):
    man, blob = blob_pair
    off = _last_offset(man)
    blob.write_bytes(_patch(blob.read_bytes(), off + field, fmt, value))
    with pytest.raises(FormatError, match=match):
        read_decomposition_blob(blob, man)


def test_blob_short_payload(blob_pair):
    man, blob = blob_pair
    blob.write_bytes(blob.read_bytes()[:-16])
    with pytest.raises(FormatError, match="payload"):
        read_decomposition_blob(blob, man)


def test_manifest_missing_entry(blob_pair):
    man, blob = blob_pair
    man.write_text(re.sub(r"^coefficient_re = .*\n", "", man.read_text(), count=1,
                          flags=re.M))
    with pytest.raises(FormatError):
        read_decomposition_blob(blob, man)


def test_manifest_bad_grid_names_path_once(blob_pair):
    man, blob = blob_pair
    man.write_text(re.sub(r"^d = \d+$", "d = 4", man.read_text(), count=1, flags=re.M))
    with pytest.raises(FormatError, match="dimension must be 1, 2 or 3, got 4") as info:
        read_decomposition_blob(blob, man)
    assert str(info.value).count(str(man)) == 1


@pytest.mark.parametrize("k", [-560, -1, 1, 520])
@pytest.mark.parametrize("target", ["tl", "h1"])
def test_decomposition_exactly_homogeneous(tmp_path, target, k):
    # 2^520 f once gave one atom and residual nan, and 1e-170 f an absolute
    # residual with no mass ratio: the decomposition of 2^k f has the same
    # atoms, bytes for bytes, and its coefficients (and mass) scaled by 2^k
    f = band_limited_random(Grid(1, 256), 2, 7)
    decs, manifests = [], []
    for tag, field in (("f", f), ("s", type(f)(f.grid, f.data * 2.0**k))):
        decs.append(smooth_decompose_tl(field, 0.5, 1, 0) if target == "tl"
                    else smooth_decompose_h1(field))
        write_decomposition(tmp_path / f"{tag}.txt", tmp_path / f"{tag}.bin", decs[-1])
        manifests.append((tmp_path / f"{tag}.txt").read_text(encoding="utf-8").splitlines())
    assert (tmp_path / "f.bin").read_bytes() == (tmp_path / "s.bin").read_bytes()
    want, got = decs
    assert [c * 2.0**k for c, _ in want.low_pairs + want.high_pairs] \
        == [c for c, _ in got.low_pairs + got.high_pairs]
    assert got.mass == want.mass * 2.0**k
    assert (got.residual, got.mass_ratio) == (want.residual, want.mass_ratio) and got.mass_ratio
    rescaled = ("mass", "coefficient_re", "coefficient_im")
    assert [a for a in manifests[0] if a.split(" = ")[0] not in rescaled] \
        == [b for b in manifests[1] if b.split(" = ")[0] not in rescaled]
