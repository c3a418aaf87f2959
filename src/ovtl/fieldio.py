"""Field file format, run configuration, and report serialization.

Field files: magic ``OVTL``, format version u16, then d, N, n, j_count as
little-endian u32, then complex128 entries row-major: site index outer,
matrix row-major inner.  Only plain fields are written and read: j_count is
0, and a file with scales (a strip field) is a FormatError.

Decomposition blobs are a sequence of atom records at the byte offsets the
manifest lists.  A record is the field header with j_count = 0 and version
2, then d u32 starts and d u32 sides, then the complex128 block (sides...,
n, n) row-major: the atom on the periodic box of lattice points from index
start to start + side - 1 (mod N) per axis (start < N, 1 <= side <= N).
Hardy and alpha_q atoms are stored on their cube grown by the reach of
their level's kernel (the whole grid once that box covers it), the low
alpha_one atom on the whole grid.  Any box is read, so blobs that store
atoms on their doubled cubes 2Q still rebuild.  Version 1 records, still
read, hold the atom on the whole grid with no box fields.

Configs are structured text (key = value under [section] headers) and
round-trip losslessly through :func:`parse_config` / :func:`config_to_text`,
both driven by one table, ``_CONFIG_KEYS``, that states each key once with
its section, parser and writer.  Keys are case-sensitive, and an unknown
section or key, a malformed value and a line outside any [section] are
each a ConfigError.
"""

from __future__ import annotations

import configparser
import math
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .atomics import validate_atoms
from .errors import ConfigError, FormatError
from .lattice import Grid, periodic_block_sum
from .normsuite import HARDY_MODES
from .opfield import OperatorField

MAGIC = b"OVTL"
FORMAT_VERSION = 1
BLOB_VERSION = 2
_HEADER = struct.Struct("<4sHIIII")


def write_field(path: Union[str, Path], f: OperatorField) -> None:
    grid = f.grid
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, grid.d, grid.N, f.n, 0)
    data = np.ascontiguousarray(f.data, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes(order="C"))


def read_field(path: Union[str, Path]) -> OperatorField:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, d, N, n, j_count = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        grid = _header_grid(path, d, N)
        if n < 1:
            raise FormatError(f"{path}: matrix dimension n = {n} must be >= 1")
        if j_count != 0:
            raise FormatError(f"{path}: j_count = {j_count}: expected a plain field (j_count = 0)")
        shape = grid.shape + (n, n)
        count = math.prod(shape)  # exact: a crafted header cannot wrap it
        # a header claiming more than the file holds (or a pipe, of size 0) reads to the end
        payload = fh.read(count * 16 if count * 16 <= os.fstat(fh.fileno()).st_size else -1)
    if len(payload) < count * 16:
        raise FormatError(f"{path}: payload holds {len(payload)} bytes, "
                          f"header needs {count * 16}")
    # the read is the payload's one copy: OperatorField keeps this '<c16' view
    return OperatorField(grid, np.frombuffer(payload, dtype="<c16", count=count).reshape(shape))


def _header_grid(path, d: int, N: int) -> Grid:
    try:
        return Grid(int(d), int(N))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class Config:
    """Run configuration; sections mirror the module layout."""

    d: int = 1
    N: int = 256
    n: int = 2
    sigma: float | None = None  # default: d/2 + 1/2
    alphas: tuple = (0.0, 0.5)
    ps: tuple = (1.0, 2.0)
    kernel_mode: str = "lp"
    K: int = 1
    L: int = 0
    multiplier_margin: float = 100.0
    seed: int = 0
    trials: int = 10

    def grid(self) -> Grid:
        return Grid(self.d, self.N)

    def sigma_value(self) -> float:
        return self.d / 2.0 + 0.5 if self.sigma is None else self.sigma


def _floats(raw: str) -> tuple:
    return tuple(float(x) for x in raw.split(","))


def _sigma(raw: str) -> Optional[float]:
    return None if raw == "auto" else float(raw)


def _kernel_mode(raw: str) -> str:
    if raw not in HARDY_MODES:
        raise ValueError(f"must be one of {', '.join(HARDY_MODES)}")
    return raw


def _floats_text(values: tuple) -> str:
    return ",".join(repr(x) for x in values)


# (section, key, parse, format) of every config key, in file order; each key
# is spelled as the Config attribute it sets (case matters)
_CONFIG_KEYS = (
    ("grid", "d", int, str),
    ("grid", "N", int, str),
    ("algebra", "n", int, str),
    ("spectral", "sigma", _sigma, lambda sigma: "auto" if sigma is None else repr(sigma)),
    ("norms", "alphas", _floats, _floats_text),
    ("norms", "ps", _floats, _floats_text),
    ("norms", "kernel_mode", _kernel_mode, str),
    ("decomposition", "K", int, str),
    ("decomposition", "L", int, str),
    ("decomposition", "multiplier_margin", float, repr),
    ("run", "seed", int, str),
    ("run", "trials", int, str),
)


def config_to_text(cfg: Config) -> str:
    lines, section = [], None
    for sec, key, _, fmt in _CONFIG_KEYS:
        if sec != section:
            lines.append(f"[{sec}]")
            section = sec
        lines.append(f"{key} = {fmt(getattr(cfg, key))}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> Config:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(f"config line {exc.lineno} comes before any [section] header: "
                          f"{exc.line.strip()!r}") from None
    except configparser.Error as exc:
        raise ConfigError("malformed config: " + " ".join(str(exc).split())) from None
    if cp.defaults():
        raise ConfigError(f"unknown config section [{cp.default_section}]")
    parsers = {(section, key): parse for section, key, parse, _ in _CONFIG_KEYS}
    cfg = Config()
    for section in cp.sections():
        if section not in {sec for sec, _ in parsers}:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in cp.items(section):
            if (section, key) not in parsers:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
            try:
                setattr(cfg, key, parsers[section, key](raw))
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r} is malformed: {exc}") from None
    return cfg


def _read_utf8(path: Union[str, Path], error: type) -> str:
    """The text of ``path``; bytes that are not UTF-8 raise ``error`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


def load_config(path: Union[str, Path]) -> Config:
    return parse_config(_read_utf8(path, ConfigError))


# ---------------------------------------------------------------------------
# decomposition manifest + blob
# ---------------------------------------------------------------------------

def write_decomposition(manifest_path: Union[str, Path], blob_path: Union[str, Path],
                        dec) -> None:
    """Write the manifest (structured text) and the data blob (atom records).

    Each atom's block is stored as one version-2 record in the blob; the
    manifest carries kind, cube, coefficient, validator slacks (from one
    batched validation of every atom), and blob offsets.
    """
    grid = dec.grid
    lines = ["[decomposition]"]
    lines.append(f"d = {grid.d}")
    lines.append(f"N = {grid.N}")
    lines.append(f"n = {dec.n}")
    lines.append(f"alpha = {'none' if dec.alpha is None else repr(dec.alpha)}")
    lines.append(f"atoms = {len(dec.low_pairs) + len(dec.high_pairs)}")
    lines.append(f"residual = {dec.residual:.15e}")
    lines.append(f"mass = {dec.mass:.15e}")
    if dec.mass_ratio is not None:
        lines.append(f"mass_ratio = {dec.mass_ratio:.15e}")
    offset = 0
    records = []
    reports = iter(validate_atoms([atom for _, atom in dec.low_pairs + dec.high_pairs]))
    for tag, pairs in (("low", dec.low_pairs), ("high", dec.high_pairs)):
        for k, (coef, atom) in enumerate(pairs):
            rep = next(reports)
            cube = atom.cube
            lines.append(f"[atom.{tag}.{k}]")
            lines.append(f"kind = {atom.kind}")
            lines.append(f"cube_level = {cube.level}")
            lines.append(f"cube_index = {','.join(str(i) for i in cube.index)}")
            lines.append(f"coefficient_re = {coef.real:.15e}")
            lines.append(f"coefficient_im = {coef.imag:.15e}")
            lines.append(f"valid = {rep.passed}")
            for c in rep.clauses:
                lines.append(f"slack.{c.name} = {c.slack:.6e}")
            lines.append(f"blob_offset = {offset}")
            records.append(atom)
            offset += _HEADER.size + 8 * grid.d + atom.block.size * 16
    Path(manifest_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    with open(blob_path, "wb") as fh:
        for atom in records:
            fh.write(_HEADER.pack(MAGIC, BLOB_VERSION, grid.d, grid.N, atom.n, 0))
            fh.write(struct.pack(f"<{2 * grid.d}I", *atom.origin,
                                 *atom.block.shape[:grid.d]))
            fh.write(np.ascontiguousarray(atom.block, dtype="<c16").tobytes(order="C"))


# one pass over the manifest: "[section]" headers and "key = value" entries
_MANIFEST_LINE = re.compile(r"^(?:\[(.*)\]|([^ \n]+) = (.*))$", re.M)


def _parse_manifest(text: str) -> tuple[dict, list]:
    """([decomposition] entries, one entry dict per [atom.*] section)."""
    meta, atoms, section = {}, [], None
    for head, key, val in _MANIFEST_LINE.findall(text):
        if key:
            if section is not None:
                section[key] = val
        elif head == "decomposition":
            section = meta
        elif head.startswith("atom."):
            section = {}
            atoms.append(section)
        else:
            section = None
    return meta, atoms


def _read_record(blob: bytes, off: int, grid: Grid, n: int, path) -> tuple:
    """(origin, block) of the atom record at byte ``off``, checked against
    the manifest grid and matrix size."""
    end = off + _HEADER.size
    if off < 0 or end > len(blob):
        raise FormatError(f"{path}: record offset {off} past the end ({len(blob)} bytes)")
    magic, version, d, N, nn, j_count = _HEADER.unpack_from(blob, off)
    if magic != MAGIC:
        raise FormatError(f"{path}: record at {off} has bad magic {magic!r}")
    if (d, N, nn, j_count) != (grid.d, grid.N, n, 0):
        raise FormatError(f"{path}: record at {off} has (d, N, n, j_count) = "
                          f"{(d, N, nn, j_count)}, the manifest {(grid.d, grid.N, n, 0)}")
    if version == 1:
        origin, sides = (0,) * d, (N,) * d
    elif version == 2:
        if end + 8 * d > len(blob):
            raise FormatError(f"{path}: record at {off} is truncated in its box fields")
        box = struct.unpack_from(f"<{2 * d}I", blob, end)
        origin, sides = box[:d], box[d:]
        if max(origin) >= N or not all(1 <= side <= N for side in sides):
            raise FormatError(f"{path}: record at {off} has box starts {origin} "
                              f"and sides {sides} outside N = {N} "
                              f"(starts 0..{N - 1}, sides 1..{N})")
        end += 8 * d
    else:
        raise FormatError(f"{path}: record at {off} has unsupported version {version}")
    count = math.prod(sides) * n * n
    if end + 16 * count > len(blob):
        raise FormatError(f"{path}: record at {off} needs {16 * count} payload bytes, "
                          f"{len(blob) - end} remain")
    block = np.frombuffer(blob, dtype="<c16", count=count, offset=end)
    return origin, block.reshape(tuple(sides) + (n, n))


def read_decomposition_blob(blob_path: Union[str, Path], manifest_path: Union[str, Path]):
    """Reconstruct the field encoded by a manifest + blob: sum coef * atom.

    Returns (field, [decomposition] entries, per-atom entries).  A manifest
    without the entries needed, or a record that does not fit the blob or
    the manifest grid, raises FormatError.
    """
    meta, atoms = _parse_manifest(_read_utf8(manifest_path, FormatError))
    try:
        grid = _header_grid(manifest_path, meta["d"], meta["N"])
        n = int(meta["n"])
        entries = [(int(a["blob_offset"]),
                    float(a["coefficient_re"]) + 1j * float(a["coefficient_im"]))
                   for a in atoms]
    except FormatError:  # already names the manifest
        raise
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{manifest_path}: missing or malformed entry {exc}") from None
    blob = Path(blob_path).read_bytes()
    terms = [(coef,) + _read_record(blob, off, grid, n, blob_path) for off, coef in entries]
    return OperatorField(grid, periodic_block_sum(grid, terms, (n, n))), meta, atoms
