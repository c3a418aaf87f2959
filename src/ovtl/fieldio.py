"""Field file format, run configuration, and report serialization.

Field files: magic ``OVTL``, format version u16, then d, N, n, j_count as
little-endian u32 (j_count = 0 for plain fields), then complex128 entries
row-major: site index outer, matrix row-major inner, scale outermost for
strip fields.

Configs are structured text (key = value under [section] headers) and
round-trip losslessly through :func:`parse_config` / :func:`config_to_text`.
"""

from __future__ import annotations

import configparser
import io
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ConfigError
from .lattice import Grid
from .opfield import OperatorField, StripField

MAGIC = b"OVTL"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIIII")


def write_field(path: Union[str, Path], f: Union[OperatorField, StripField]) -> None:
    grid = f.grid
    j_count = 0 if isinstance(f, OperatorField) else f.j_max
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, grid.d, grid.N, f.n, j_count)
    data = np.ascontiguousarray(f.data, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes(order="C"))


def read_field(path: Union[str, Path]) -> Union[OperatorField, StripField]:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, d, N, n, j_count = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        grid = Grid(int(d), int(N))
        if j_count == 0:
            shape = grid.shape + (n, n)
        else:
            shape = (j_count,) + grid.shape + (n, n)
        count = int(np.prod(shape))
        body = np.frombuffer(fh.read(count * 16), dtype="<c16", count=count)
    data = body.reshape(shape).astype(np.complex128)
    if j_count == 0:
        return OperatorField(grid, data)
    return StripField(grid, data)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# [norms] kernel_mode values; normsuite.hardy_norm accepts the same modes
HARDY_MODES = ("lp", "poisson")


@dataclass
class Config:
    """Run configuration; sections mirror the module layout."""

    d: int = 1
    N: int = 256
    n: int = 2
    sigma: float | None = None  # default: d/2 + 1/2
    window: float | None = None  # default: N/4
    kappa_gamma: float = 2.0
    n_pow: int = 2
    alphas: tuple = (0.0, 0.5)
    ps: tuple = (1.0, 2.0)
    kernel_mode: str = "lp"
    K: int = 1
    L: int = 0
    size_margin: float = 1.0
    multiplier_margin: float = 100.0
    pointwise_margin: float = 10.0
    seed: int = 0
    trials: int = 10
    out_dir: str = "."

    def grid(self) -> Grid:
        return Grid(self.d, self.N)

    def sigma_value(self) -> float:
        return self.d / 2.0 + 0.5 if self.sigma is None else self.sigma


def config_to_text(cfg: Config) -> str:
    out = io.StringIO()
    out.write("[grid]\n")
    out.write(f"d = {cfg.d}\n")
    out.write(f"N = {cfg.N}\n")
    out.write("[algebra]\n")
    out.write(f"n = {cfg.n}\n")
    out.write("[spectral]\n")
    out.write(f"sigma = {'auto' if cfg.sigma is None else repr(cfg.sigma)}\n")
    out.write(f"window = {'auto' if cfg.window is None else repr(cfg.window)}\n")
    out.write(f"kappa_gamma = {cfg.kappa_gamma!r}\n")
    out.write(f"n_pow = {cfg.n_pow}\n")
    out.write("[norms]\n")
    out.write(f"alphas = {','.join(repr(a) for a in cfg.alphas)}\n")
    out.write(f"ps = {','.join(repr(p) for p in cfg.ps)}\n")
    out.write(f"kernel_mode = {cfg.kernel_mode}\n")
    out.write("[decomposition]\n")
    out.write(f"K = {cfg.K}\n")
    out.write(f"L = {cfg.L}\n")
    out.write(f"size_margin = {cfg.size_margin!r}\n")
    out.write(f"multiplier_margin = {cfg.multiplier_margin!r}\n")
    out.write(f"pointwise_margin = {cfg.pointwise_margin!r}\n")
    out.write("[run]\n")
    out.write(f"seed = {cfg.seed}\n")
    out.write(f"trials = {cfg.trials}\n")
    out.write(f"out = {cfg.out_dir}\n")
    return out.getvalue()


def parse_config(text: str) -> Config:
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    cfg = Config()
    if cp.has_section("grid"):
        cfg.d = cp.getint("grid", "d", fallback=cfg.d)
        cfg.N = cp.getint("grid", "N", fallback=cfg.N)
    if cp.has_section("algebra"):
        cfg.n = cp.getint("algebra", "n", fallback=cfg.n)
    if cp.has_section("spectral"):
        raw = cp.get("spectral", "sigma", fallback="auto")
        cfg.sigma = None if raw == "auto" else float(raw)
        raw = cp.get("spectral", "window", fallback="auto")
        cfg.window = None if raw == "auto" else float(raw)
        cfg.kappa_gamma = cp.getfloat("spectral", "kappa_gamma", fallback=cfg.kappa_gamma)
        cfg.n_pow = cp.getint("spectral", "n_pow", fallback=cfg.n_pow)
    if cp.has_section("norms"):
        raw = cp.get("norms", "alphas", fallback=None)
        if raw:
            cfg.alphas = tuple(float(x) for x in raw.split(","))
        raw = cp.get("norms", "ps", fallback=None)
        if raw:
            cfg.ps = tuple(float(x) for x in raw.split(","))
        cfg.kernel_mode = cp.get("norms", "kernel_mode", fallback=cfg.kernel_mode)
        if cfg.kernel_mode not in HARDY_MODES:
            raise ConfigError(f"[norms] kernel_mode must be one of {', '.join(HARDY_MODES)}, "
                              f"got {cfg.kernel_mode!r}")
    if cp.has_section("decomposition"):
        cfg.K = cp.getint("decomposition", "K", fallback=cfg.K)
        cfg.L = cp.getint("decomposition", "L", fallback=cfg.L)
        cfg.size_margin = cp.getfloat("decomposition", "size_margin", fallback=cfg.size_margin)
        cfg.multiplier_margin = cp.getfloat(
            "decomposition", "multiplier_margin", fallback=cfg.multiplier_margin
        )
        cfg.pointwise_margin = cp.getfloat(
            "decomposition", "pointwise_margin", fallback=cfg.pointwise_margin
        )
    if cp.has_section("run"):
        cfg.seed = cp.getint("run", "seed", fallback=cfg.seed)
        cfg.trials = cp.getint("run", "trials", fallback=cfg.trials)
        cfg.out_dir = cp.get("run", "out", fallback=cfg.out_dir)
    return cfg


def load_config(path: Union[str, Path]) -> Config:
    return parse_config(Path(path).read_text())


# ---------------------------------------------------------------------------
# decomposition manifest + blob
# ---------------------------------------------------------------------------

def write_decomposition(manifest_path: Union[str, Path], blob_path: Union[str, Path],
                        dec) -> None:
    """Write the manifest (structured text) and the data blob (field records).

    Each atom's data is stored as one field record in the blob; the manifest
    carries kind, cube, coefficient, validator slacks, and blob offsets.
    """
    from .atomics import validate_atom

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
    for tag, pairs in (("low", dec.low_pairs), ("high", dec.high_pairs)):
        for k, (coef, atom) in enumerate(pairs):
            rep = validate_atom(atom)
            kind = getattr(atom, "kind", "h_atom")
            cube = atom.cube
            lines.append(f"[atom.{tag}.{k}]")
            lines.append(f"kind = {kind}")
            lines.append(f"cube_level = {cube.level}")
            lines.append(f"cube_index = {','.join(str(i) for i in cube.index)}")
            lines.append(f"coefficient_re = {coef.real:.15e}")
            lines.append(f"coefficient_im = {coef.imag:.15e}")
            lines.append(f"valid = {rep.passed}")
            for c in rep.clauses:
                lines.append(f"slack.{c.name} = {c.slack:.6e}")
            lines.append(f"blob_offset = {offset}")
            data = atom.embed()
            records.append(data)
            offset += _HEADER.size + data.size * 16
    Path(manifest_path).write_text("\n".join(lines) + "\n")
    with open(blob_path, "wb") as fh:
        for data in records:
            fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, grid.d, grid.N,
                                  data.shape[-1], 0))
            fh.write(np.ascontiguousarray(data, dtype="<c16").tobytes(order="C"))


def read_decomposition_blob(blob_path: Union[str, Path], manifest_path: Union[str, Path]):
    """Reconstruct the field encoded by a manifest + blob: sum coef * atom."""
    text = Path(manifest_path).read_text()
    meta = {}
    atoms = []
    current = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("["):
            current = line.strip("[]")
            if current.startswith("atom."):
                atoms.append({})
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if current == "decomposition":
            meta[key] = val
        elif current and current.startswith("atom."):
            atoms[-1][key] = val
    grid = Grid(int(meta["d"]), int(meta["N"]))
    n = int(meta["n"])
    total = np.zeros(grid.shape + (n, n), dtype=np.complex128)
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    for a in atoms:
        off = int(a["blob_offset"])
        magic, version, d, N, nn, j_count = _HEADER.unpack_from(blob, off)
        if magic != MAGIC:
            raise ValueError("blob record corrupted")
        count = N**d * nn * nn
        start = off + _HEADER.size
        data = np.frombuffer(blob, dtype="<c16", count=count, offset=start)
        data = data.reshape(grid.shape + (nn, nn))
        coef = float(a["coefficient_re"]) + 1j * float(a["coefficient_im"])
        total += coef * data
    return OperatorField(grid, total), meta, atoms
