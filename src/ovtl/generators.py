"""Deterministic field generators.

All randomness flows from a 64-bit seed through the counter-based Philox
engine, so parallel trials reproduce independent of scheduling; trial k of a
batch uses seed ``base_seed + k``.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .lattice import DyadicCube, Grid
from .opfield import OperatorField
from .spectral import ifft_data, lp_family_j_max


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def single_mode(grid: Grid, n: int, k: tuple[int, ...],
                matrix: np.ndarray | None = None) -> OperatorField:
    """f(s) = e^{2 pi i k.s} A; defaults to A = E11."""
    if matrix is None:
        matrix = np.zeros((n, n), dtype=complex)
        matrix[0, 0] = 1.0
    phase = np.zeros(grid.shape)
    for ax, kk in enumerate(k):
        sh = [1] * grid.d
        sh[ax] = grid.N
        phase = phase + kk * (np.arange(grid.N) * grid.h).reshape(sh)
    wave = np.exp(2j * np.pi * phase)
    return OperatorField(grid, wave[..., None, None] * np.asarray(matrix, dtype=complex))


def band_limited_spectrum(grid: Grid, n: int, seed: int, r_min: float = 0.0,
                          r_max: float | None = None) -> np.ndarray:
    """Spectrum of :func:`band_limited_random` in the unnormalized convention
    of ``fft_data``: N^d times i.i.d. complex Gaussian matrix coefficients c
    on the annulus r_min <= |xi| <= r_max, exactly 0 elsewhere.  Its
    ``ifft_data`` is the field; N^d is a power of two, so the scaling is exact.

    Default r_max is 2^j_max(N), the LP-covered radius.  An annulus that
    holds no lattice frequency is a ParameterError.
    """
    rng = rng_for(seed)
    if r_max is None:
        r_max = float(2 ** lp_family_j_max(grid))
    mask = (grid.freq_norm >= r_min) & (grid.freq_norm <= r_max)
    count = int(mask.sum())
    if count == 0:
        raise ParameterError(f"band {r_min:g} <= |xi| <= {r_max:g} holds no lattice frequency "
                             f"(N = {grid.N})")
    coefs = np.zeros(grid.shape + (n, n), dtype=np.complex128)
    block = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    coefs[mask] = block / np.sqrt(2.0 * count) * float(grid.N**grid.d)
    return coefs


def band_limited_random(grid: Grid, n: int, seed: int, r_min: float = 0.0,
                        r_max: float | None = None) -> OperatorField:
    """The inverse transform of :func:`band_limited_spectrum` on the lattice."""
    if r_max is None:
        r_max = float(2 ** lp_family_j_max(grid))
    band = int(r_max) if 0 <= r_max < grid.N else None  # |k_i| <= |xi| <= r_max
    return OperatorField(grid, ifft_data(band_limited_spectrum(grid, n, seed, r_min, r_max),
                                         grid, band))


def bump(grid: Grid, n: int, width: float = 0.08, seed: int | None = None) -> OperatorField:
    """Smooth periodic Gaussian bump about the center of the unit cube times
    the identity matrix, or a random one when ``seed`` is given."""
    if seed is not None:
        rng = rng_for(seed)
        matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    else:
        matrix = np.eye(n, dtype=complex)
    delta = grid.signed_coords_about(np.full(grid.d, 0.5))
    r_sq = np.sum(delta**2, axis=-1)
    prof = np.exp(-r_sq / (2.0 * width**2))
    return OperatorField(grid, prof[..., None, None] * matrix)


def haar(grid: Grid, n: int) -> OperatorField:
    """Haar-type step on the first dyadic cube Q at level 1: +/- |Q|^{-1/2}
    on the two halves split along axis 0, times E11. Mean-zero over Q."""
    matrix = np.zeros((n, n), dtype=complex)
    matrix[0, 0] = 1.0
    cube = DyadicCube(grid, 1, (0,) * grid.d)
    mask = cube.mask()
    amp = cube.volume ** -0.5
    start, side = cube.box()
    upper = (np.arange(grid.N) - start[0]) % grid.N >= side // 2
    sh = [1] * grid.d
    sh[0] = grid.N
    sign = np.where(upper.reshape(sh), 1.0, -1.0)
    prof = np.where(mask, sign * amp, 0.0)
    return OperatorField(grid, prof[..., None, None] * matrix)
