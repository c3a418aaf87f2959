"""Square functions: one engine for sum_j w_j |m_j * f|^2, radial or conic.

The Littlewood-Paley g-function, the conic (Lusin) area function and the
tent functional are the same sum in different geometries.  A square
function is described by a *level list* ``[(j, weight, symbol_values)]``;
:func:`lp_levels` and :func:`poisson_levels` build the two kernel kinds, and
truncating the sum is slicing the list.  :func:`filtered` turns a level
list and a shared transform ``fhat = fft_data(f.data, grid)`` into the terms
``(j, weight, m_j * f)``, one inverse FFT per level, one level live at a
time.  :func:`square_accumulator` adds the terms up: radially
(weight * g* g) or, given a cone, ball-averaged over B_j at weight
weight * 2^{jd} h^d for j >= 1 (j = 0 stays radial).  The tent functional
feeds the strip levels ``(j, log 2, F(., 2^-j))`` to the same accumulator.

Continuous scale integrals are rendered with the dyadic midpoint rule

    int_0^1 F(eps) d(eps)/eps  ->  log 2 * sum_j F(2^-j),

matching the discrete characterizations; the cone aperture is fixed at 1.
Accumulation order is the order of the terms, with lexicographic offsets
inside each ball, so results are deterministic.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import GridMismatchError
from .lattice import ConeIndex, Grid, cone_index
from .opfield import OperatorField, PSDAccumulator, StripField, gram, herm
from .spectral import LPFamily, apply_symbol_hat, poisson_dk_symbol

LOG2 = math.log(2.0)


def lp_levels(family: LPFamily, alpha: float) -> list:
    """Levels (j, 4^{j alpha}, phi^(j)) of the LP square function, j = 0 .. j_max."""
    return [(j, 4.0 ** (j * alpha), family.values(j)) for j in range(family.j_max + 1)]


def poisson_levels(grid: Grid, j_max: int, k: int, alpha: float) -> list:
    """Levels of the Poisson square function, j = 1 .. j_max: the k-th
    eps-derivative of the semigroup at eps = 2^-j, weighted by the quadrature
    log 2 * 2^{-2j(k - alpha)} of int eps^{2(k - alpha)} |...|^2 d(eps)/eps."""
    return [(j, LOG2 * 2.0 ** (-2.0 * j * (k - alpha)), poisson_dk_symbol(grid, 2.0**-j, k).values)
            for j in range(1, j_max + 1)]


def filtered(fhat: np.ndarray, grid: Grid, levels: Iterable) -> Iterator[tuple]:
    """Yield (j, weight, m_j * f) for each level, given ``fhat = fft_data(f.data, grid)``.

    Each level costs one inverse FFT of the shared transform.
    """
    for j, weight, values in levels:
        if values.shape != grid.shape:
            raise GridMismatchError("level symbol grid does not match field grid")
        yield j, weight, apply_symbol_hat(values, fhat, grid)


def _ball_indicator_fft(grid: Grid, offsets: np.ndarray) -> np.ndarray:
    ind = np.zeros(grid.shape)
    ind[tuple((offsets % grid.N).T)] = 1.0
    return np.conj(np.fft.fftn(ind))


def ball_average(P: np.ndarray, ind_fft: np.ndarray, grid: Grid) -> np.ndarray:
    """Circular correlation sum_{t in B} P(s + t) per matrix entry."""
    coef = np.fft.fftn(P, axes=grid.spatial_axes)
    coef *= ind_fft[..., None, None]
    out = np.fft.ifftn(coef, axes=grid.spatial_axes)
    return out


def square_accumulator(grid: Grid, n: int, terms: Iterable,
                       cone: Optional[ConeIndex] = None) -> PSDAccumulator:
    """PSD accumulator of the terms (j, weight, g).

    Without a cone: sum weight * g(s)* g(s).  With a cone, each j >= 1 adds
    weight * 2^{jd} h^d sum_{t in B_j} g(s+t)* g(s+t), the j = 0 term stays
    radial (B_0 would exceed the torus), and the sum is symmetrized once,
    since the ball correlation is Hermitian only up to FFT round-off.
    """
    if cone is not None and cone.grid != grid:
        raise GridMismatchError("cone index grid does not match field grid")
    acc = PSDAccumulator(grid, n)
    for j, weight, g in terms:
        if cone is None or j == 0:
            acc.add_gram(g, weight)
            continue
        if j > cone.j_max:
            raise GridMismatchError(f"scale {j} lies beyond the cone, which covers {cone.j_max}")
        avg = ball_average(gram(g), _ball_indicator_fft(grid, cone.offsets[j]), grid)
        acc.add_psd(avg, weight * 2.0 ** (j * grid.d) * grid.cell_volume)
    if cone is not None:
        acc.S += herm(acc.S)
        acc.S *= 0.5
    return acc


def strip_levels(F: StripField) -> Iterator[tuple]:
    """Terms (j, log 2, F(., 2^-j)) of the tent functional, j = 1 .. j_max."""
    return ((j, LOG2, F.level(j)) for j in range(1, F.j_max + 1))


def tent_functional(F: StripField, cone: Optional[ConeIndex] = None) -> OperatorField:
    """Tent functional A^c(F) (PSD-root field), with
    A^c(F)^2 = sum_j log2 2^{jd} sum_{t in B_j} h^d |F(s+t, 2^-j)|^2."""
    cone = cone_index(F.grid, F.j_max) if cone is None else cone
    return square_accumulator(F.grid, F.n, strip_levels(F), cone).sqrt()
