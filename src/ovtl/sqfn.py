"""Square functions: one engine for sum_j w_j |m_j * f|^2, radial or conic.

The Littlewood-Paley g-function, the conic (Lusin) area function and the
tent-space square function are the same sum in different geometries.  A square
function is described by a *level list* ``[(j, weight, symbol)]`` of
:class:`~ovtl.spectral.Symbol` levels;
:func:`lp_levels` and :func:`poisson_levels` build the two kernel kinds, and
truncating the sum is slicing the list.  The engine runs on planes
(n, n, *grid.shape) (:mod:`ovtl.opfield`): its caller copies a field to
planes once and transforms them in place, ``fhat =
fft_planes(to_planes(f.data), grid)`` (``normsuite._scaled_transform``, and
``fmult`` for each certificate trial spectrum), and every level, Gram and
root from there on reads and writes contiguous planes.
:func:`filtered` turns a level list and the shared transform into the terms
``(j, weight, m_j * f)``, one inverse transform per level into a fresh
planar array; a level whose symbol carries a ``band`` (an LP member, a
certificate level; box |k_i| <= N/4 at d >= 2) transforms only the lines
its band reaches, any other level takes one ``ifftn``.
:func:`square_accumulator` adds the terms up: radially (weight * g* g) or,
given a cone, ball-averaged over B_j at weight weight * 2^{jd} h^d for
j >= 1 (j = 0 stays radial), the ball correlations summed in Fourier space
and inverted once.  :func:`square_norm` is the
trace-L_p norm of the root: at p = 2 a Plancherel sum over ``fhat`` alone,
otherwise ``psd_root_norm`` of the accumulator.  The tent-space norm
feeds the strip levels ``(j, log 2, F(., 2^-j))``, copied to planes one at a
time, to the same accumulator.

Continuous scale integrals are rendered with the dyadic midpoint rule

    int_0^1 F(eps) d(eps)/eps  ->  log 2 * sum_j F(2^-j),

matching the discrete characterizations; the cone aperture is fixed at 1.
Accumulation order is the order of the terms, with lexicographic offsets
inside each ball, so results are deterministic.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import GridMismatchError, ParameterError
from .lattice import ConeIndex, Grid
from .opfield import (
    PSDAccumulator,
    StripField,
    as_blocks,
    gram,
    psd_root_norm,
    to_planes,
)
from .spectral import LPFamily, Symbol, fft_planes, filter_planes, ifft_planes, poisson_dk_symbol

LOG2 = math.log(2.0)


def level_weight(j: int, alpha: float) -> float:
    """The weight 4^{j alpha} of scale j.  ParameterError once j alpha > 500,
    so every weight stays below 2^1000 and a weighted square sum keeps
    headroom below the float64 overflow at 2^1024."""
    if j * alpha > 500:
        raise ParameterError(f"alpha = {alpha} puts the weight 4^(j alpha) of scale {j} "
                             f"past 2^1000")
    return 4.0 ** (j * alpha)


def lp_levels(family: LPFamily, alpha: float) -> list:
    """Levels (j, 4^{j alpha}, phi^(j)) of the LP square function, j = j_min .. j_max."""
    return [(j, level_weight(j, alpha), family.member(j)) for j in family.scales()]


def poisson_levels(grid: Grid, j_max: int, alpha: float) -> list:
    """Levels of the Poisson square function, j = 1 .. j_max: the first
    eps-derivative of the semigroup at eps = 2^-j, weighted by the quadrature
    log 2 * 2^{-2j(1 - alpha)} of int eps^{2(1 - alpha)} |...|^2 d(eps)/eps."""
    return [(j, LOG2 * 2.0 ** (-2.0 * j * (1 - alpha)), poisson_dk_symbol(grid, 2.0**-j, 1))
            for j in range(1, j_max + 1)]


def filtered(fhat: np.ndarray, grid: Grid, levels: Iterable) -> Iterator[tuple]:
    """Yield (j, weight, m_j * f) as planes for each level, given the planes
    ``fhat = fft_planes(to_planes(f.data), grid)``.

    Each level costs one inverse transform of the shared transform, pruned
    to the lines its band reaches (:func:`~ovtl.spectral.filter_planes`),
    into a fresh array, so a Gram queued on it
    (:meth:`~ovtl.opfield.PSDAccumulator.add_gram`) may read it for as long
    as it runs.
    """
    for j, weight, sym in levels:
        _check_level(sym, grid)
        yield j, weight, filter_planes(sym, fhat, grid)


def _check_level(sym: Symbol, grid: Grid) -> None:
    if sym.grid != grid:
        raise GridMismatchError("level symbol grid does not match field grid")


def _conic_factor(cone: ConeIndex, j: int) -> float:
    """The factor 2^{jd} h^d of a ball-averaged level j >= 1."""
    if j > cone.j_max:
        raise GridMismatchError(f"scale {j} lies beyond the cone, which covers {cone.j_max}")
    return 2.0 ** (j * cone.grid.d) * cone.grid.cell_volume


def _check_cone(cone: Optional[ConeIndex], grid: Grid) -> None:
    if cone is not None and cone.grid != grid:
        raise GridMismatchError("cone index grid does not match field grid")


def square_accumulator(grid: Grid, n: int, terms: Iterable,
                       cone: Optional[ConeIndex] = None) -> PSDAccumulator:
    """PSD accumulator of the terms (j, weight, g), g as planes.

    Without a cone: sum weight * g(s)* g(s).  With a cone, each j >= 1 adds
    weight * 2^{jd} h^d sum_{t in B_j} g(s+t)* g(s+t) and the j = 0 term
    stays radial (B_0 would exceed the torus).  The ball correlations are
    summed in Fourier space, sum_j c_j FFT(g_j* g_j) conj(FFT(1_{B_j})),
    and inverted once; the sum is symmetrized once, since it is Hermitian
    only up to FFT round-off.
    """
    _check_cone(cone, grid)
    acc = PSDAccumulator(grid, n)
    conic_hat = None
    for j, weight, g in terms:
        if cone is None or j == 0:
            acc.add_gram(g, weight)
            continue
        term = np.empty(g.shape, dtype=np.complex128)
        gram(as_blocks(g), as_blocks(term))
        term = fft_planes(term, grid)
        term *= weight * _conic_factor(cone, j) * cone.ball_fft(j)
        if conic_hat is None:
            conic_hat = term
        else:
            conic_hat += term
    if conic_hat is not None:
        acc.add_psd(ifft_planes(conic_hat, grid))
    if cone is not None:
        S = acc.planes
        S += np.conj(S.swapaxes(0, 1))
        S *= 0.5
    return acc


def square_norm(fhat: np.ndarray, grid: Grid, levels: Sequence, p: float,
                cone: Optional[ConeIndex] = None) -> float:
    """Trace-L_p norm of (sum_j w_j |m_j * f|^2)^(1/2), radial or with a
    cone, given the planes ``fhat = fft_planes(to_planes(f.data), grid)``.

    At p = 2 this is Plancherel: ||S^(1/2)||_2^2 = h^d sum_s tr S(s)
    = h^d N^-d sum_xi W(xi) ||fhat(xi)||_HS^2 with W = sum_j c_j w_j |m_j|^2,
    where c_j = |B_j| 2^{jd} h^d on a ball-averaged level (the correlation
    with B_j multiplies the spatial sum by |B_j|) and 1 otherwise; no
    inverse FFT, Gram or eigenvalue is computed.  Any other p takes
    :func:`psd_root_norm` of :func:`square_accumulator`.
    """
    n = fhat.shape[0]
    if p != 2:
        acc = square_accumulator(grid, n, filtered(fhat, grid, levels), cone)
        return psd_root_norm(acc.planes, p, grid.cell_volume)
    _check_cone(cone, grid)
    W = np.zeros(grid.shape)
    for j, weight, sym in levels:
        _check_level(sym, grid)
        c = 1.0 if cone is None or j == 0 else _conic_factor(cone, j) * len(cone.offsets[j])
        W += (c * weight) * np.abs(sym.values) ** 2
    x = np.ascontiguousarray(as_blocks(fhat))
    hs = np.sum(x.real**2 + x.imag**2, axis=(-2, -1))
    return math.sqrt(float(np.sum(W * hs)) * grid.cell_volume / grid.N**grid.d)


def strip_levels(F: StripField, scale: float) -> Iterator[tuple]:
    """Terms (j, log 2, planes of scale * F(., 2^-j)) of the tent-space square
    function, j = 1 .. j_max."""
    return ((j, LOG2, to_planes(F.level(j), scale)) for j in range(1, F.j_max + 1))
