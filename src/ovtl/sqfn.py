"""Square functions: radial g-functions, conic (Lusin) functions over the
truncated cone, and the tent functional on the dyadic strip.

Continuous scale integrals are rendered with the dyadic midpoint rule

    int_0^1 F(eps) d(eps)/eps  ->  log 2 * sum_j F(2^-j),

matching the discrete characterizations; the cone aperture is fixed at 1.
Accumulation order is ascending j with lexicographic offsets, so results
are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import GridMismatchError
from .lattice import ConeIndex, Grid, cone_index
from .opfield import OperatorField, PSDAccumulator, StripField, gram
from .spectral import LPFamily, Symbol, apply_symbol_hat, fft_data, poisson_dk_symbol

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class SquareFunctionSpec:
    """Parameters of a Littlewood-Paley / general-kernel / Poisson square function.

    kernel_kind: "lp" uses ``family``; "phi" uses the explicit ``level_symbols``
    (j = 1 .. j_max) plus optional ``zero_symbol``; "poisson" uses the
    ``poisson_k``-th derivative of the Poisson semigroup at scales 2^-j.
    ``alpha`` is the smoothness weight exponent; ``include_zero_term`` appends
    the j = 0 (low-frequency) term to radial accumulations.
    """

    kernel_kind: str
    alpha: float = 0.0
    include_zero_term: bool = True
    family: Optional[LPFamily] = None
    level_symbols: Optional[tuple[Symbol, ...]] = None
    zero_symbol: Optional[Symbol] = None
    poisson_k: int = 1
    j_max: Optional[int] = None

    def __post_init__(self):
        if self.kernel_kind not in ("lp", "phi", "poisson"):
            raise ValueError(f"unknown kernel kind {self.kernel_kind!r}")
        if self.kernel_kind == "lp" and self.family is None:
            raise ValueError("lp spec requires a family")
        if self.kernel_kind == "phi" and not self.level_symbols:
            raise ValueError("phi spec requires level symbols")

    def scales(self) -> range:
        if self.kernel_kind == "lp":
            top = self.family.j_max if self.j_max is None else min(self.j_max, self.family.j_max)
        elif self.kernel_kind == "phi":
            top = len(self.level_symbols) if self.j_max is None else min(self.j_max, len(self.level_symbols))
        else:
            if self.j_max is None:
                raise ValueError("poisson spec requires explicit j_max")
            top = self.j_max
        return range(1, top + 1)

    def level_values(self, grid: Grid, j: int) -> np.ndarray:
        if self.kernel_kind == "lp":
            return self.family.values(j)
        if self.kernel_kind == "phi":
            return self.level_symbols[j - 1].values
        return poisson_dk_symbol(grid, 2.0**-j, self.poisson_k).values

    def zero_values(self, grid: Grid) -> Optional[np.ndarray]:
        if not self.include_zero_term:
            return None
        if self.kernel_kind == "lp":
            return self.family.values(0)
        if self.kernel_kind == "phi":
            return None if self.zero_symbol is None else self.zero_symbol.values
        # Poisson mode: low term is the semigroup at eps = 1
        return np.exp(-2.0 * math.pi * grid.freq_norm).astype(np.complex128)

    def radial_weight(self, j: int) -> float:
        """Weight multiplying |level_j * f|^2 in radial accumulation."""
        if self.kernel_kind in ("lp", "phi"):
            return 4.0 ** (j * self.alpha)
        # quadrature of int eps^{2(k-alpha)} |...|^2 d(eps)/eps at eps = 2^-j
        return LOG2 * 2.0 ** (-2.0 * j * (self.poisson_k - self.alpha))

    def conic_weight(self, j: int, d: int) -> float:
        """Weight multiplying the ball sum of |level_j * f|^2 at scale j.

        The per-offset cell volume h^d is applied separately.
        """
        if self.kernel_kind in ("lp", "phi"):
            return 2.0 ** (j * (2.0 * self.alpha + d))
        return LOG2 * 2.0 ** (j * d) * 2.0 ** (-2.0 * j * (self.poisson_k - self.alpha))


def _check_spec_grid(spec: SquareFunctionSpec, grid: Grid) -> None:
    if spec.kernel_kind == "lp" and spec.family.grid != grid:
        raise GridMismatchError("family grid does not match field grid")
    if spec.kernel_kind == "phi":
        for s in spec.level_symbols:
            if s.grid != grid:
                raise GridMismatchError("level symbol grid does not match field grid")


def radial_levels(f: OperatorField, spec: SquareFunctionSpec,
                  fhat: Optional[np.ndarray] = None) -> Iterator[tuple]:
    """Yield (j, weight_j, level_j * f) of the radial sum: the zero term
    (j = 0, weight 1) first when the spec has one, then j ascending.

    f is transformed once, or ``fhat = fft_data(f.data, f.grid)`` is used,
    so each level costs one inverse FFT.
    """
    _check_spec_grid(spec, f.grid)
    if fhat is None:
        fhat = fft_data(f.data, f.grid)
    zero = spec.zero_values(f.grid)
    if zero is not None:
        yield 0, 1.0, apply_symbol_hat(zero, fhat, f.grid)
    for j in spec.scales():
        g = apply_symbol_hat(spec.level_values(f.grid, j), fhat, f.grid)
        yield j, spec.radial_weight(j), g


def radial_accumulator(f: OperatorField, spec: SquareFunctionSpec,
                       fhat: Optional[np.ndarray] = None) -> PSDAccumulator:
    """PSD accumulator of sum_j weight_j (level_j * f)(s)* (level_j * f)(s)."""
    acc = PSDAccumulator(f.grid, f.n)
    for _, weight, g in radial_levels(f, spec, fhat):
        acc.add_gram(g, weight)
    return acc


def g_radial(f: OperatorField, spec: SquareFunctionSpec) -> OperatorField:
    """Radial square function (PSD-root field)."""
    return radial_accumulator(f, spec).sqrt()


def _ball_indicator_ffts(grid: Grid, cone: ConeIndex) -> dict[int, np.ndarray]:
    out = {}
    for j, offs in cone.offsets.items():
        ind = np.zeros(grid.shape)
        ind[tuple((offs % grid.N).T)] = 1.0
        out[j] = np.conj(np.fft.fftn(ind))
    return out


def ball_average(P: np.ndarray, ind_fft: np.ndarray, grid: Grid) -> np.ndarray:
    """Circular correlation sum_{t in B} P(s + t) per matrix entry."""
    coef = np.fft.fftn(P, axes=grid.spatial_axes)
    coef *= ind_fft[..., None, None]
    out = np.fft.ifftn(coef, axes=grid.spatial_axes)
    return out


def conic_accumulator(f: OperatorField, spec: SquareFunctionSpec, cone: ConeIndex,
                      fhat: Optional[np.ndarray] = None) -> PSDAccumulator:
    """Accumulator of sum_j w_j sum_{t in B_j} h^d |level_j * f(s+t)|^2.

    ``fhat = fft_data(f.data, f.grid)`` may be passed to share the forward
    transform of f with other square functions.
    """
    _check_spec_grid(spec, f.grid)
    if cone.grid != f.grid:
        raise GridMismatchError("cone index grid does not match field grid")
    scales = spec.scales()
    if scales.stop - 1 > cone.j_max:
        raise GridMismatchError(
            f"spec scales go to {scales.stop - 1} but cone only covers {cone.j_max}"
        )
    if fhat is None:
        fhat = fft_data(f.data, f.grid)
    ind_ffts = _ball_indicator_ffts(f.grid, cone)
    acc = PSDAccumulator(f.grid, f.n)
    h_d = f.grid.cell_volume
    for j in scales:
        g = apply_symbol_hat(spec.level_values(f.grid, j), fhat, f.grid)
        P = gram(g)
        avg = ball_average(P, ind_ffts[j], f.grid)
        acc.add_psd(avg, spec.conic_weight(j, f.grid.d) * h_d)
    return acc


def s_conic(f: OperatorField, spec: SquareFunctionSpec, cone: ConeIndex) -> OperatorField:
    """Conic (Lusin) square function over the truncated cone (PSD-root field)."""
    acc = conic_accumulator(f, spec, cone)
    # correlation of Hermitian blocks stays Hermitian up to FFT round-off
    acc.S = 0.5 * (acc.S + np.conj(np.swapaxes(acc.S, -1, -2)))
    return acc.sqrt()


def tent_accumulator(F: StripField, cone: Optional[ConeIndex] = None) -> PSDAccumulator:
    """Accumulator of A^c(F)^2 = sum_j log2 2^{jd} sum_{t in B_j} h^d |F(s+t, 2^-j)|^2."""
    grid = F.grid
    if cone is None:
        cone = cone_index(grid, F.j_max)
    if cone.grid != grid:
        raise GridMismatchError("cone index grid does not match strip grid")
    if F.j_max > cone.j_max:
        raise GridMismatchError("strip has scales beyond the cone index")
    ind_ffts = _ball_indicator_ffts(grid, cone)
    acc = PSDAccumulator(grid, F.n)
    h_d = grid.cell_volume
    for j in range(1, F.j_max + 1):
        P = gram(F.level(j))
        avg = ball_average(P, ind_ffts[j], grid)
        acc.add_psd(avg, LOG2 * 2.0 ** (j * grid.d) * h_d)
    acc.S = 0.5 * (acc.S + np.conj(np.swapaxes(acc.S, -1, -2)))
    return acc


def tent_functional(F: StripField, cone: Optional[ConeIndex] = None) -> OperatorField:
    """Tent functional A^c(F) (PSD-root field)."""
    return tent_accumulator(F, cone).sqrt()
