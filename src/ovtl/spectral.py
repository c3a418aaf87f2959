"""Fourier analysis engine on the periodic lattice.

Conventions: the transform pair is

    fhat(xi) = sum_s h^d f(s) e^{-2 pi i s.xi},   f(s) = sum_xi fhat(xi) e^{2 pi i s.xi}

with integer frequencies xi in [-N/2, N/2)^d.  Plancherel
sum_s h^d |f(s)|^2 = sum_xi |fhat(xi)|^2 is then exact, and the Bessel
symbol is exactly (1+|xi|^2)^(alpha/2).

Symbols carry lattice values and, when available, an analytic *profile*
(a callable on R^d) so they can be resampled on dilated frequency windows;
this is what the potential-Sobolev quantity ``hsigma_norm_profile`` needs.
A symbol whose profile declares a support radius carries its *band*, the
box its values fill; :func:`filter_planes` inverts only the lines it reaches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Callable, Optional

import numpy as np

from .errors import GridMismatchError, ParameterError, ResolutionError
from .lattice import Grid
from .opfield import OperatorField, as_blocks, as_planes

# ---------------------------------------------------------------------------
# profiles: symbols as functions on R^d
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """A symbol profile on R^d: callable on arrays of shape (..., d).

    ``support_radius`` (if set) bounds supp within {|xi| <= support_radius};
    it drives resolvability checks when profiles are sampled on dilated
    frequency windows.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    support_radius: Optional[float] = None

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(xi, dtype=float))

    def dilate(self, c: float) -> "Profile":
        """Profile of xi -> self(c * xi)."""
        rad = None if self.support_radius is None else self.support_radius / c
        return Profile(lambda xi, _c=c: self.fn(_c * xi), rad)

    def __mul__(self, other: "Profile") -> "Profile":
        rads = [r for r in (self.support_radius, other.support_radius) if r is not None]
        rad = min(rads) if rads else None
        return Profile(lambda xi: self.fn(xi) * other.fn(xi), rad)

    def scale(self, c: complex) -> "Profile":
        return Profile(lambda xi: c * self.fn(xi), self.support_radius)


def radial_profile(fn: Callable[[np.ndarray], np.ndarray], support_radius=None) -> Profile:
    """Profile defined through a function of r = |xi|."""
    return Profile(lambda xi: fn(np.sqrt(np.sum(xi**2, axis=-1))), support_radius)


def constant_profile() -> Profile:
    """The profile 1: phi_j of the identity multiplier."""
    return Profile(lambda xi: np.ones(xi.shape[:-1], dtype=complex))


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Symbol:
    """Scalar complex multiplier on the frequency lattice.

    ``values`` has shape grid.shape in FFT storage order.  ``profile``
    optionally extends the symbol to all of R^d.  ``band``, set once for a
    profile that declares a ``support_radius`` (every LP member, every
    certificate level), is the least r with every nonzero value in the box
    |k_i| <= r, the box :func:`filter_planes` inverts; it is None for any
    other symbol and for an all-zero one, whose ``ifftn`` signs some zeros
    of the output that the pruned route would sign otherwise.
    """

    grid: Grid
    values: np.ndarray
    profile: Optional[Profile] = None
    band: Optional[int] = field(init=False, default=None)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError("symbol values shape does not match frequency lattice")
        if not np.all(np.isfinite(vals)):
            raise ValueError("symbol contains non-finite values")
        vals = np.ascontiguousarray(vals)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if self.profile is not None and self.profile.support_radius is not None:
            nonzero, k, d = vals != 0, np.abs(self.grid.freq_axis), self.grid.d
            if nonzero.any():
                object.__setattr__(self, "band", max(
                    int(k[np.any(nonzero, axis=tuple(b for b in range(d) if b != a))].max())
                    for a in range(d)))


def symbol_from_profile(grid: Grid, prof: Profile) -> Symbol:
    """The profile sampled on the lattice."""
    return Symbol(grid, prof(grid.freqs), profile=prof)


def bessel_profile(alpha: float) -> Profile:
    return radial_profile(lambda r: (1.0 + r**2) ** (alpha / 2.0) + 0j)


def bessel_symbol(grid: Grid, alpha: float) -> Symbol:
    """Bessel potential symbol J_alpha(xi) = (1+|xi|^2)^(alpha/2)."""
    return symbol_from_profile(grid, bessel_profile(alpha))


def riesz_profile(alpha: float) -> Profile:
    def fn(r):
        out = np.zeros_like(r, dtype=complex)
        nz = r > 0
        out[nz] = r[nz] ** alpha
        if alpha > 0:
            out[~nz] = 0.0
        return out
    return radial_profile(fn)


def riesz_symbol(grid: Grid, alpha: float) -> Symbol:
    """Riesz symbol |xi|^alpha with the mean mode zeroed (all alpha)."""
    return symbol_from_profile(grid, riesz_profile(alpha))


def derivative_profile(i: int, beta: float) -> Profile:
    def fn(xi):
        t = 2.0 * math.pi * xi[..., i]
        if float(beta).is_integer():
            return (1j * t) ** int(beta)
        # principal branch: (i t)^beta = |t|^beta e^{i pi beta sign(t) / 2}
        out = np.abs(t) ** beta * np.exp(1j * math.pi * beta * np.sign(t) / 2.0)
        out = np.where(t == 0.0, 0.0, out)
        return out
    return Profile(fn)


def derivative_symbol(grid: Grid, i: int, beta: float) -> Symbol:
    """Fractional-derivative symbol (2 pi i xi_i)^beta (principal branch)."""
    if not 0 <= i < grid.d:
        raise ValueError(f"axis {i} out of range for d={grid.d}")
    return symbol_from_profile(grid, derivative_profile(i, beta))


def multi_derivative_symbol(grid: Grid, gamma: tuple[int, ...]) -> Symbol:
    """Symbol of D^gamma = prod_i (2 pi i xi_i)^(gamma_i)."""
    vals = np.ones(grid.shape, dtype=np.complex128)
    for i, g in enumerate(gamma):
        if g:
            vals = vals * (2j * math.pi * grid.freqs[..., i]) ** g
    return Symbol(grid, vals)


def poisson_symbol(grid: Grid, eps: float) -> Symbol:
    """Poisson semigroup symbol e^{-2 pi eps |xi|}."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    prof = radial_profile(lambda r, _e=eps: np.exp(-2.0 * math.pi * _e * r) + 0j)
    return symbol_from_profile(grid, prof)


def poisson_dk_symbol(grid: Grid, eps: float, k: int) -> Symbol:
    """k-th eps-derivative of the Poisson symbol: (-2 pi |xi|)^k e^{-2 pi eps |xi|}."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if k < 1:
        raise ValueError("k must be >= 1")
    prof = radial_profile(
        lambda r, _e=eps, _k=k: (-2.0 * math.pi * r) ** _k * np.exp(-2.0 * math.pi * _e * r) + 0j
    )
    return symbol_from_profile(grid, prof)


def apply_symbol(m: Symbol, f: OperatorField) -> OperatorField:
    """Fourier multiplier: inverse transform of m(xi) fhat(xi)."""
    if m.grid != f.grid:
        raise GridMismatchError("symbol and field grids differ")
    fhat = as_planes(fft_data(f.data, f.grid))
    return OperatorField(f.grid, as_blocks(filter_planes(m, fhat, f.grid)))


def _data_axes(data: np.ndarray, grid: Grid) -> tuple:
    extra = data.ndim - grid.d - 2
    return tuple(ax + extra for ax in grid.spatial_axes)


def fft_data(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Unnormalized forward DFT of raw (*, n, n) or batched (B, *, n, n) data.

    Transform a field once with this and filter it by any number of symbols
    with :func:`apply_symbol_hat`, one ``ifftn`` each.
    """
    return np.fft.fftn(data, axes=_data_axes(data, grid))


def fft_planes(x: np.ndarray, grid: Grid) -> np.ndarray:
    """:func:`fft_data` of the planes ``x`` (n, n, *grid.shape)
    (:func:`~ovtl.opfield.to_planes`), over the trailing grid axes and in
    place: ``x`` is overwritten and returned, bitwise the point-major transform."""
    return np.fft.fftn(x, axes=tuple(range(-grid.d, 0)), out=x)


def ifft_data(data_hat: np.ndarray, grid: Grid, band: Optional[int] = None) -> np.ndarray:
    """Inverse of :func:`fft_data`, computed in place: ``data_hat`` is
    overwritten and returned (:func:`ifft_planes` on a view of its planes)."""
    ifft_planes(as_planes(data_hat), grid, band)
    return data_hat


def ifft_planes(x_hat: np.ndarray, grid: Grid, band: Optional[int] = None) -> np.ndarray:
    """Inverse of :func:`fft_planes` over the grid axes that trail ``x_hat``,
    in place: ``x_hat`` is overwritten and returned.

    ``band`` = r declares that ``x_hat`` vanishes outside the box
    |k_i| <= r; where :func:`_prunes` allows, only the lines that box
    reaches are transformed (:func:`_pruned_ifft`), with the same result.
    """
    if _prunes(x_hat, grid, band):
        return _pruned_ifft(x_hat, grid, band)
    return np.fft.ifftn(x_hat, axes=tuple(range(-grid.d, 0)), out=x_hat)  # numpy >= 2.0


def _prunes(x_hat: np.ndarray, grid: Grid, band: Optional[int]) -> bool:
    """The fixed rule of the pruned inverse: unbatched data at d >= 2 whose
    box |k_i| <= band spans at most about half of every axis (band <= N/4).
    d = 1, batched data, the near-full-band top LP member and symbols with
    no band keep ``ifftn``."""
    return (band is not None and grid.d >= 2 and x_hat.ndim == grid.d + 2
            and 0 <= band <= grid.N // 4)


def _band_parts(grid: Grid, r: int) -> list:
    """The slices of |k| <= r along one axis in FFT storage order."""
    return [slice(0, r + 1)] + ([slice(grid.N - r, grid.N)] if r > 0 else [])


def _pruned_ifft(coef: np.ndarray, grid: Grid, r: int) -> np.ndarray:
    """``ifftn`` over the trailing grid axes of unbatched (n, n, *) ``coef``
    that vanishes outside the box |k_i| <= r, in place and bitwise equal
    ("FFT pruning").

    Axes run last to first, as in ``ifftn``; before the pass along axis a
    only lines whose earlier coordinates lie in the box can be nonzero, so
    the pass transforms the 2^a views ``coef[:, :, *lead]`` of those lines
    and skips the all-zero rest.  Each view pass is one GIL-free pocketfft call.
    """
    parts = _band_parts(grid, r)
    for a in reversed(range(grid.d)):
        for lead in itertools.product(parts, repeat=a):
            view = coef[(slice(None), slice(None)) + lead]
            np.fft.ifft(view, axis=a - grid.d, out=view)
    return coef


def apply_symbol_hat(values: np.ndarray, data_hat: np.ndarray, grid: Grid) -> np.ndarray:
    """Multiplier action of the symbol ``values`` on raw (*, n, n) or batched
    (B, *, n, n) data given its transform ``fft_data(data)``, which is left
    unchanged: one ``ifftn`` of the product."""
    return ifft_data(data_hat * values[..., None, None], grid)


def filter_planes(sym: Symbol, x_hat: np.ndarray, grid: Grid) -> np.ndarray:
    """Multiplier action m * f of the symbol ``sym`` on planes, given their
    transform ``x_hat`` (:func:`fft_planes`), which is left unchanged.

    A symbol whose ``band`` r passes :func:`_prunes` is multiplied on its box
    |k_i| <= r alone into the zeroed output, which :func:`_pruned_ifft`
    inverts; any other symbol takes one ``ifftn`` of the whole product.
    """
    r, values = sym.band, sym.values
    if not _prunes(x_hat, grid, r):
        return ifft_planes(x_hat * values, grid)
    out = np.zeros_like(x_hat)
    for box in itertools.product(_band_parts(grid, r), repeat=grid.d):
        np.multiply(x_hat[(Ellipsis,) + box], values[box], out=out[(Ellipsis,) + box])
    return _pruned_ifft(out, grid, r)


# ---------------------------------------------------------------------------
# Littlewood-Paley families
# ---------------------------------------------------------------------------

class _EtaTable:
    """Smooth transition eta(r): 1 for r <= 1, 0 for r >= 2, built from the
    normalized bump integral eta(r) = int_r^2 w / int_1^2 w.

    The annulus bump phi(r) = eta(r) - eta(2r) is evaluated through two
    one-sided accumulations of w: the left cumulative resolves the lower
    edge and the right-accumulated tail resolves the upper edge, so phi
    stays strictly positive at every interior radius whose exact value is
    representable in float64 (values below the subnormal floor, reached
    within a thin zone at the boundary in the t variable, 0.002 wide for the
    default profile and 1e-9 for "poly", round to zero in any
    double-precision implementation).  Dyadic dilates share
    the table, so partition sums telescope to machine round-off.
    """

    POINTS = 8193

    def __init__(self, kind: str):
        t = np.linspace(1.0, 2.0, self.POINTS, dtype=np.longdouble)
        if kind == "default":
            w = np.zeros_like(t)
            inner = (t > 1.0) & (t < 2.0)
            ti = t[inner]
            w[inner] = np.exp(-1.0 / ((ti - 1.0) * (2.0 - ti)))
        elif kind == "poly":
            w = ((t - 1.0) * (2.0 - t)) ** 2
        else:
            raise ValueError(f"unknown eta profile kind {kind!r}")
        seg = 0.5 * (w[1:] + w[:-1]) * (t[1] - t[0])
        cum = np.concatenate([[np.longdouble(0.0)], np.cumsum(seg)])
        tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [np.longdouble(0.0)]])
        self._t = np.asarray(t, dtype=float)
        self._cum = np.asarray(cum, dtype=float)
        self._tail = np.asarray(tail, dtype=float)
        self._total_c = float(cum[-1])
        self._total_t = float(tail[0])

    def eta(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape, dtype=float)
        out[r <= 1.0] = 1.0
        out[r >= 2.0] = 0.0
        mid = (r > 1.0) & (r < 2.0)
        if np.any(mid):
            out[mid] = np.interp(r[mid], self._t, self._tail) / self._total_t
        return out

    def phi(self, r: np.ndarray) -> np.ndarray:
        """eta(r) - eta(2r) in cancellation-free form."""
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape, dtype=float)
        low = (r > 0.5) & (r <= 1.0)
        if np.any(low):
            out[low] = np.interp(2.0 * r[low], self._t, self._cum) / self._total_c
        high = (r > 1.0) & (r < 2.0)
        if np.any(high):
            out[high] = np.interp(r[high], self._t, self._tail) / self._total_t
        return out

    __call__ = eta


@lru_cache(maxsize=8)
def _eta(kind: str) -> _EtaTable:
    return _EtaTable(kind)


def lp_base_profile(kind: str = "default") -> Profile:
    """Annulus bump phi(xi) = eta(|xi|) - eta(2|xi|), supported in 1/2 <= |xi| <= 2."""
    eta = _eta(kind)
    return radial_profile(lambda r: eta.phi(r) + 0j, support_radius=2.0)


def lp_zero_profile(kind: str = "default") -> Profile:
    """Low-frequency bump phi^(0)(xi) = eta(|xi|), equal to 1 for |xi| <= 1."""
    eta = _eta(kind)
    return radial_profile(lambda r: eta(r) + 0j, support_radius=2.0)


@dataclass(frozen=True)
class LPFamily:
    """Validated Littlewood-Paley family phi^(j), j = j_min .. j_max.

    The inhomogeneous family (j_min = 0) has phi^(0) = eta(|xi|) and
    phi^(j) = phi(2^-j xi) with phi the annulus bump; its partition
    sum_j phi^(j)(xi) telescopes to eta(2^-j_max |xi|), which equals 1
    exactly for |xi| <= 2^j_max (the covered range).  The homogeneous
    family (j_min = -1) holds the dilates phi(2^-j .) alone.
    """

    grid: Grid
    j_max: int
    symbols: tuple[Symbol, ...]
    kind: str = "default"
    j_min: int = 0

    def member(self, j: int) -> Symbol:
        return self.symbols[j - self.j_min]

    def values(self, j: int) -> np.ndarray:
        return self.member(j).values

    def scales(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def partition_sum(self) -> np.ndarray:
        """sum over the members of their (real) symbol values."""
        total = np.zeros(self.grid.shape)
        for s in self.symbols:
            total = total + s.values.real
        return total

    def covered_mask(self) -> np.ndarray:
        """The frequencies |xi| <= 2^j_max, where the partition sum is 1."""
        return self.grid.freq_norm <= float(2**self.j_max) + 1e-12


def annulus_leak(values: np.ndarray, grid: Grid, j: int) -> float:
    """max |m(xi)| over the lattice frequencies outside the LP annulus of
    scale j, 2^(j-1) <= |xi| <= 2^(j+1) (|xi| <= 2 at j = 0), edges widened
    by 1e-12; 0 when the symbol ``values`` vanish there."""
    r = grid.freq_norm
    outside = r > 2.0 ** (j + 1) + 1e-12
    if j > 0:
        outside |= r < 2.0 ** (j - 1) - 1e-12
    return float(np.max(np.abs(values[outside]), initial=0.0))


def lp_family_j_max(grid: Grid) -> int:
    """Top LP scale: floor(log2(N/4)) keeps supp phi^(j_max) inside Nyquist."""
    return int(math.floor(math.log2(grid.N / 4)))


def make_lp_family(grid: Grid, kind: str = "default") -> LPFamily:
    """Construct the Littlewood-Paley family for the grid, once per (grid, kind);
    raises ResolutionError when the grid cannot host a single annulus."""
    return _lp_family(grid, kind)


@lru_cache(maxsize=32)
def _lp_family(grid: Grid, kind: str) -> LPFamily:
    j_max = lp_family_j_max(grid)
    if j_max < 1:
        raise ResolutionError(f"grid N={grid.N} too small for an LP family")
    base = lp_base_profile(kind)
    zero = lp_zero_profile(kind)
    symbols = [symbol_from_profile(grid, zero)]
    for j in range(1, j_max + 1):
        symbols.append(symbol_from_profile(grid, base.dilate(2.0**-j)))
    return LPFamily(grid=grid, j_max=j_max, symbols=tuple(symbols), kind=kind)


make_lp_family.cache_info = _lp_family.cache_info


@lru_cache(maxsize=32)
def make_hom_lp_family(grid: Grid) -> LPFamily:
    """Homogeneous dilates phi(2^-j .) of the default bump, j = -1 .. j_max;
    j_min = -1 covers all integer xi != 0."""
    j_max = lp_family_j_max(grid)
    base = lp_base_profile()
    symbols = tuple(symbol_from_profile(grid, base.dilate(2.0**-j)) for j in range(-1, j_max + 1))
    return LPFamily(grid=grid, j_max=j_max, symbols=symbols, j_min=-1)


# ---------------------------------------------------------------------------
# potential Sobolev norm of symbols
# ---------------------------------------------------------------------------

def default_window(grid: Grid) -> float:
    return grid.N / 4.0


def window_radius_sq(grid: Grid, window: float) -> np.ndarray:
    """|s|^2 at the signed window points s = (W/N) m, m in [-N/2, N/2)^d (FFT order)."""
    axis = (grid.freq_axis * (window / grid.N)) ** 2
    return reduce(np.add.outer, [axis] * grid.d)


@lru_cache(maxsize=8)
def _window_points(grid: Grid, window: float) -> np.ndarray:
    """The frequencies k/W (k the integer lattice) at which
    :func:`hsigma_norm_profile` samples, one read-only array per (grid, W)."""
    pts = grid.freqs / window
    pts.flags.writeable = False
    return pts


def window_sampled(prof: Profile, grid: Grid, window: float) -> Profile:
    """``prof`` with its samples at :func:`_window_points` taken once: a sweep
    of :func:`hsigma_norm_profile` over products with it resamples only the
    other factors, to the same bits.  Elsewhere it evaluates ``prof``."""
    pts = _window_points(grid, float(window))
    vals = prof(pts)
    vals.flags.writeable = False
    return Profile(lambda xi: vals if xi is pts else prof.fn(xi), prof.support_radius)


def hsigma_norm_profile(prof: Profile, grid: Grid, sigma: float,
                        window: Optional[float] = None) -> float:
    """H^sigma_2 quantity of a symbol profile, desk-scale rendering.

    The profile is sampled at frequencies k/W (k the integer lattice), its
    spatial dual is taken by normalized inverse DFT (a constant profile maps
    to the unit point mass at 0), weighted by (1+|s|^2)^sigma with
    s = (W/N) m in the signed window, and the plain l2 norm is returned.
    With this discrete normalization the constant symbol has norm exactly 1;
    the quantity is proportional to the continuum H^sigma_2 norm with a fixed
    (W/N)^(d/2) factor.
    """
    if not sigma > grid.d / 2.0:
        raise ParameterError(f"sigma must exceed d/2 = {grid.d / 2}, got {sigma}")
    W = default_window(grid) if window is None else float(window)
    if W <= 0:
        raise ValueError("window must be positive")
    half_extent = grid.N / (2.0 * W)
    if prof.support_radius is not None and prof.support_radius > half_extent + 1e-9:
        raise ResolutionError(
            f"profile support radius {prof.support_radius:.3g} exceeds window "
            f"half-extent {half_extent:.3g} (window W={W:.3g})"
        )
    vals = np.asarray(prof(_window_points(grid, W)), dtype=np.complex128)
    spatial = np.fft.ifftn(vals, axes=grid.spatial_axes)
    weight = (1.0 + window_radius_sq(grid, W)) ** sigma
    return float(np.sqrt(np.sum(weight * np.abs(spatial) ** 2)))
