"""Multiplier-hypothesis verification and empirical boundedness.

Computes the sup-of-dilated potential-Sobolev quantities that control
square-function multipliers, the three Calderon-Zygmund kernel estimates of
a symbol sequence, and Monte-Carlo operator-norm ratios that exercise the
square-function and conic multiplier bounds at desk scale.  Each trial comes
as its spectrum, and the square functions of a trial share the trial's
spectrum.  A trial computes no filtered square function where every
phi_j rho_j is bitwise rho_j; its ratio is 1 where the Plancherel sum of its
input is positive, 0 otherwise.  Pass/fail thresholds are configuration,
never asserted theory constants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import HypothesisError, ParameterError
from .lattice import ConeIndex, Grid
from .opfield import check_p, to_planes
from .sqfn import level_weight, square_norm
from .spectral import (
    Profile,
    Symbol,
    annulus_leak,
    bessel_profile,
    constant_profile,
    default_window,
    hsigma_norm_profile,
    lp_base_profile,
    lp_zero_profile,
    make_lp_family,
    symbol_from_profile,
    window_radius_sq,
    window_sampled,
)

DILATE_SHIFTS = (-2, -1, 0, 1, 2)


@dataclass(frozen=True)
class SymbolSequence:
    """Sequence (phi_j)_{0<=j<=j_max} with companion (rho_j), profile-backed.

    ``phi_profiles[j]`` and ``rho_profiles[j]`` are Profiles on R^d; lattice
    values are sampled on demand.  ``rho_is_dilate_family`` marks the extra
    shape hypothesis needed at p = 1 (rho_j = rho(2^-j .), rho > 0 inside
    its annulus and rho_0 > 0 inside the ball).
    """

    grid: Grid
    phi_profiles: tuple[Profile, ...]
    rho_profiles: tuple[Profile, ...]
    name: str = "custom"
    rho_is_dilate_family: bool = False

    @property
    def j_max(self) -> int:
        return len(self.phi_profiles) - 1

    def rho_symbol(self, j: int) -> Symbol:
        """rho_j on the lattice: the cached LP member where ``rho_profiles[j]``
        is that member's profile (the identity and Bessel sequences), else
        sampled from the profile."""
        members = make_lp_family(self.grid).symbols
        if j < len(members) and members[j].profile is self.rho_profiles[j]:
            return members[j]
        return symbol_from_profile(self.grid, self.rho_profiles[j])

    @cached_property
    def product_symbols(self) -> tuple[Symbol, ...]:
        """phi_j rho_j on the lattice, j = 0 .. j_max, sampled once per sequence."""
        return tuple(symbol_from_profile(self.grid, phi * rho)
                     for phi, rho in zip(self.phi_profiles, self.rho_profiles))

    def product_symbol(self, j: int) -> Symbol:
        return self.product_symbols[j]

    def check_support(self) -> None:
        """Verify supp(phi_j rho_j) inside the dyadic annuli on the lattice
        (:func:`~ovtl.spectral.annulus_leak`), to 1e-12 of each level's peak."""
        for j in range(self.j_max + 1):
            vals = self.product_symbol(j).values
            scale = float(np.max(np.abs(vals)))
            if scale == 0.0:
                continue
            leak = annulus_leak(vals, self.grid, j)
            if leak > 1e-12 * scale:
                raise HypothesisError(
                    f"support certificate fails at j={j}: leak {leak:.3e} vs scale {scale:.3e}"
                )


def lp_sequence(grid: Grid, kind: str = "default") -> tuple[Profile, ...]:
    """The LP family itself as a profile sequence (rho_j = phi^(j))."""
    return tuple(s.profile for s in make_lp_family(grid, kind).symbols)


def identity_sequence(grid: Grid) -> SymbolSequence:
    """phi_j = 1 with rho_j the LP family: the identity multiplier."""
    rho = lp_sequence(grid)
    phi = tuple(constant_profile() for _ in rho)
    return SymbolSequence(grid, phi, rho, name="identity", rho_is_dilate_family=True)


def bessel_dilate_sequence(grid: Grid, beta: float) -> SymbolSequence:
    """phi_j = 2^{-j beta} J_beta (phi_0 = J_beta), rho_j the LP family.

    This is the sequence behind the lifting property: the dilates
    phi_j(2^{j+k} .) phi stay uniformly in the potential Sobolev space.
    """
    if not math.isfinite(beta):
        raise ParameterError(f"beta must be finite, got {beta}")
    rho = lp_sequence(grid)
    # log2 max |phi_j| on the lattice: at j = 0 and the largest |xi| for beta > 0, else j_max, 0
    peak = max(0.5 * beta * math.log2(1.0 + np.max(grid.freq_norm) ** 2), (1 - len(rho)) * beta)
    if peak >= 1023:
        raise ParameterError(f"beta = {beta} takes phi_j past 2^1023 on this grid (2^{peak:.0f})")
    phi = [bessel_profile(beta)]
    for j in range(1, len(rho)):
        phi.append(bessel_profile(beta).scale(2.0 ** (-j * beta)))
    return SymbolSequence(grid, tuple(phi), rho, name=f"bessel_dilate({beta})",
                          rho_is_dilate_family=True)


@dataclass
class MultiplierCertificate:
    """Hypothesis constant, empirical ratio, and the verdict of one run."""

    name: str
    hypothesis_constant: float
    empirical_ratio: float
    trials: int
    sigma: float
    alpha: float
    p: float
    margin: float
    window: float
    per_trial: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.empirical_ratio <= self.margin * self.hypothesis_constant

    def to_text(self) -> str:
        lines = [
            "[certificate]",
            f"name = {self.name}",
            f"hypothesis_constant = {self.hypothesis_constant:.15e}",
            f"empirical_ratio = {self.empirical_ratio:.15e}",
            f"trials = {self.trials}",
            f"sigma = {self.sigma}",
            f"alpha = {self.alpha}",
            f"p = {self.p}",
            f"margin = {self.margin}",
            f"window = {self.window}",
            f"passed = {self.passed}",
        ]
        return "\n".join(lines) + "\n"


def hypothesis_window(grid: Grid) -> float:
    """Window framing |xi| <= 4, the widest support among hypothesis terms."""
    return grid.N / 8.0


def hypothesis_components(seq: SymbolSequence, sigma: float) -> tuple[float, float]:
    """(dilate_sup, low_term) making up the hypothesis constant:
    sup_{j>=1, |k|<=2} ||phi_j(2^{j+k}.) phi||_{H^sigma_2} and
    ||phi_0 (phi^(0)+phi^(1))||_{H^sigma_2}; ParameterError unless sigma > d/2."""
    grid = seq.grid
    W = hypothesis_window(grid)
    base = lp_base_profile()
    shared = window_sampled(base, grid, W)
    sup = 0.0
    for j in range(1, seq.j_max + 1):
        for k in DILATE_SHIFTS:
            prof = seq.phi_profiles[j].dilate(2.0 ** (j + k)) * shared
            sup = max(sup, hsigma_norm_profile(prof, grid, sigma, window=W))
    zero = lp_zero_profile()
    low_prof = seq.phi_profiles[0] * _profile_sum(zero, base.dilate(0.5))
    low = hsigma_norm_profile(low_prof, grid, sigma, window=W)
    return sup, low


def hypothesis_constant(seq: SymbolSequence, sigma: float) -> float:
    """max of the dilate sup and the low-frequency term; see
    :func:`hypothesis_components`."""
    sup, low = hypothesis_components(seq, sigma)
    return max(sup, low)


def _profile_sum(a: Profile, b: Profile) -> Profile:
    rads = [r for r in (a.support_radius, b.support_radius) if r is not None]
    rad = max(rads) if len(rads) == 2 else None
    return Profile(lambda xi: a.fn(xi) + b.fn(xi), rad)


# ---------------------------------------------------------------------------
# Calderon-Zygmund kernel estimates
# ---------------------------------------------------------------------------

def phi_two_sigma(profiles: Sequence[Profile], grid: Grid, sigma: float,
                  family_kind: str = "default") -> float:
    """||phi||_{2,sigma} = max{ sup_{k>=1} ||phi(2^k.) phi_base||_{H^sigma(l2)},
    ||phi phi^(0)||_{H^sigma(l2)} } for the l2-valued sequence."""
    W = default_window(grid)
    base = window_sampled(lp_base_profile(family_kind), grid, W)
    zero = window_sampled(lp_zero_profile(family_kind), grid, W)

    def l2_norm(dilate_pow: Optional[int]) -> float:
        total = 0.0
        for prof in profiles:
            if dilate_pow is None:
                p = prof * zero
            else:
                p = prof.dilate(2.0**dilate_pow) * base
            total += hsigma_norm_profile(p, grid, sigma, window=W) ** 2
        return math.sqrt(total)

    sup = l2_norm(None)
    for k in range(1, len(profiles) + 3):
        sup = max(sup, l2_norm(k))
    return sup


@dataclass
class CZEstimates:
    e1: float
    e2: float
    e3: float
    phi_2_sigma: float
    e3_max_shift: tuple

    def ratios(self) -> tuple[float, float, float]:
        if self.phi_2_sigma == 0.0:
            return (0.0, 0.0, 0.0)
        return (self.e1 / self.phi_2_sigma, self.e2 / self.phi_2_sigma,
                self.e3 / self.phi_2_sigma)


def cz_kernel_estimates(profiles: Sequence[Profile], grid: Grid, sigma: float,
                        family_kind: str = "default") -> CZEstimates:
    """Calderon-Zygmund estimates of the l2-valued kernel with symbol sequence
    ``profiles``:

    E1 = sup_xi l2-norm over j of phi_j(xi)   (lattice frequencies);
    E2 = tail integral of ||k(s)||_l2 over |s| >= 1/2 (window quadrature);
    E3 = sampled sup over shifts |t| <= 1/4 of the shifted-difference tail.

    All-zero sequences return (0, 0, 0).
    """
    W = default_window(grid)
    # E1 on the integer lattice
    sq = np.zeros(grid.shape)
    for prof in profiles:
        sq = sq + np.abs(prof(grid.freqs)) ** 2
    e1 = float(np.sqrt(np.max(sq)))

    # spatial kernels on the window: k_j sampled at s = (W/N) m
    spacing = W / grid.N
    kernels = []
    for prof in profiles:
        vals = np.asarray(prof(grid.freqs / W), dtype=np.complex128)
        kernels.append(np.fft.ifftn(vals, axes=grid.spatial_axes))
    knorm_sq = np.zeros(grid.shape)
    for k in kernels:
        knorm_sq = knorm_sq + np.abs(k) ** 2

    s_abs = np.sqrt(window_radius_sq(grid, W))
    # E2: discrete s-measure is 1 per point (matches the l2 normalization,
    # equal to the continuum tail integral up to the fixed window factor)
    e2 = float(np.sum(np.sqrt(knorm_sq)[s_abs >= 0.5]))

    # E3: sampled shifts t on the window lattice with 0 < |t| <= 1/4
    max_cells = max(1, int(math.floor(0.25 / spacing)))
    shifts = [tup for tup in itertools.product(range(-max_cells, max_cells + 1), repeat=grid.d)
              if any(tup) and math.sqrt(sum(x * x for x in tup)) * spacing <= 0.25 + 1e-12]
    e3 = 0.0
    e3_arg = (0,) * grid.d
    for t in shifts:
        t_abs = math.sqrt(sum(x * x for x in t)) * spacing
        diff_sq = np.zeros(grid.shape)
        for k in kernels:
            shifted = np.roll(k, t, axis=tuple(range(grid.d)))
            diff_sq = diff_sq + np.abs(shifted - k) ** 2
        val = float(np.sum(np.sqrt(diff_sq)[s_abs > 2.0 * t_abs]))
        if val > e3:
            e3, e3_arg = val, t
    p2s = phi_two_sigma(profiles, grid, sigma, family_kind)
    return CZEstimates(e1=e1, e2=e2, e3=e3, phi_2_sigma=p2s,
                       e3_max_shift=tuple(float(x * spacing) for x in e3_arg))


# ---------------------------------------------------------------------------
# empirical square-function bounds
# ---------------------------------------------------------------------------

def _check_p1_shape(seq: SymbolSequence, p: float) -> None:
    if p == 1.0 and not seq.rho_is_dilate_family:
        raise HypothesisError(
            "p = 1 requires rho_j = rho(2^-j .) with rho > 0 inside its annulus"
        )


def _empirical_bound(kind: str, seq: SymbolSequence,
                     spectrum_gen: Callable[[int], np.ndarray], alpha: float, p: float,
                     cone: Optional[ConeIndex], trials: int, sigma: float,
                     margin: float) -> MultiplierCertificate:
    grid = seq.grid
    check_p(p)
    seq.check_support()
    _check_p1_shape(seq, p)
    chyp = hypothesis_constant(seq, sigma)
    j_top = seq.j_max if cone is None else min(seq.j_max, cone.j_max)
    rho_levels = [(j, level_weight(j, alpha), seq.rho_symbol(j)) for j in range(j_top + 1)]
    prod_levels = [(j, w, seq.product_symbol(j)) for j, w, _ in rho_levels]
    # phi_j rho_j bitwise rho_j at every level (the identity, Bessel at
    # beta = 0): the ratio is 1 where the input is nonzero, and the p = 2
    # Plancherel sum vanishes exactly where the trace L_p norm does
    same = all(m.values.tobytes() == r.values.tobytes()
               for (_, _, m), (_, _, r) in zip(prod_levels, rho_levels))
    ratios = []
    for t in range(trials):
        fhat = to_planes(spectrum_gen(t))
        if same:
            ratios.append(1.0 if square_norm(fhat, grid, rho_levels, 2.0, cone) > 0 else 0.0)
            continue
        out = square_norm(fhat, grid, prod_levels, p, cone)
        inp = square_norm(fhat, grid, rho_levels, p, cone)
        ratios.append(out / inp if inp > 0 else 0.0)
    r_emp = max(ratios) if ratios else 0.0
    return MultiplierCertificate(
        name=f"{kind}[{seq.name}]",
        hypothesis_constant=chyp,
        empirical_ratio=r_emp,
        trials=trials,
        sigma=sigma,
        alpha=alpha,
        p=p,
        margin=margin,
        window=hypothesis_window(grid),
        per_trial=ratios,
    )


def empirical_square_bound(seq: SymbolSequence, spectrum_gen: Callable[[int], np.ndarray],
                           alpha: float, p: float, trials: int, sigma: float,
                           margin: float = 100.0) -> MultiplierCertificate:
    """Empirical check of the square-function multiplier bound.

    The certificate passes iff the worst trial ratio

        ||(sum_j 4^{j alpha} |phi_j rho_j f|^2)^(1/2)||_p
        / ||(sum_j 4^{j alpha} |rho_j f|^2)^(1/2)||_p

    stays below margin * hypothesis_constant.  Pass/fail refers only to the
    ratio being bounded and stable, never to a theorem's unstated constant.
    ``spectrum_gen(t)`` gives trial t as the unnormalized spectrum of its
    field (:func:`~ovtl.generators.band_limited_spectrum`), so no trial field
    is built or transformed.  Both square functions of a trial share the
    trial's spectrum, copied to planes once.  A trial computes no filtered
    square function where every phi_j rho_j is bitwise rho_j; its ratio is 1
    where the Plancherel sum of its input is positive, 0 otherwise.  For a
    PSD field S, ||S^(1/2)||_p vanishes exactly where sum_s tr S(s) does, so
    the ratio is the filtered route's bit for bit, as long as neither route
    over- or underflows, which O(1) spectra such as the command line's never do.
    """
    return _empirical_bound("square", seq, spectrum_gen, alpha, p, None, trials, sigma, margin)


def empirical_conic_bound(seq: SymbolSequence, spectrum_gen: Callable[[int], np.ndarray],
                          alpha: float, p: float, cone: ConeIndex, trials: int,
                          sigma: float, margin: float = 100.0) -> MultiplierCertificate:
    """Conic counterpart of :func:`empirical_square_bound`: scales j >= 1 up
    to the cone's are ball-averaged, the j = 0 term stays radial."""
    return _empirical_bound("conic", seq, spectrum_gen, alpha, p, cone, trials, sigma, margin)


def exact_p2_operator_norm(seq: SymbolSequence) -> float:
    """Exact operator norm of the multiplier at p = 2, alpha = 0:
    sup_xi sqrt( sum_j |phi_j rho_j|^2 / sum_j |rho_j|^2 )."""
    grid = seq.grid
    num = np.zeros(grid.shape)
    den = np.zeros(grid.shape)
    for j in range(seq.j_max + 1):
        num = num + np.abs(seq.product_symbol(j).values) ** 2
        den = den + np.abs(seq.rho_symbol(j).values) ** 2
    mask = den > 0
    if not np.any(mask):
        return 0.0
    return float(np.sqrt(np.max(num[mask] / den[mask])))
