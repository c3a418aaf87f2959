"""The norm suite: column/row/mixture smoothness norms, local Hardy norms,
bmo, the Carleson-type sup norm, tent-space norms, and the homogeneous-norm
equivalence report.

Every operation returns a :class:`NormReport` carrying the value, its
constituent terms, and the parameters that produced it, so equivalence
constants can be measured, diffed, and tracked rather than asserted.  Each
norm is exactly homogeneous, with no square to over- or underflow (:func:`_scaled_back`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .lattice import ConeIndex, Grid, cone_index, cube_means
from .opfield import (
    OperatorField,
    PSDAccumulator,
    StripField,
    as_blocks,
    as_planes,
    check_p,
    gram,
    psd_root_norm,
    to_planes,
    trace_lp_norm,
    trace_lp_planes,
)
from .sqfn import (
    filtered,
    lp_levels,
    poisson_levels,
    square_accumulator,
    square_norm,
    strip_levels,
)
from .spectral import LPFamily, Symbol, fft_planes, filter_planes, poisson_symbol

# the kernels of the local Hardy norm, also the [norms] kernel_mode config values
HARDY_MODES = ("lp", "poisson")


@dataclass
class NormReport:
    """Value of one norm evaluation with parameter echo and constituents."""

    name: str
    value: float
    grid: Grid
    n: int
    params: dict = field(default_factory=dict)
    terms: dict = field(default_factory=dict)
    seed: Optional[int] = None  # the run seed, echoed by the command line
    flags: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = ["[report]", f"name = {self.name}", f"value = {self.value:.15e}",
                 "[grid]", f"d = {self.grid.d}", f"N = {self.grid.N}", f"n = {self.n}"]
        if self.seed is not None:
            lines += ["[run]", f"seed = {self.seed}"]
        if self.params:
            lines.append("[params]")
            lines += [f"{k} = {_fmt(v)}" for k, v in self.params.items()]
        if self.terms:
            lines.append("[terms]")
            lines += [f"{k} = {_fmt(v)}" for k, v in self.terms.items()]
        if self.flags:
            lines.append("[flags]")
            lines += [f"{k} = {_fmt(v)}" for k, v in self.flags.items()]
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.15e}"
    return str(v)


def _scaled_transform(f: OperatorField) -> tuple:
    """(planes of fft_data(f 2^-e), e), with e = ``f.pow2_exponent()``: f is
    copied to planes once (:func:`~ovtl.opfield.to_planes`), transformed in
    place and scaled in place, which is bitwise the transform of the scaled
    field, with no scaled copy of f."""
    e = f.pow2_exponent()
    fhat = fft_planes(to_planes(f.data), f.grid)
    if e:
        fhat *= np.ldexp(1.0, -e)
    return fhat, e


def _scaled_back(report: NormReport, e: int, ratio_value: bool = False) -> NormReport:
    """The report of a field scaled by 2^-e (``pow2_exponent``) with its value
    (unless ``ratio_value``) and each float term but the ``ratio*`` ones
    times 2^e: every norm is exactly homogeneous of degree one."""
    if e:
        if not ratio_value:
            report.value = float(np.ldexp(report.value, e))
        report.terms = {k: float(np.ldexp(v, e)) if isinstance(v, float)
                        and not k.startswith("ratio") else v for k, v in report.terms.items()}
    return report


def _low_term_norm(grid: Grid, sym: Symbol, fhat: np.ndarray, p: float) -> float:
    return trace_lp_planes(filter_planes(sym, fhat, grid), p, grid.cell_volume)


def _lp_square_norms(f: OperatorField, alpha: float, p: float, family: LPFamily,
                     sides: Sequence[str], fhat: np.ndarray,
                     low: bool = True) -> tuple[list, Optional[float]]:
    """LP square-function norms of f on each side in ``sides`` ("column"
    or "row"), and the phi_0 term ||phi_0 * f||_p when ``low``, given
    the planes ``fhat`` of :func:`_scaled_transform`.

    One forward transform serves every side: the LP symbols are real and
    even, so phi_j * f* = (phi_j * f)*, and the row sum
    sum_j 4^{j alpha} |phi_j * f*|^2 is sum_j 4^{j alpha} g_j g_j* over the
    column's filtered levels g_j = phi_j * f.  At p = 2 every side is the
    column's Plancherel sum, since tr(g g*) = tr(g* g).
    """
    levels = lp_levels(family, alpha)
    if p == 2:
        low_term = _low_term_norm(f.grid, levels[0][2], fhat, p) if low else None
        return [square_norm(fhat, f.grid, levels, p)] * len(sides), low_term
    accs = [PSDAccumulator(f.grid, f.n) for _ in sides]
    low_term = None
    for j, weight, g in filtered(fhat, f.grid, levels):
        for side, acc in zip(sides, accs):
            acc.add_gram(g, weight, row=side == "row")
        if low and j == 0:  # while the helper thread sums the queued Gram of g
            low_term = trace_lp_planes(g, p, f.grid.cell_volume)
    return [psd_root_norm(acc.planes, p, f.grid.cell_volume) for acc in accs], low_term


# ---------------------------------------------------------------------------
# smoothness norms
# ---------------------------------------------------------------------------

def _tl_side_report(f: OperatorField, alpha: float, p: float, family: LPFamily,
                    side: str) -> NormReport:
    check_p(p)
    fhat, e = _scaled_transform(f)
    (value,), low = _lp_square_norms(f, alpha, p, family, (side,), fhat)
    return _scaled_back(NormReport(
        name=f"F_alpha_{side}",
        value=value,
        params={"alpha": alpha, "p": p, "kernel": f"lp[{family.kind}]"},
        terms={"square_function": value, "phi0_term": low},
        grid=f.grid,
        n=f.n,
    ), e)


def tl_norm_column(f: OperatorField, alpha: float, p: float, family: LPFamily) -> NormReport:
    """Column norm || (sum_j 4^{j alpha} |phi_j * f|^2)^(1/2) ||_p, j >= 0."""
    return _tl_side_report(f, alpha, p, family, "column")


def tl_norm_row(f: OperatorField, alpha: float, p: float, family: LPFamily) -> NormReport:
    """Row norm: column norm of the pointwise adjoint field."""
    return _tl_side_report(f, alpha, p, family, "row")


def tl_norm_mixture(f: OperatorField, alpha: float, p: float, family: LPFamily) -> NormReport:
    """Mixture norm: exact max(column,row) for p > 2; for p <= 2 the smaller
    of column(g)+row(h) over the two trivial splits (f, 0) and (0, f).

    The p <= 2 value is an upper bound for the true infimum and is flagged so.
    Column and row come from one filtering of f, exactly as computed by
    :func:`tl_norm_column` and :func:`tl_norm_row`.
    """
    check_p(p)
    fhat, e = _scaled_transform(f)
    (col, row), _ = _lp_square_norms(f, alpha, p, family, ("column", "row"), fhat, low=False)
    if p > 2:
        value = max(col, row)
        flags = {"upper_bound": False}
        terms = {"column": col, "row": row}
    else:
        value = min(col, row)
        flags = {"upper_bound": True, "splits_tried": 2}
        terms = {"column": col, "row": row, "best_split": value}
    return _scaled_back(NormReport(
        name="F_alpha_mixture",
        value=value,
        params={"alpha": alpha, "p": p, "kernel": f"lp[{family.kind}]"},
        terms=terms,
        grid=f.grid,
        n=f.n,
        flags=flags,
    ), e)


# ---------------------------------------------------------------------------
# local Hardy norms
# ---------------------------------------------------------------------------

def hardy_norm(f: OperatorField, p: float, family: LPFamily, mode: str = "lp",
               shape: str = "radial") -> NormReport:
    """Local Hardy norm h_p^c in LP or Poisson mode, radial or conic shape.

    LP radial mode *is* the alpha = 0 column norm (same formula, with the
    low-frequency term inside the square sum); the low term is still recorded
    separately.  Poisson mode and conic shapes return the two-term form
    square-function + low-frequency, per the defining expression, over the
    scales j = 1 .. family.j_max.
    """
    check_p(p)
    if mode not in HARDY_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if shape not in ("radial", "conic"):
        raise ValueError(f"unknown shape {shape!r}")
    grid = f.grid
    if mode == "lp":
        low_symbol = family.member(0)
        levels = lp_levels(family, 0.0)[1:]
    else:
        low_symbol = poisson_symbol(grid, 1.0)
        levels = poisson_levels(grid, family.j_max, 0.0)
    fhat, e = _scaled_transform(f)

    if shape == "radial" and mode == "lp":
        (sq,), low = _lp_square_norms(f, 0.0, p, family, ("column",), fhat)
        value = sq
    else:
        low = _low_term_norm(grid, low_symbol, fhat, p)
        cone = cone_index(grid, family.j_max) if shape == "conic" else None
        sq = square_norm(fhat, grid, levels, p, cone)
        value = sq + low
    return _scaled_back(NormReport(
        name="hardy",
        value=value,
        params={"p": p, "mode": mode, "shape": shape, "poisson_k": 1},
        terms={"square_function": sq, "low_frequency": low},
        grid=grid,
        n=f.n,
    ), e)


# ---------------------------------------------------------------------------
# bmo and the Carleson-type sup norm
# ---------------------------------------------------------------------------

def bmo_norm(f: OperatorField) -> NormReport:
    """bmo^c norm: sup over dyadic |Q| < 1 of the mean oscillation, maximized
    with the |Q| = 1 (whole torus) size term.

    f scaled by 2^-e is copied to planes in one pass, the one copy of f; its
    cube means at every level come from one pyramid of pair sums
    (:func:`~ovtl.lattice.cube_means`) before its Gram |f|^2 is summed on
    planes, and the copy is dropped before a second pyramid gives the means
    of |f|^2, the whole torus (level 0) included."""
    grid, e = f.grid, f.pow2_exponent()
    levels = range(1, grid.max_cube_level + 1)
    x = to_planes(f.data, np.ldexp(1.0, -e))
    means_f = cube_means(x, grid, levels)
    P = np.empty_like(x)
    gram(as_blocks(x), as_blocks(P))
    del x
    means_P = cube_means(P, grid, range(grid.max_cube_level + 1))
    unit_term = psd_root_norm(means_P[0], np.inf, 1.0)  # |Q| = 1
    osc = 0.0
    per_level = {}
    for level in levels:
        m = as_blocks(means_P[level]) - gram(as_blocks(means_f[level]))  # E|f|^2 - |E f|^2
        lv = psd_root_norm(as_planes(m), np.inf, 1.0)
        per_level[f"oscillation_level_{level}"] = lv
        osc = max(osc, lv)
    value = max(osc, unit_term)
    return _scaled_back(NormReport(
        name="bmo",
        value=value,
        params={},
        terms={"oscillation_sup": osc, "unit_cube_term": unit_term, **per_level},
        grid=grid,
        n=f.n,
    ), e)


def tl_infty_norm(f: OperatorField, alpha: float, family: LPFamily) -> NormReport:
    """F^alpha_infty norm: ||phi_0 * f||_sup plus the Carleson-type sup over
    dyadic cubes |Q| < 1 with scale cutoff j >= level(Q).

    Scales are walked downward from j_max with one tail accumulator
    sum_{j >= level} 4^{j alpha} |phi_j * f|^2, whose cube means at each
    level are taken once the next level is filtered, from one pyramid of
    pair sums (:func:`~ovtl.lattice.cube_means`).
    """
    grid = f.grid
    fhat, e = _scaled_transform(f)
    levels = lp_levels(family, alpha)
    low_term = _low_term_norm(grid, levels[0][2], fhat, np.inf)
    top_level = min(grid.max_cube_level, family.j_max)
    acc = PSDAccumulator(grid, f.n)
    by_level, last = {}, None

    def carleson_level(level):
        means = cube_means(acc.planes, grid, (level,))[level]
        by_level[level] = psd_root_norm(means, np.inf, 1.0)

    for j, weight, g in filtered(fhat, grid, levels[:0:-1]):
        if last is not None:  # read after this level is filtered, so its Gram overlaps the FFT
            carleson_level(last)
        acc.add_gram(g, weight)
        last = j if j <= top_level else None
    if last is not None:
        carleson_level(last)
    per_level = {f"carleson_level_{level}": by_level[level] for level in sorted(by_level)}
    carleson = max(by_level.values(), default=0.0)
    value = low_term + carleson
    return _scaled_back(NormReport(
        name="F_alpha_infty",
        value=value,
        params={"alpha": alpha, "kernel": f"lp[{family.kind}]"},
        terms={"phi0_sup": low_term, "carleson_sup": carleson, **per_level},
        grid=grid,
        n=f.n,
    ), e)


# ---------------------------------------------------------------------------
# tent norm
# ---------------------------------------------------------------------------

def tent_norm(F: StripField, p: float, cone: Optional[ConeIndex] = None) -> NormReport:
    """Tent-space norm || A^c(F) ||_p."""
    check_p(p)
    e = F.pow2_exponent()
    cone = cone_index(F.grid, F.j_max) if cone is None else cone
    acc = square_accumulator(F.grid, F.n, strip_levels(F, np.ldexp(1.0, -e)), cone)
    value = psd_root_norm(acc.planes, p, F.grid.cell_volume)
    return _scaled_back(NormReport(
        name="tent",
        value=value,
        params={"p": p, "j_max": F.j_max},
        grid=F.grid,
        n=F.n,
    ), e)


# ---------------------------------------------------------------------------
# homogeneous equivalence (alpha > 0)
# ---------------------------------------------------------------------------

def homogeneous_equiv_report(f: OperatorField, alpha: float, p: float,
                             family: LPFamily, hom: LPFamily) -> NormReport:
    """Ratios of the inhomogeneous norm to the two homogeneous two-term norms.

    ratio_phi0: against ||phi_0 * f||_p + homogeneous square term;
    ratio_lp  : against ||f||_p + homogeneous square term (p <= 2 form).
    """
    if alpha <= 0:
        raise ValueError("homogeneous equivalence requires alpha > 0")
    grid = f.grid
    fhat, e = _scaled_transform(f)
    (inhom,), low = _lp_square_norms(f, alpha, p, family, ("column",), fhat)
    hom_sq = square_norm(fhat, grid, lp_levels(hom, alpha), p)
    plain = float(np.ldexp(trace_lp_norm(f, p), -e))  # exact: trace_lp_norm rescales itself
    denom_phi0 = low + hom_sq
    denom_plain = plain + hom_sq
    ratio_phi0 = inhom / denom_phi0 if denom_phi0 > 0 else math.inf
    ratio_plain = inhom / denom_plain if denom_plain > 0 else math.inf
    return _scaled_back(NormReport(
        name="homogeneous_equivalence",
        value=ratio_phi0,
        params={"alpha": alpha, "p": p, "j_min": hom.j_min, "kernel": f"lp[{family.kind}]"},
        terms={
            "inhomogeneous": inhom,
            "homogeneous_square": hom_sq,
            "phi0_term": low,
            "lp_term": plain,
            "ratio_phi0_form": ratio_phi0,
            "ratio_lp_form": ratio_plain,
        },
        grid=grid,
        n=f.n,
    ), e, ratio_value=True)
