"""Atoms, validators, tent-space atomization, and smooth atomic decomposition.

The reproducing system is built from spatial stencils: at each scale j a
radial bump is sampled inside the half-cube of side 2^-j and hit with
discrete Laplacians, giving level kernels that are exactly mean-zero and
exactly supported in the cube of side 2^-j.  The low-frequency symbol is
the exact complement 1 - sum_j Psi_j(xi)^2, so the reconstruction identity
holds to machine precision on every lattice point while projected tent
atoms stay supported in 2Q.

Tent atomization is constructive: the strip cell at scale j is partitioned
by the dyadic cubes at level j-1, each restricted slice is normalized to
saturate the tent size condition, and the coefficient is the removed size
times |Q|^(1/2).  Smooth decompositions push tent atoms through the
projection and, for the smoothness-weighted space, slice each projected
atom into subatoms over the level-j cubes meeting its base cube.

Atoms produced here are normalized so every validator clause passes with
constant 1; all the looseness lands in the recorded coefficient mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import groupby, product as iproduct
from typing import Optional, Sequence

import numpy as np

from .errors import GridMismatchError, ParameterError, ResolutionError, ValidationError
from .lattice import (
    DyadicCube,
    Grid,
    box_indices,
    cube_blocks,
    dyadic_cubes_at_level,
    periodic_block_sum,
    subcube_order,
)
from .opfield import OperatorField, StripField, l1l2_sizes, trace_lp_norm
from .spectral import (
    LPFamily,
    apply_symbol_data,
    apply_symbol_hat,
    bessel_symbol,
    fft_data,
    ifft_data,
    lp_family_j_max,
    multi_derivative_symbol,
)

LOG2 = math.log(2.0)


def multi_indices(d: int, max_order: int) -> list[tuple[int, ...]]:
    """All gamma in N_0^d with |gamma|_1 <= max_order, lexicographic."""
    out = []
    for gamma in iproduct(range(max_order + 1), repeat=d):
        if sum(gamma) <= max_order:
            out.append(gamma)
    return sorted(out, key=lambda g: (sum(g), g))


# ---------------------------------------------------------------------------
# atom types
# ---------------------------------------------------------------------------

class _CubeAtom:
    """Atom data ``block`` (..., n, n) on the dyadic cube ``cube``."""

    @property
    def grid(self) -> Grid:
        return self.cube.grid

    @property
    def n(self) -> int:
        return self.block.shape[-1]


class _BoxStorage(_CubeAtom):
    """Atom data held as ``block`` (*sides, n, n) over the periodic box of
    lattice points whose per-axis start index is ``origin``."""

    @property
    def axis_idx(self) -> list:
        return box_indices(self.grid, self.origin, self.block.shape[:self.grid.d])

    def embed(self) -> np.ndarray:
        out = np.zeros(self.grid.shape + (self.n, self.n), dtype=np.complex128)
        out[np.ix_(*self.axis_idx)] = self.block
        return out

    def to_field(self) -> OperatorField:
        return OperatorField(self.grid, self.embed())


@dataclass
class HAtom(_BoxStorage):
    """Hardy-space atom: supported in Q (or 2Q when ``double_support``),
    size tau((int |a|^2)^(1/2)) <= |Q|^(-1/2), mean-zero when |Q| < 1.

    ``block`` may be given as a full-grid OperatorField, which is stored as
    the box at ``origin`` 0; ``support_leak`` is the relative L2 energy cut
    off when the atom was stored on a box.
    """

    cube: DyadicCube
    block: np.ndarray
    double_support: bool = False
    mean_zero_required: Optional[bool] = None
    origin: tuple = ()
    support_leak: float = 0.0

    def __post_init__(self):
        if isinstance(self.block, OperatorField):
            self.block = np.asarray(self.block.data)
        if not self.origin:
            self.origin = (0,) * self.grid.d
        if self.mean_zero_required is None:
            self.mean_zero_required = self.cube.level > 0


@dataclass
class TentAtom(_CubeAtom):
    """Tent-space atom stored as a dense block over its cube.

    ``block`` has shape (n_scales, *cube_cells, n, n) holding scales
    j = j_lo .. j_lo + n_scales - 1 restricted to the cube's lattice points.
    """

    cube: DyadicCube
    j_lo: int
    block: np.ndarray

    @property
    def scales(self) -> range:
        return range(self.j_lo, self.j_lo + self.block.shape[0])

    def size(self) -> float:
        """tau((int_{T(Q)} |a|^2 ds deps/eps)^(1/2)) with the dyadic measure."""
        return float(l1l2_sizes(self.block.reshape(-1, self.n, self.n),
                                LOG2 * self.grid.cell_volume))

    def to_strip(self, j_max: int) -> StripField:
        """The atom on the full strip of scales 1 .. j_max (zeros off T(Q))."""
        data = np.zeros((j_max,) + self.grid.shape + (self.n, self.n), dtype=np.complex128)
        box = np.ix_(*self.cube.axis_indices())
        data[(slice(self.j_lo - 1, self.scales.stop - 1),) + box] = self.block
        return StripField(self.grid, data)


@dataclass
class SmoothAtom(_BoxStorage):
    """Smooth atom: kind 'alpha_one', 'subatom', or 'alpha_q'.

    Data is stored as a block over the double cube 2Q (``origin`` is the
    per-axis start index of 2Q); ``support_leak`` is the relative L2 energy
    of the built atom outside 2Q, which storing the block cut off.  For
    'alpha_q' atoms, ``subatoms`` holds (d_coefficient, subatom) pairs with
    sum_l d_l a_l = atom data.
    """

    kind: str
    cube: DyadicCube
    origin: tuple
    block: np.ndarray
    alpha: float = 0.0
    K: int = 1
    L: int = -1
    subatoms: list = field(default_factory=list)
    support_leak: float = 0.0


def _energy_outside(data: np.ndarray, inside) -> float:
    """Relative L2 energy of (*, n, n) data off the points ``inside`` (a
    boolean mask or an index; 0 for zero data).  The inside is zeroed and
    the rest summed, not subtracted from the total, so a leak of 1e-16
    keeps its digits."""
    energy = np.sum(data.real**2 + data.imag**2, axis=(-2, -1))
    total = float(np.sum(energy))
    energy[inside] = 0.0
    return math.sqrt(float(np.sum(energy)) / total) if total > 0 else 0.0


def _cut_to_double(full: np.ndarray, cube: DyadicCube) -> tuple:
    """(origin, block, leak): the 2Q block of full-grid data and the
    relative L2 energy outside 2Q that the cut drops."""
    origin, side = cube.double_box()
    box = np.ix_(*box_indices(cube.grid, origin, (side,) * cube.grid.d))
    return origin, full[box], _energy_outside(full, box)


@dataclass
class AtomicDecomposition:
    """Coefficient/atom pairs with reconstruction metadata."""

    grid: Grid
    n: int
    alpha: Optional[float]
    low_pairs: list  # (mu_coefficient, SmoothAtom alpha_one)
    high_pairs: list  # (lambda_coefficient, SmoothAtom)
    tent_pairs: list  # (lambda, TentAtom) as produced by the atomization
    residual: float
    source_norm: Optional[float]
    mass_ratio: Optional[float]

    @property
    def mass(self) -> float:
        return float(
            sum(abs(c) for c, _ in self.low_pairs)
            + sum(abs(c) for c, _ in self.high_pairs)
        )

    def reconstruct(self) -> OperatorField:
        terms = [(c, atom.origin, atom.block) for c, atom in self.low_pairs + self.high_pairs]
        return OperatorField(self.grid, periodic_block_sum(self.grid, terms, (self.n, self.n)))


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

@dataclass
class Clause:
    name: str
    passed: bool
    measured: float
    bound: float

    @property
    def slack(self) -> float:
        return self.bound - self.measured


@dataclass
class ValidationReport:
    atom_kind: str
    clauses: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def failures(self) -> list:
        return [c for c in self.clauses if not c.passed]

    def to_text(self) -> str:
        lines = [f"[validate:{self.atom_kind}] passed = {self.passed}"]
        for c in self.clauses:
            lines.append(
                f"{c.name}: measured = {c.measured:.6e} bound = {c.bound:.6e} "
                f"pass = {c.passed}"
            )
        return "\n".join(lines) + "\n"


SUPPORT_RTOL = 1e-10
SIZE_SLACK = 1e-9
MOMENT_RTOL = 1e-10


def _support_clause(atom, double: bool, name: str) -> Clause:
    """Relative L2 energy off Q (off 2Q when ``double``): the larger of the
    energy cut off when the atom was stored and the energy its stored block
    holds outside the support."""
    inside = atom.cube.box_mask(atom.axis_idx, double)
    rel = max(atom.support_leak, _energy_outside(atom.block, inside))
    return Clause(name, rel <= SUPPORT_RTOL, rel, SUPPORT_RTOL)


def validate_h_atom(atom: HAtom) -> ValidationReport:
    grid = atom.grid
    clauses = [_support_clause(atom, atom.double_support, "support")]
    size = float(l1l2_sizes(atom.block.reshape(-1, atom.n, atom.n), grid.cell_volume))
    bound = atom.cube.volume**-0.5 * (1.0 + SIZE_SLACK)
    clauses.append(Clause("size", size <= bound, size, bound))
    if atom.mean_zero_required:
        mean = np.sum(atom.block, axis=grid.spatial_axes) * grid.cell_volume
        scale = float(np.sum(np.abs(atom.block))) * grid.cell_volume
        dev = float(np.linalg.norm(mean))
        bound_m = MOMENT_RTOL * max(scale, 1e-300)
        clauses.append(Clause("moment", dev <= bound_m, dev, bound_m))
    return ValidationReport("h_atom", clauses)


def validate_tent_atom(atom: TentAtom, j_max: Optional[int] = None) -> ValidationReport:
    grid = atom.grid
    clauses = []
    j_top = lp_family_j_max(grid) if j_max is None else j_max
    lo_ok = atom.j_lo >= max(atom.cube.level, 1)
    hi_ok = atom.scales.stop - 1 <= j_top
    in_tent = 1.0 if (lo_ok and hi_ok) else 0.0
    clauses.append(Clause("support_in_tent", lo_ok and hi_ok, 1.0 - in_tent, 0.5))
    size = atom.size()
    bound = atom.cube.volume**-0.5 * (1.0 + SIZE_SLACK)
    clauses.append(Clause("size", size <= bound, size, bound))
    return ValidationReport("tent_atom", clauses)


@lru_cache(maxsize=16)
def _derivative_weights(grid: Grid, gammas: tuple) -> np.ndarray:
    """Rows |m_gamma|^2 of the D^gamma symbols, shape (len(gammas), points)."""
    rows = np.stack([np.abs(multi_derivative_symbol(grid, g).values.ravel()) ** 2
                     for g in gammas])
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=16)
def _bessel_weight(grid: Grid, alpha: float) -> np.ndarray:
    """The row |J_alpha|^2 = (1 + |xi|^2)^alpha, shape (1, points)."""
    row = np.abs(bessel_symbol(grid, alpha).values.reshape(1, -1)) ** 2
    row.setflags(write=False)
    return row


def _derivative_sizes(embedded: np.ndarray, grid: Grid, gammas: Sequence[tuple],
                      ) -> dict:
    """tau((int |D^gamma a|^2)^(1/2)) per gamma, from one forward transform:
    by Plancherel, the sizes of the transform under the weights |m_gamma|^2
    with volume h^(2d)."""
    gammas = tuple(gammas)
    n = embedded.shape[-1]
    sizes = l1l2_sizes(fft_data(embedded, grid).reshape(-1, n, n), grid.cell_volume**2,
                       _derivative_weights(grid, gammas))
    return dict(zip(gammas, sizes.tolist()))


def _bessel_size(data_hat: np.ndarray, grid: Grid, alpha: float) -> float:
    """tau((int |J_alpha a|^2)^(1/2)) from ``data_hat = fft_data(a)``."""
    n = data_hat.shape[-1]
    return float(l1l2_sizes(data_hat.reshape(-1, n, n), grid.cell_volume**2,
                            _bessel_weight(grid, alpha))[0])


def _moments(atom: SmoothAtom, L: int) -> dict:
    """Centered discrete moments sum_s h^d s_per^beta a(s) for |beta|_1 <= L,
    summed over the stored block."""
    if L < 0:
        return {}
    grid = atom.grid
    offsets = []  # signed periodic offsets from the cube center, per axis
    for idx, c in zip(atom.axis_idx, atom.cube.center):
        delta = idx * grid.h - c
        offsets.append(delta - np.round(delta))
    out = {}
    for beta in multi_indices(grid.d, L):
        w = reduce(np.multiply.outer, [x**b for x, b in zip(offsets, beta)])
        m = np.tensordot(w, atom.block, axes=grid.d) * grid.cell_volume
        out[beta] = float(np.linalg.norm(m))
    return out


def validate_smooth_atom(atom: SmoothAtom, size_constant: float = 1.0) -> ValidationReport:
    """Clause-by-clause check of an alpha_one / subatom / alpha_q atom."""
    grid = atom.grid
    # the paper's remark fixes support of the pieces in 2Q of their own
    # cubes; the assembled alpha_q atom then lives in the union, inside
    # 4Q_{k,m}; we check it against 2Q of the base cube, which our
    # single-scale construction satisfies.
    clauses = [_support_clause(atom, True, "support_2Q")]
    if atom.kind in ("alpha_one", "subatom"):
        vol = atom.cube.volume
        sizes = _derivative_sizes(atom.embed(), grid, multi_indices(grid.d, atom.K))
        for gamma, s in sizes.items():
            bound = 1.0 + SIZE_SLACK
            if atom.kind == "subatom":
                bound *= vol ** (atom.alpha / grid.d - sum(gamma) / grid.d)
            clauses.append(Clause(f"derivative{gamma}", s <= bound, s, bound))
        if atom.kind == "subatom":
            l1_mass = float(np.sum(np.abs(atom.block))) * grid.cell_volume
            for beta, dev in _moments(atom, atom.L).items():
                bound_m = MOMENT_RTOL * max(l1_mass, 1e-300)
                clauses.append(Clause(f"moment{beta}", dev <= bound_m, dev, bound_m))
    elif atom.kind == "alpha_q":
        full = atom.embed()
        size = _bessel_size(fft_data(full, grid), grid, atom.alpha)
        bound = size_constant * atom.cube.volume**-0.5 * (1.0 + SIZE_SLACK)
        clauses.append(Clause("bessel_size", size <= bound, size, bound))
        coef_l2 = math.sqrt(sum(abs(d) ** 2 for d, _ in atom.subatoms))
        bound_c = atom.cube.volume**-0.5 * (1.0 + SIZE_SLACK)
        clauses.append(Clause("coefficient_l2", coef_l2 <= bound_c, coef_l2, bound_c))
        order_ok = all(subcube_order(sub.cube, atom.cube) for _, sub in atom.subatoms)
        clauses.append(Clause("subcube_order", order_ok, 0.0 if order_ok else 1.0, 0.5))
        recon = periodic_block_sum(
            grid, [(d_c, sub.origin, sub.block) for d_c, sub in atom.subatoms],
            (atom.n, atom.n))
        scale = max(float(np.max(np.abs(full))), 1e-300)
        dev = float(np.max(np.abs(recon - full))) / scale
        clauses.append(Clause("subatom_reconstruction", dev <= 1e-10, dev, 1e-10))
        for _, sub in atom.subatoms:
            rep = validate_smooth_atom(sub)
            clauses.append(
                Clause("subatoms_valid", rep.passed, 0.0 if rep.passed else 1.0, 0.5)
            )
            if not rep.passed:
                break
    else:
        raise ValueError(f"unknown smooth atom kind {atom.kind!r}")
    return ValidationReport(atom.kind, clauses)


def validate_atom(atom, **kwargs) -> ValidationReport:
    """Dispatch on atom type; failures are data, not exceptions."""
    if isinstance(atom, HAtom):
        return validate_h_atom(atom)
    if isinstance(atom, TentAtom):
        return validate_tent_atom(atom, **kwargs)
    if isinstance(atom, SmoothAtom):
        return validate_smooth_atom(atom, **kwargs)
    raise TypeError(f"not an atom: {type(atom)!r}")


# ---------------------------------------------------------------------------
# reproducing system (Calderon-type resolution)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalderonSystem:
    """Level symbols Psi_j (mean-zero, spatial support in the half-cube of
    side 2^-j) plus the exact low-frequency complement phi0."""

    grid: Grid
    n_pow: int
    j_max: int
    level_values: tuple
    phi0_values: np.ndarray
    kappa_gamma: float
    coverage_floor: float
    phi0_tail_mass: float

    def level(self, j: int) -> np.ndarray:
        return self.level_values[j - 1]

    def identity_defect(self) -> float:
        total = np.array(self.phi0_values, copy=True)
        for v in self.level_values:
            total = total + v * v
        return float(np.max(np.abs(total - 1.0)))


def _bump(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = u < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui**2))
    return out


def _stencil(grid: Grid, j: int, n_pow: int, kappa_gamma: float) -> np.ndarray:
    """Spatial level kernel at scale j embedded on the grid (support in the
    closed cube |m| <= N 2^-(j+1) cells, exactly zero mean)."""
    N = grid.N
    R = N >> (j + 1)
    margin = n_pow // 2
    r_cells = R - margin
    if r_cells < 0:
        raise ResolutionError(f"scale j={j} cannot host a stencil with n_pow={n_pow}")
    axis = np.arange(-r_cells, r_cells + 1) if r_cells > 0 else np.array([0])
    mesh = np.meshgrid(*([axis] * grid.d), indexing="ij")
    u = np.sqrt(sum(m.astype(float) ** 2 for m in mesh)) / (r_cells + 1.0)
    rho = (r_cells + 1.0) * grid.h  # continuum support radius of the bump
    kappa = np.exp(-kappa_gamma * u**2) * _bump(u) / rho**grid.d
    # embed and apply the dilated operator (-rho^2 (2 pi)^-2 Delta_h)^(n_pow/2):
    # the rho^2 chain-rule factor keeps the symbol family scale-covariant,
    # Psi_raw_j(xi) ~ Phi_hat(rho_j xi) with O(1) amplitude on its annulus
    full = np.zeros(grid.shape)
    idx = [ax % N for ax in ([axis] * grid.d)]
    full[np.ix_(*idx)] = kappa
    h_sq = grid.h**2
    for _ in range(margin):
        lap = np.zeros_like(full)
        for ax in range(grid.d):
            lap += np.roll(full, 1, axis=ax) + np.roll(full, -1, axis=ax) - 2.0 * full
        full = -lap * rho**2 / ((2.0 * math.pi) ** 2 * h_sq)
    # force an exactly-zero sum (one correction on the center cell)
    s = full.sum()
    full[(0,) * grid.d] -= s
    return full


@lru_cache(maxsize=16)
def calderon_resolution(grid: Grid, n_pow: int = 2, kappa_gamma: float = 2.0,
                        j_max: Optional[int] = None) -> CalderonSystem:
    """Build the discrete reproducing system for the grid.

    Returns level symbols with sum_j Psi_j^2 <= 1 (global normalization by
    the sup of the raw square sum) and phi0 = 1 - sum_j Psi_j^2 exactly.
    Raises ResolutionError when the raw square sum vanishes somewhere on a
    needed annulus.
    """
    if n_pow < 2 or n_pow % 2:
        raise ValueError("n_pow must be a positive even integer >= 2")
    top = lp_family_j_max(grid) if j_max is None else j_max
    raw = []
    for j in range(1, top + 1):
        sten = _stencil(grid, j, n_pow, kappa_gamma)
        sym = np.fft.fftn(sten).real * grid.cell_volume
        raw.append(sym)
    sq = np.zeros(grid.shape)
    for v in raw:
        sq = sq + v * v
    r = grid.freq_norm
    for j in range(1, top + 1):
        annulus = (r >= 2.0 ** (j - 1)) & (r <= 2.0**j)
        if np.any(annulus) and float(np.max(sq[annulus])) <= 0.0:
            raise ResolutionError(f"normalizer vanishes on the annulus of scale j={j}")
    c = float(np.max(sq))
    if c <= 0.0:
        raise ResolutionError("normalizer vanishes identically")
    levels = tuple(np.asarray(v / math.sqrt(c)) for v in raw)
    total = np.zeros(grid.shape)
    for v in levels:
        total = total + v * v
    phi0 = 1.0 - total
    covered = (r >= 1.0) & (r <= 2.0**top)
    floor = float(np.min(total[covered])) if np.any(covered) else 0.0
    # diagnostic: relative spatial mass of phi0's kernel outside |s| <= 1/4
    phi0_spatial = np.fft.ifftn(phi0.astype(complex))
    s_abs = np.sqrt(np.sum(grid.signed_coords**2, axis=-1))
    m_out = float(np.sum(np.abs(phi0_spatial[s_abs > 0.25])))
    m_tot = float(np.sum(np.abs(phi0_spatial)))
    return CalderonSystem(
        grid=grid,
        n_pow=n_pow,
        j_max=top,
        level_values=levels,
        phi0_values=phi0,
        kappa_gamma=kappa_gamma,
        coverage_floor=floor,
        phi0_tail_mass=m_out / m_tot if m_tot > 0 else 0.0,
    )


# ---------------------------------------------------------------------------
# projection from the strip
# ---------------------------------------------------------------------------

def _check_mean_zero_levels(cal: CalderonSystem, scales) -> None:
    for j in scales:
        v = cal.level(j)
        scale = float(np.max(np.abs(v)))
        if scale > 0 and abs(float(v[(0,) * cal.grid.d])) > 1e-12 * scale:
            raise ValidationError(f"level kernel {j} has nonzero mean")


def project_tent(F, cal: CalderonSystem) -> OperatorField:
    """pi(F)(s) = log2 * sum_j (Psi_j * F(., 2^-j))(s).

    For a TentAtom input the output is supported in 2Q (exact stencil
    support), has exactly vanishing mean, and satisfies the L1(M;L2)
    size bound with the measured constant.
    """
    grid = cal.grid
    if isinstance(F, TentAtom):
        scales = [j for j in F.scales if j <= cal.j_max]
        _check_mean_zero_levels(cal, scales)
        hat = np.zeros(grid.shape + (F.n, F.n), dtype=np.complex128)
        for j in scales:
            hat += _piece_transforms(F.block[j - F.j_lo], F.cube, [F.cube], cal.level(j))[0]
        return OperatorField(grid, LOG2 * ifft_data(hat, grid))
    if isinstance(F, StripField):
        if F.grid != grid:
            raise GridMismatchError("strip grid does not match system grid")
        scales = range(1, min(F.j_max, cal.j_max) + 1)
        _check_mean_zero_levels(cal, scales)
        out = np.zeros(grid.shape + (F.n, F.n), dtype=np.complex128)
        for j in scales:
            out += apply_symbol_data(cal.level(j), F.level(j), grid)
        return OperatorField(grid, LOG2 * out)
    raise TypeError("project_tent expects a StripField or TentAtom")


# ---------------------------------------------------------------------------
# constructive tent atomization
# ---------------------------------------------------------------------------

def tent_atomize(F: StripField, rel_size_floor: float = 1e-14) -> list:
    """Exact constructive atomization of a strip field.

    Scale j is partitioned by the dyadic cubes at level j-1; each restricted
    slice is normalized to saturate the tent size condition exactly.  Slices
    whose size falls below ``rel_size_floor`` times the largest slice size
    are dropped (round-off debris, e.g. annulus kernels hitting the mean
    mode); the reconstruction defect this introduces is of the same relative
    order.
    """
    grid = F.grid
    all_sizes = []
    per_scale = []
    for j in range(1, F.j_max + 1):
        level = j - 1
        cubes = dyadic_cubes_at_level(grid, level)
        # cube axes to the front: blocks[i] is the data over cubes[i]
        blocks = np.moveaxis(cube_blocks(F.level(j), grid, level), range(0, 2 * grid.d, 2),
                             range(grid.d))
        blocks = blocks.reshape((len(cubes),) + blocks.shape[grid.d:])
        sizes = l1l2_sizes(blocks.reshape(len(cubes), -1, F.n, F.n), LOG2 * grid.cell_volume)
        per_scale.append((j, blocks, cubes, sizes))
        all_sizes.append(float(sizes.max()) if sizes.size else 0.0)
    top = max(all_sizes) if all_sizes else 0.0
    floor = rel_size_floor * top
    pairs = []
    for j, blocks, cubes, sizes in per_scale:
        for i, cube in enumerate(cubes):
            size = float(sizes[i])
            if size <= floor or size == 0.0:
                continue
            lam = size * math.sqrt(cube.volume)
            atom_block = blocks[i][None] / lam
            pairs.append((lam, TentAtom(cube=cube, j_lo=j, block=atom_block)))
    return pairs


# ---------------------------------------------------------------------------
# smooth decompositions
# ---------------------------------------------------------------------------

def _normalize_alpha_one(low: np.ndarray, grid: Grid, K: int, alpha: float) -> tuple:
    """Normalize phi0 * f into a single (alpha,1)-style unit-cube atom."""
    cube = DyadicCube(grid, 0, (0,) * grid.d)
    sizes = _derivative_sizes(low, grid, multi_indices(grid.d, K))
    mu = max(sizes.values())
    if mu == 0.0:
        return 0.0, None
    atom = SmoothAtom(kind="alpha_one", cube=cube, origin=(0,) * grid.d, block=low / mu,
                      alpha=alpha, K=K)
    return mu, atom


def _subatom_cells(cube: DyadicCube) -> list:
    """Level-(level+1) cubes meeting ``cube`` (up to 3 per axis; fewer when
    the wraparound identifies 2m-1 with 2m+1 at coarse levels)."""
    grid = cube.grid
    lvl = cube.level + 1
    modulus = 1 << lvl
    per_axis = []
    for m in cube.index:
        raw = [(2 * m - 1) % modulus, (2 * m) % modulus, (2 * m + 1) % modulus]
        per_axis.append(sorted(set(raw)))
    return [DyadicCube(grid, lvl, tuple(combo)) for combo in iproduct(*per_axis)]


def _piece_transforms(block: np.ndarray, cube: DyadicCube, cells: list,
                      symbol: np.ndarray) -> np.ndarray:
    """Transforms fft_data(symbol * piece) of the restrictions of ``block``
    (data over ``cube``) to each of ``cells``, made in one batched call;
    shape (len(cells), *grid.shape, n, n).

    When the cells partition the cube, the transforms sum to that of
    symbol * block.
    """
    grid = cube.grid
    idx = cube.axis_indices()
    masked = np.zeros((len(cells),) + grid.shape + block.shape[-2:], dtype=np.complex128)
    for b, cell in enumerate(cells):
        masked[(b,) + np.ix_(*idx)] = block * cell.box_mask(idx)[..., None, None]
    hats = fft_data(masked, grid)
    hats *= symbol[..., None, None]
    return hats


def _slice_alpha_q(tent_block: np.ndarray, lam_scale: float, cube: DyadicCube, j: int,
                   cal: CalderonSystem, alpha: float, K: int, L: int,
                   size_constant: float) -> tuple:
    """Package the projection g = log2 Psi_j * tent_block of single-scale
    tent data over ``cube`` as an alpha_q atom with subatoms.

    The pieces (the block restricted to each subatom cell, projected) are
    transformed in one batched call; every size comes from those transforms,
    their sum is the transform of g, and one batched inverse transform gives
    the pieces, whose sum is g.  Writes the atom normalized so every clause
    passes with constant 1, returning (rescale, SmoothAtom).
    """
    grid = cube.grid
    cells = _subatom_cells(cube)
    gammas = tuple(multi_indices(grid.d, K))
    hats = _piece_transforms(tent_block, cube, cells, LOG2 * cal.level(j))
    n = tent_block.shape[-1]
    sizes = l1l2_sizes(hats.reshape(len(cells), -1, n, n), grid.cell_volume**2,
                       _derivative_weights(grid, gammas))
    g_size = _bessel_size(np.sum(hats, axis=0), grid, alpha)
    rho1 = g_size * math.sqrt(cube.volume) / size_constant
    pieces = ifft_data(hats, grid)
    orders = np.array([sum(gamma) for gamma in gammas], dtype=float)
    sub_pairs = []
    for cell, piece, piece_sizes in zip(cells, pieces, sizes):
        d_c = float(np.max(piece_sizes / cell.volume ** (alpha / grid.d - orders / grid.d)))
        if d_c == 0.0:
            continue
        origin, block, leak = _cut_to_double(piece, cell)
        sub = SmoothAtom(kind="subatom", cube=cell, origin=origin, block=block / d_c,
                         alpha=alpha, K=K, L=L, support_leak=leak)
        sub_pairs.append((d_c, sub))
    # saturation against the atom-level clauses
    rho2 = math.sqrt(sum(d * d for d, _ in sub_pairs)) * math.sqrt(cube.volume)
    rho = max(rho1, rho2)
    if rho <= 1e-250:
        return 0.0, None
    origin, block, leak = _cut_to_double(np.sum(pieces, axis=0), cube)
    atom = SmoothAtom(kind="alpha_q", cube=cube, origin=origin, block=block / rho,
                      alpha=alpha, K=K, L=L,
                      subatoms=[(d / rho, s) for d, s in sub_pairs],
                      support_leak=leak)
    return lam_scale * rho, atom


def _n_pow(alpha: float, L: int) -> int:
    """Default stencil order of the reproducing system for (alpha, L) atoms:
    the least even integer >= max(2, L + 1, ceil(alpha))."""
    return max(2, 2 * ((L + 2) // 2), 2 * ((int(math.ceil(alpha)) + 1) // 2))


def _decompose(f: OperatorField, alpha: Optional[float], K: int, L: int,
               cal: Optional[CalderonSystem], family: Optional[LPFamily],
               compute_norm: bool, high_atoms) -> AtomicDecomposition:
    """Body of the smooth decompositions at p = 1; ``alpha`` None is the local
    Hardy space, the alpha = 0, L = -1 case whose strip weights 4^0 = 1 are
    exact.

    Split f = phi0*f + sum_j Psi_j*(Psi_j*f): the low part becomes one
    smooth unit-cube atom, the strip part weighted by 2^(j alpha) is
    tent-atomized, and ``high_atoms(tent_pairs, cal)`` packages the tent atoms
    as (coefficient, atom) pairs, dropped where the atom is None.  Tent
    atoms whose coefficient is round-off debris against ||f||_2 (e.g.
    annulus kernels applied to the mean mode) are dropped first.
    """
    from .normsuite import hardy_norm, tl_norm_column
    from .spectral import make_lp_family

    grid = f.grid
    weight = 0.0 if alpha is None else alpha
    if cal is None:
        cal = calderon_resolution(grid, n_pow=_n_pow(weight, L))
    energy = float(np.sum(np.abs(f.data) ** 2))
    fhat = fft_data(f.data, grid)
    F = StripField(grid, np.stack(
        [4.0 ** (j * weight / 2.0) * apply_symbol_hat(cal.level(j), fhat, grid)
         for j in range(1, cal.j_max + 1)]))
    floor = 1e-14 * math.sqrt(energy * grid.cell_volume)
    tent_pairs = [(lam, t) for lam, t in tent_atomize(F) if abs(lam) > floor]
    low = apply_symbol_hat(cal.phi0_values, fhat, grid)
    mu, low_atom = _normalize_alpha_one(low, grid, K, alpha=weight)
    high_pairs = [(c, atom) for c, atom in high_atoms(tent_pairs, cal) if atom is not None]
    dec = AtomicDecomposition(
        grid=grid, n=f.n, alpha=alpha,
        low_pairs=[] if low_atom is None else [(mu, low_atom)], high_pairs=high_pairs,
        tent_pairs=tent_pairs, residual=0.0, source_norm=None, mass_ratio=None,
    )
    rec = dec.reconstruct()
    denom = math.sqrt(energy)
    dev = math.sqrt(float(np.sum(np.abs(rec.data - f.data) ** 2)))
    dec.residual = dev / denom if denom > 0 else dev
    if compute_norm and denom > 0:
        fam = family if family is not None else make_lp_family(grid)
        if alpha is None:
            dec.source_norm = hardy_norm(f, 1.0, mode="lp", family=fam).value
        else:
            dec.source_norm = tl_norm_column(f, alpha, 1.0, fam).value
        dec.mass_ratio = dec.mass / dec.source_norm if dec.source_norm > 0 else None
    return dec


def smooth_decompose_h1(f: OperatorField, cal: Optional[CalderonSystem] = None,
                        K: int = 1, family: Optional[LPFamily] = None,
                        compute_norm: bool = True) -> AtomicDecomposition:
    """Smooth atomic decomposition of the local Hardy space at p = 1.

    The low part of f becomes one smooth unit-cube atom; each tent atom of
    the strip part is projected to a mean-zero smooth atom supported in 2Q
    and stored on its 2Q block.
    """
    def high_atoms(tent_pairs, cal):
        cuts = [_cut_to_double(project_tent(atom, cal).data, atom.cube) for _, atom in tent_pairs]
        sizes = []  # one size call per run of equal 2Q block shapes (a level)
        for _, run in groupby([block for _, block, _ in cuts], key=np.shape):
            blocks = np.stack(list(run))
            sizes += l1l2_sizes(blocks.reshape(len(blocks), -1, f.n, f.n),
                                f.grid.cell_volume).tolist()
        for (lam, atom), (origin, block, leak), size in zip(tent_pairs, cuts, sizes):
            rho = size / atom.cube.volume**-0.5
            yield (0.0, None) if rho <= 1e-250 else (lam * rho / LOG2, HAtom(
                cube=atom.cube, block=block / rho, double_support=True, origin=origin,
                support_leak=leak))

    return _decompose(f, None, K, -1, cal, family, compute_norm, high_atoms)


def required_k_floor(alpha: float) -> int:
    return max(int(math.floor(alpha)) + 1, 0)


def required_l_floor(alpha: float) -> int:
    # at alpha = 0 exactly, L = -1 is admitted (h1-compatible degeneration:
    # the projected atoms carry exact zero mean by construction)
    if alpha == 0.0:
        return -1
    return max(int(math.floor(-alpha)), -1)


def smooth_decompose_tl(f: OperatorField, alpha: float, K: int, L: int,
                        cal: Optional[CalderonSystem] = None,
                        family: Optional[LPFamily] = None,
                        size_constant: float = 1.0,
                        compute_norm: bool = True) -> AtomicDecomposition:
    """Smooth atomic decomposition of the smoothness-alpha space at p = 1,
    with (alpha,1)-atoms for the low part and (alpha,Q)-atoms with subatom
    trees for the strip part."""
    if K < required_k_floor(alpha):
        raise ParameterError(f"K must be >= {required_k_floor(alpha)} for alpha={alpha}")
    if L < required_l_floor(alpha):
        raise ParameterError(f"L must be >= {required_l_floor(alpha)} for alpha={alpha}")

    def high_atoms(tent_pairs, cal):
        for lam, atom in tent_pairs:
            j = atom.j_lo
            yield _slice_alpha_q(atom.block[0] * 2.0 ** (-j * alpha), lam / LOG2, atom.cube, j,
                                 cal, alpha, K, L, size_constant)

    return _decompose(f, alpha, K, L, cal, family, compute_norm, high_atoms)


# ---------------------------------------------------------------------------
# pointwise multipliers
# ---------------------------------------------------------------------------

def pointwise_multiply_test(h: OperatorField, f: OperatorField, alpha: float,
                            family: LPFamily, k_der: int = 2,
                            margin: float = 10.0) -> dict:
    """Measure ||h f||_{F1^alpha} / ||f||_{F1^alpha} against the derivative
    bound sum_{|gamma|_1 <= k} sup_s ||D^gamma h(s)||_op."""
    from .normsuite import tl_norm_column

    grid = f.grid
    hf = OperatorField(grid, h.data @ f.data)
    num = tl_norm_column(hf, alpha, 1.0, family).value
    den = tl_norm_column(f, alpha, 1.0, family).value
    ratio = num / den if den > 0 else 0.0
    bound = 0.0
    for gamma in multi_indices(grid.d, k_der):
        dg = apply_symbol_data(multi_derivative_symbol(grid, gamma).values, h.data, grid)
        bound += trace_lp_norm(OperatorField(grid, dg), np.inf)
    return {
        "ratio": ratio,
        "derivative_bound": bound,
        "margin": margin,
        "passed": bool(ratio <= margin * bound),
        "alpha": alpha,
        "k": k_der,
    }


# ---------------------------------------------------------------------------
# atom generators (converse-direction experiments)
# ---------------------------------------------------------------------------

def random_alpha_one_atom(grid: Grid, n: int, alpha: float, K: int, seed: int,
                          band_radius: Optional[float] = None) -> SmoothAtom:
    """Band-limited random field normalized to saturate the worst derivative
    clause of an (alpha,1)-atom."""
    from .generators import band_limited_random

    r_max = grid.N / 8.0 if band_radius is None else band_radius
    f = band_limited_random(grid, n, seed, r_max=r_max)
    _, atom = _normalize_alpha_one(np.asarray(f.data), grid, K, alpha)
    if atom is None:
        raise ValueError("degenerate random atom")
    return atom


def random_alpha_q_atom(grid: Grid, n: int, alpha: float, K: int, L: int,
                        level: int, seed: int,
                        cal: Optional[CalderonSystem] = None,
                        size_constant: float = 1.0) -> SmoothAtom:
    """Random tent atom on a random cube at ``level``, pushed through the
    projection + subatom slicing; every clause saturated at constant 1."""
    from .generators import rng_for

    if cal is None:
        cal = calderon_resolution(grid, n_pow=_n_pow(alpha, L))
    j = level + 1
    if j > cal.j_max:
        raise ResolutionError(f"level {level} needs scale {j} > system j_max {cal.j_max}")
    rng = rng_for(seed)
    idx = tuple(int(rng.integers(0, 1 << level)) for _ in range(grid.d))
    cube = DyadicCube(grid, level, idx)
    side = cube.side_cells
    block = rng.normal(size=(side,) * grid.d + (n, n)) + 1j * rng.normal(
        size=(side,) * grid.d + (n, n)
    )
    # saturate the weighted tent size (the eps^-alpha weighted bound)
    size = float(l1l2_sizes(block.reshape(-1, n, n), LOG2 * grid.cell_volume * 4.0 ** (j * alpha)))
    block = block / (size * math.sqrt(cube.volume))
    _, atom = _slice_alpha_q(block, 1.0, cube, j, cal, alpha, K, L, size_constant)
    return atom
