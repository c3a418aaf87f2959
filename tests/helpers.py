"""Test-data generators and oracle helpers that no command reaches.

Random strips, unitaries and atoms feed the tests; the remaining helpers
restate quantities of the package's objects (the Calderon identity defect,
the LP sandwich floor, a ball's lattice measure, the Cauchy-Schwarz scale)
for tests to check against.
"""

import math

import numpy as np

from ovtl.atomics import (
    CalderonSystem,
    SmoothAtom,
    _alpha_q_atoms,
    _n_pow,
    _normalize_alpha_one,
    calderon_resolution,
)
from ovtl.errors import ResolutionError
from ovtl.fmult import SymbolSequence
from ovtl.generators import band_limited_random, rng_for
from ovtl.lattice import ConeIndex, DyadicCube, Grid
from ovtl.opfield import OperatorField, StripField, _max_eigenvalue, gram, l1l2_sizes
from ovtl.spectral import LPFamily
from ovtl.sqfn import LOG2


def random_strip(grid: Grid, n: int, j_max: int, seed: int) -> StripField:
    """I.i.d. complex Gaussian strip field on all (site, scale) cells."""
    rng = rng_for(seed)
    shape = (j_max,) + grid.shape + (n, n)
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return StripField(grid, data / np.sqrt(2.0))


def random_unitary(n: int, seed: int) -> np.ndarray:
    rng = rng_for(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_alpha_one_atom(grid: Grid, n: int, alpha: float, K: int, seed: int) -> SmoothAtom:
    """Band-limited random field (|xi| <= N/8) normalized to saturate the
    worst derivative clause of an (alpha,1)-atom."""
    f = band_limited_random(grid, n, seed, r_max=grid.N / 8.0)
    _, atom = _normalize_alpha_one(np.asarray(f.data), grid, K, alpha)
    if atom is None:
        raise ValueError("degenerate random atom")
    return atom


def random_alpha_q_atom(grid: Grid, n: int, alpha: float, K: int, L: int,
                        level: int, seed: int) -> SmoothAtom:
    """Random tent atom on a random cube at ``level``, pushed through the
    projection + subatom slicing; every clause saturated at constant 1."""
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
    return _alpha_q_atoms([block], [cube], j, cal, alpha, K, L)[0][1]


def atom_field(atom) -> OperatorField:
    """A stored atom embedded on the whole grid."""
    return OperatorField(atom.grid, atom.embed())


def identity_defect(cal: CalderonSystem) -> float:
    """max |phi0 + sum_j Psi_j^2 - 1| over the grid."""
    total = np.array(cal.phi0_values, copy=True)
    for v in cal.level_values:
        total = total + v * v
    return float(np.max(np.abs(total - 1.0)))


def scaled_sequence(seq: SymbolSequence, c: float) -> SymbolSequence:
    return SymbolSequence(
        seq.grid,
        tuple(p.scale(c) for p in seq.phi_profiles),
        seq.rho_profiles,
        name=f"{seq.name}*{c}",
        rho_is_dilate_family=seq.rho_is_dilate_family,
    )


def ball_measure(cone: ConeIndex, j: int) -> float:
    """Discrete ball measure |B_j| * h^d."""
    return cone.offsets[j].shape[0] * cone.grid.cell_volume


def hs_norm_sq(f: OperatorField) -> float:
    """Squared L_2 norm  sum_s h^d ||f(s)||_HS^2 (fixed summation order)."""
    return float(np.sum(np.abs(f.data) ** 2)) * f.grid.cell_volume


def op_cauchy_schwarz_scale(phi: np.ndarray, f: OperatorField) -> float:
    """Natural scale for the Cauchy-Schwarz gap: ||int|phi|^2 int f*f||_op."""
    h_d = f.grid.cell_volume
    phi_sq = float(np.sum(np.abs(phi) ** 2)) * h_d
    gram_int = np.sum(gram(f.data), axis=f.grid.spatial_axes) * h_d
    return _max_eigenvalue(gram_int) * phi_sq if phi_sq else 0.0


# width (in the transition variable t) of the boundary zone where the exact
# bump value of each eta profile kind lies below the float64 subnormal floor
_POSITIVITY_MARGIN = {"default": 0.002, "poly": 1e-9}


def lp_positivity_margin(kind: str = "default") -> float:
    """Width (in the transition variable) of the boundary zone where the
    exact bump value lies below the float64 subnormal floor."""
    return _POSITIVITY_MARGIN[kind]


def square_sum(family: LPFamily) -> np.ndarray:
    """sum_j phi^(j)(xi)^2 over the members of the family."""
    total = np.zeros(family.grid.shape)
    for s in family.symbols:
        total = total + s.values.real**2
    return total


def sandwich_floor(family: LPFamily) -> float:
    """c_0^2 = min over covered frequencies of sum_j phi^(j)(xi)^2."""
    return float(np.min(square_sum(family)[family.covered_mask()]))
