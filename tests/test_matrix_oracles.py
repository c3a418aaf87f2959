"""Exact oracles for matrix-valued (n >= 2) norms.

Block-diagonal reduction: for f = diag(f_1, f_2) every pointwise block the
norms build is diagonal, so the trace-L_p norms split as
||.||_p^p = sum_i ||f_i||_p^p, and bmo and each term of the sup norm
(the phi_0 sup and the Carleson sup) are the max over i.  The scalar norms
come from the independent n = 1 reference in ``scalar_reference``; the
cube sups also run at d = 3, where each axis's half-side shift of the
cubes is placed separately.

Unitary invariance: for constant unitaries U and V, |phi * (U f V)|^2 =
V* |phi * f|^2 V, so every column, row, Hardy, bmo and sup norm of U f V
equals that of f.
"""

import numpy as np
import pytest

import scalar_reference as ref
from ovtl.generators import band_limited_random
from ovtl.lattice import Grid
from ovtl.normsuite import (
    bmo_norm,
    hardy_norm,
    tl_infty_norm,
    tl_norm_column,
    tl_norm_mixture,
    tl_norm_row,
)
from ovtl.opfield import OperatorField
from ovtl.spectral import make_lp_family
from helpers import random_unitary

GRIDS = [Grid(1, 64), Grid(2, 32)]
CUBE_GRIDS = GRIDS + [Grid(3, 16)]
REL = 1e-10


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(b), 1e-300)


def _block_diagonal(grid: Grid, seed: int):
    parts = [band_limited_random(grid, 1, seed + i).data[..., 0, 0] for i in range(2)]
    data = np.zeros(grid.shape + (2, 2), dtype=complex)
    data[..., 0, 0], data[..., 1, 1] = parts
    return OperatorField(grid, data), parts


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"d{g.d}-N{g.N}")
@pytest.mark.parametrize("p", [1.0, 3.0])
def test_block_diagonal_reduction(grid, p):
    fam = make_lp_family(grid)
    symbols = [np.asarray(fam.values(j)) for j in range(fam.j_max + 1)]
    h_d = grid.cell_volume
    f, parts = _block_diagonal(grid, 1200)

    def split(value: float, scalar_values: list) -> bool:
        return _close(value**p, sum(v**p for v in scalar_values))

    assert split(tl_norm_column(f, 0.5, p, fam).value,
                 [ref.tl_column(s, 0.5, p, symbols, h_d) for s in parts])
    assert split(tl_norm_row(f, 0.5, p, fam).value,
                 [ref.tl_row(s, 0.5, p, symbols, h_d) for s in parts])
    radial = hardy_norm(f, p, mode="lp", family=fam)
    assert split(radial.terms["square_function"],
                 [ref.hardy_lp_radial(s, p, symbols, h_d) for s in parts])
    low = [ref.lp_norm(ref.convolve(s, symbols[0]), p, h_d) for s in parts]
    assert split(radial.terms["low_frequency"], low)
    conic = hardy_norm(f, p, mode="lp", shape="conic", family=fam)
    weights = [2.0 ** (j * grid.d) for j in range(1, len(symbols))]
    assert split(conic.terms["square_function"],
                 [ref.lp_norm(ref.conic_square_function(s, symbols[1:], weights,
                                                        grid.d, grid.N), p, h_d)
                  for s in parts])
    assert split(conic.terms["low_frequency"], low)


@pytest.mark.parametrize("grid", CUBE_GRIDS, ids=lambda g: f"d{g.d}-N{g.N}")
def test_block_diagonal_bmo_is_max(grid):
    f, parts = _block_diagonal(grid, 1300)
    assert _close(bmo_norm(f).value, max(ref.bmo(s, grid.d, grid.N) for s in parts))


@pytest.mark.parametrize("grid", CUBE_GRIDS, ids=lambda g: f"d{g.d}-N{g.N}")
def test_block_diagonal_tl_infty_terms_are_max(grid):
    fam = make_lp_family(grid)
    symbols = [np.asarray(fam.values(j)) for j in range(fam.j_max + 1)]
    f, parts = _block_diagonal(grid, 1350)
    rep = tl_infty_norm(f, 0.5, fam)
    low, carleson = zip(*(ref.tl_infty_terms(s, 0.5, symbols, grid.d, grid.N) for s in parts))
    assert _close(rep.terms["phi0_sup"], max(low))
    assert _close(rep.terms["carleson_sup"], max(carleson))


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"d{g.d}-N{g.N}")
@pytest.mark.parametrize("n", [2, 3])
def test_unitary_invariance(grid, n):
    fam = make_lp_family(grid)
    f = band_limited_random(grid, n, 1400 + n)
    U, V = random_unitary(n, 1500 + n), random_unitary(n, 1600 + n)
    g = OperatorField(grid, U @ f.data @ V)
    norms = [
        lambda h: tl_norm_column(h, 0.5, 1.0, fam).value,
        lambda h: tl_norm_mixture(h, 0.5, 1.0, fam).value,
        lambda h: tl_norm_mixture(h, 0.5, 3.0, fam).value,
        lambda h: hardy_norm(h, 1.0, mode="lp", family=fam).value,
        lambda h: hardy_norm(h, 1.0, mode="lp", shape="conic", family=fam).value,
        lambda h: hardy_norm(h, 2.0, mode="poisson", family=fam).value,
        lambda h: bmo_norm(h).value,
        lambda h: tl_infty_norm(h, 0.5, fam).value,
    ]
    for k, norm in enumerate(norms):
        assert _close(norm(g), norm(f), 1e-12), k
