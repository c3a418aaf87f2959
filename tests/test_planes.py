"""The planar square-function engine against its point-major oracles.

Every Gram and root trace of the package runs on planes (n, n, *points).
``helpers.point_major_kernels`` swaps in the point-major kernels the planar
ones replaced (``helpers.gram_into_reference`` and
``helpers.root_traces_reference``), which read every block as one n x n
matrix; each norm, certificate and kernel below must give the same bits
either way.
"""

import math
import time

import numpy as np
import pytest

from ovtl import opfield
from ovtl.fmult import bessel_dilate_sequence, empirical_conic_bound, empirical_square_bound
from ovtl.generators import band_limited_random, band_limited_spectrum, rng_for
from ovtl.lattice import Grid, cone_index
from ovtl.normsuite import (
    bmo_norm,
    hardy_norm,
    tent_norm,
    tl_infty_norm,
    tl_norm_column,
    tl_norm_mixture,
    tl_norm_row,
)
from ovtl.opfield import PSDAccumulator, as_blocks, gram, psd_root_norm, to_planes
from ovtl.spectral import fft_data, make_lp_family
from ovtl.sqfn import lp_levels, square_norm
from helpers import (
    gram_into_reference,
    point_major_kernels,
    random_strip,
    root_traces_reference,
)

# 4096 points, the largest stacks summed inline: one row block of every kernel
EXACT = [Grid(1, 4096), Grid(2, 64), Grid(3, 16)]


def _norms(f, p):
    fam = make_lp_family(f.grid)
    reports = [tl_norm_column(f, 0.5, p, fam), tl_norm_row(f, 0.5, p, fam),
               tl_norm_mixture(f, 0.5, p, fam), bmo_norm(f), tl_infty_norm(f, 0.5, fam)]
    for mode in ("lp", "poisson"):
        for shape in ("radial", "conic"):
            reports.append(hardy_norm(f, p, fam, mode=mode, shape=shape))
    return reports


def _bits(reports) -> list:
    return [(r.to_text(), r.value.hex(),
             [v.hex() for v in r.terms.values() if isinstance(v, float)]) for r in reports]


@pytest.mark.parametrize("p", [1.0, 3.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("grid", EXACT, ids=lambda g: f"d{g.d}-N{g.N}")
def test_norms_match_point_major_kernels(monkeypatch, grid, n, p):
    f = band_limited_random(grid, n, 1100 + 10 * grid.d + n)
    planar = _bits(_norms(f, p))
    point_major_kernels(monkeypatch)
    assert planar == _bits(_norms(f, p))


@pytest.mark.parametrize("n", [2, 4])
def test_queued_norms_match_point_major_kernels(monkeypatch, n):
    # 16,384 points: every level's Gram is queued on the helper thread
    grid = Grid(2, 128)
    helper, queued = opfield._HELPER, []

    class Counting:
        def submit(self, fn, *args):
            queued.append(fn)
            return helper.submit(fn, *args)

    monkeypatch.setattr(opfield, "_HELPER", Counting())
    fam = make_lp_family(grid)
    f = band_limited_random(grid, n, 1150 + n)

    def norms():
        return [tl_norm_column(f, 0.5, 1.0, fam), tl_norm_mixture(f, 0.5, 1.0, fam),
                hardy_norm(f, 1.0, fam), bmo_norm(f), tl_infty_norm(f, 0.5, fam)]

    planar = _bits(norms())
    assert len(queued) >= 4 * (fam.j_max + 1)
    point_major_kernels(monkeypatch)
    assert planar == _bits(norms())


@pytest.mark.parametrize("p", [1.0, 3.0, np.inf])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 16), Grid(3, 16)],
                         ids=lambda g: f"d{g.d}-N{g.N}")
def test_tent_matches_point_major_kernels(monkeypatch, grid, n, p):
    F = random_strip(grid, n, 2, 1200 + n)
    planar = tent_norm(F, p).value
    point_major_kernels(monkeypatch)
    assert planar.hex() == tent_norm(F, p).value.hex()


@pytest.mark.parametrize("conic", [False, True], ids=["radial", "conic"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [1.0, 3.0])
def test_certificates_match_point_major_kernels(monkeypatch, conic, n, p):
    grid = Grid(2, 64)
    seq = bessel_dilate_sequence(grid, 1.0)
    cone = cone_index(grid, make_lp_family(grid).j_max) if conic else None

    def certificate():
        def gen(t):
            return band_limited_spectrum(grid, n, 1300 + t)
        if cone is None:
            return empirical_square_bound(seq, gen, 0.5, p, trials=2, sigma=1.5)
        return empirical_conic_bound(seq, gen, 0.5, p, cone, trials=2, sigma=1.5)

    planar = certificate()
    point_major_kernels(monkeypatch)
    oracle = certificate()
    assert planar.to_text() == oracle.to_text()
    assert [r.hex() for r in planar.per_trial] == [r.hex() for r in oracle.per_trial]


def test_late_queued_conic_gram_matches_point_major_kernels(monkeypatch):
    # 16,384 points: the j = 0 Gram of a conic sum is queued on the helper
    # thread, and a late start must still find level 0 as it was filtered
    # while levels j >= 1 are summed inline
    grid = Grid(2, 128)
    helper, queued = opfield._HELPER, []

    class Late:
        def submit(self, fn, *args):
            def late():
                time.sleep(0.05)
                return fn(*args)
            queued.append(fn)
            return helper.submit(late)

    fam = make_lp_family(grid)
    seq = bessel_dilate_sequence(grid, 1.0)
    cone = cone_index(grid, fam.j_max)
    f = band_limited_random(grid, 2, 1350)

    def results():
        cert = empirical_conic_bound(seq, lambda t: band_limited_spectrum(grid, 2, 1360 + t),
                                     0.5, 3.0, cone, trials=2, sigma=1.5)
        hardy = hardy_norm(f, 3.0, fam, shape="conic")
        return cert.to_text(), [r.hex() for r in cert.per_trial], _bits([hardy])

    monkeypatch.setattr(opfield, "_HELPER", Late())
    planar = results()
    assert queued
    monkeypatch.setattr(opfield, "_HELPER", helper)
    point_major_kernels(monkeypatch)
    assert planar == results()


# stacks on both sides of the 4096-point row blocks
STACKS = [100, 4095, 4096, 4097, 8193]


def _cplx(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("points", STACKS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gram_kernel_matches_point_major_oracle(n, points):
    rng = rng_for(1400 + n)
    x, S0 = _cplx(rng, points, n, n), _cplx(rng, points, n, n)
    want = gram_into_reference(np.empty_like(x), x)
    assert gram(x).tobytes() == want.tobytes()
    for weight in (None, 0.7):
        for row in (False, True):  # the row side reads blocks and planes transposed
            blocks_axes, planes_axes = ((0, 2, 1), (1, 0, 2)) if row else ((0, 1, 2),) * 2
            want = S0.copy()
            gram_into_reference(want.transpose(blocks_axes), x.transpose(blocks_axes), weight)
            got = to_planes(S0)
            opfield._gram_into(got.transpose(planes_axes), to_planes(x).transpose(planes_axes),
                               weight)
            assert as_blocks(got).tobytes() == want.tobytes(), (weight, row)


@pytest.mark.parametrize("points", STACKS)
@pytest.mark.parametrize("n", [3, 4])
def test_root_traces_match_point_major_oracle(n, points):
    rng = rng_for(1450 + n)
    x = _cplx(rng, points, n, n)
    x[::3] *= 1e-200  # blocks of their own row-block scale
    x[::7, :, 0] *= 1e-9  # ill-conditioned blocks, left to LAPACK
    S = gram(x)
    got, want = opfield._root_traces(to_planes(S)), root_traces_reference(S)
    assert got[0].hex() == want[0].hex()
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("points", STACKS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_root_norms_match_point_major_kernels(monkeypatch, n, points):
    rng = rng_for(1500 + n)
    x = _cplx(rng, points, n, n)
    x[::5, 0] *= 1e-6
    S = to_planes(gram(x))
    planar = [psd_root_norm(S, p, 1.0 / points).hex() for p in (1.0, 2.0, 3.0, np.inf)]
    point_major_kernels(monkeypatch)
    assert planar == [psd_root_norm(S, p, 1.0 / points).hex() for p in (1.0, 2.0, 3.0, np.inf)]


def test_accumulator_is_a_view_of_its_planes():
    grid = Grid(2, 64)
    g = to_planes(band_limited_random(grid, 3, 1550).data)
    acc = PSDAccumulator(grid, 3).add_gram(g, 0.5).add_gram(g, 2.0, row=True)
    S = as_blocks(acc.planes)
    assert np.shares_memory(S, acc.planes)
    assert S.shape == grid.shape + (3, 3) and acc.planes.shape == (3, 3) + grid.shape


def test_two_by_two_entry_sum_is_in_order():
    # np.sum over the four entries of a 2 x 2 block adds them in order, so
    # the n = 2 closed forms sum their planes in order
    rng = rng_for(1600)
    x = rng.normal(size=(513, 2, 2)) * 10.0 ** rng.integers(-8, 8, size=(513, 2, 2))
    planes = np.moveaxis(x, 0, -1)
    got = planes[0, 0] + planes[0, 1] + planes[1, 0] + planes[1, 1]
    assert got.tobytes() == np.sum(x, axis=(-2, -1)).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("grid", EXACT, ids=lambda g: f"d{g.d}-N{g.N}")
def test_plancherel_square_norm_matches_point_major_sum(grid, n):
    # p = 2 sums ||fhat||_HS^2 over a point-major copy of the planes
    fam = make_lp_family(grid)
    levels = lp_levels(fam, 0.5)
    fhat = fft_data(band_limited_random(grid, n, 1650 + n).data, grid)
    fhat *= 10.0 ** rng_for(1660 + n).integers(-6, 7, size=fhat.shape)  # entries far apart
    W = sum(w * np.abs(sym.values) ** 2 for _, w, sym in levels)
    hs = np.sum(fhat.real**2 + fhat.imag**2, axis=(-2, -1))
    want = math.sqrt(float(np.sum(W * hs)) * grid.cell_volume / grid.N**grid.d)
    assert square_norm(to_planes(fhat), grid, levels, 2.0).hex() == want.hex()
