import math

import numpy as np
import pytest

from ovtl import spectral
from ovtl.atomics import calderon_resolution
from ovtl.errors import ResolutionError
from ovtl.fmult import bessel_dilate_sequence, identity_sequence
from ovtl.lattice import Grid
from ovtl.opfield import OperatorField, as_blocks, as_planes, to_planes
from ovtl.generators import band_limited_random, rng_for, single_mode
from ovtl.spectral import (
    LPFamily,
    Symbol,
    apply_symbol,
    apply_symbol_hat,
    bessel_symbol,
    constant_profile,
    derivative_symbol,
    fft_data,
    filter_planes,
    ifft_data,
    hsigma_norm_profile,
    lp_base_profile,
    lp_family_j_max,
    make_hom_lp_family,
    make_lp_family,
    poisson_dk_symbol,
    poisson_symbol,
    riesz_symbol,
)
from ovtl.sqfn import filtered, lp_levels
from helpers import constant_field, fft_forward, fft_inverse, hs_norm_sq, lp_positivity_margin


def test_fft_single_mode(grid64):
    f = single_mode(grid64, 2, (4,))
    fh = fft_forward(f).data
    assert abs(fh[4, 0, 0] - 1.0) < 1e-12
    rest = np.delete(fh, 4, axis=0)
    assert np.max(np.abs(rest)) < 1e-12


def test_fft_constant(grid64):
    A = np.array([[1.0, 2.0], [0.0, 1.0j]])
    f = constant_field(grid64, A)
    fh = fft_forward(f).data
    assert np.max(np.abs(fh[0] - A)) < 1e-12
    assert np.max(np.abs(fh[1:])) < 1e-12


def test_fft_roundtrip_and_plancherel(grid64):
    for seed in range(5):
        f = band_limited_random(grid64, 2, 700 + seed)
        fh = fft_forward(f)
        back = fft_inverse(fh)
        scale = np.max(np.abs(f.data))
        assert np.max(np.abs(back.data - f.data)) < 1e-12 * scale
        lhs = hs_norm_sq(f)
        rhs = float(np.sum(np.abs(fh.data) ** 2))
        assert abs(lhs - rhs) < 1e-12 * lhs


def test_plancherel_against_direct_dft():
    # direct O(N^2) double-sum oracle at the smallest grid
    g = Grid(1, 16)
    rng = rng_for(9)
    data = rng.normal(size=(16, 1, 1)) + 1j * rng.normal(size=(16, 1, 1))
    f = OperatorField(g, data)
    s = np.arange(16) / 16.0
    direct = np.zeros(16, dtype=complex)
    for i, xi in enumerate(g.freq_axis):
        direct[i] = np.sum(data[:, 0, 0] * np.exp(-2j * np.pi * s * xi)) / 16.0
    fh = fft_forward(f).data[:, 0, 0]
    assert np.max(np.abs(fh - direct)) < 1e-13


def test_apply_symbol_identity(grid64):
    f = band_limited_random(grid64, 2, 13)
    one = Symbol(grid64, np.ones(grid64.shape))
    out = apply_symbol(one, f)
    assert np.max(np.abs(out.data - f.data)) < 1e-13


def test_bessel_roundtrip(grid64):
    f = band_limited_random(grid64, 2, 14)
    out = apply_symbol(bessel_symbol(grid64, -0.8), apply_symbol(bessel_symbol(grid64, 0.8), f))
    assert np.max(np.abs(out.data - f.data)) < 1e-11 * np.max(np.abs(f.data))


def test_bessel_single_mode_scaling(grid64):
    k = 5
    f = single_mode(grid64, 1, (k,))
    out = apply_symbol(bessel_symbol(grid64, 1.4), f)
    factor = (1 + k * k) ** 0.7
    assert np.max(np.abs(out.data - factor * f.data)) < 1e-11 * factor


def test_bessel_composition_exact(grid64):
    a = bessel_symbol(grid64, 0.6).values * bessel_symbol(grid64, 1.1).values
    b = bessel_symbol(grid64, 1.7).values
    assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))


def test_symbol_composition_property(grid64):
    f = band_limited_random(grid64, 2, 15)
    m1 = bessel_symbol(grid64, 0.9)
    m2 = riesz_symbol(grid64, 1.0)
    lhs = apply_symbol(m1, apply_symbol(m2, f))
    rhs = apply_symbol(Symbol(grid64, m1.values * m2.values), f)
    assert np.max(np.abs(lhs.data - rhs.data)) < 1e-11 * np.max(np.abs(rhs.data))


def test_riesz_zero_mode(grid64):
    assert riesz_symbol(grid64, -1.0).values[0] == 0.0
    assert riesz_symbol(grid64, 1.0).values[0] == 0.0


def test_derivative_consistency_single_mode(grid64):
    k = 3
    f = single_mode(grid64, 1, (k,))
    for beta in (1, 2):
        out = apply_symbol(derivative_symbol(grid64, 0, beta), f)
        expected = (2j * np.pi * k) ** beta
        assert np.max(np.abs(out.data - expected * f.data)) < 1e-10 * abs(expected)


def test_derivative_principal_branch(grid64):
    sym = derivative_symbol(grid64, 0, 0.5)
    k = 4
    t = 2 * np.pi * k
    expected = math.sqrt(t) * np.exp(1j * np.pi * 0.25)
    assert abs(sym.values[k] - expected) < 1e-12 * abs(expected)
    assert abs(sym.values[-k] - math.sqrt(t) * np.exp(-1j * np.pi * 0.25)) < 1e-12 * t


# ---------------------------------------------------------------------------
# LP families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["default", "poly"])
def test_lp_family_invariants(grid128, kind):
    fam = make_lp_family(grid128, kind)
    part = fam.partition_sum()
    cov = fam.covered_mask()
    assert np.max(np.abs(part[cov] - 1.0)) <= 1e-14
    r = grid128.freq_norm
    for j in range(1, fam.j_max + 1):
        vals = fam.values(j).real
        outside = (r < 2.0 ** (j - 1)) | (r > 2.0 ** (j + 1))
        assert np.all(vals[outside] == 0.0)
        assert vals.min() >= 0.0 and vals.max() <= 1.0 + 1e-12
    vals0 = fam.values(0).real
    assert np.all(vals0[r > 2.0] == 0.0)
    assert np.all(vals0[r <= 1.0] == 1.0)


@pytest.mark.parametrize("kind", ["default", "poly"])
def test_lp_family_positivity_inside_annuli(grid128, kind):
    fam = make_lp_family(grid128, kind)
    margin = lp_positivity_margin(kind)
    r = grid128.freq_norm
    for j in range(1, fam.j_max + 1):
        x = r * 2.0**-j
        resolvable = (2 * x >= 1.0 + margin) & (x <= 2.0 - margin) & (x > 0.5) & (x < 2.0)
        vals = fam.values(j).real
        assert np.all(vals[resolvable] > 0.0)


def test_lp_phi2_at_radius4(grid64):
    fam = make_lp_family(grid64)
    assert fam.values(2)[4] == 1.0
    assert fam.values(2)[-4] == 1.0


def test_lp_phi0_inside_unit(grid64):
    fam = make_lp_family(grid64)
    r = grid64.freq_norm
    assert np.all(fam.values(0).real[r <= 1.0] == 1.0)


def test_lp_family_smallest_grid():
    fam = make_lp_family(Grid(1, 16))
    assert fam.j_max == 2  # floor(log2(16/4))
    assert np.max(np.abs(fam.partition_sum()[fam.covered_mask()] - 1.0)) <= 1e-14


def test_lp_family_built_once_per_grid_and_kind():
    grid = Grid(1, 32)
    before = make_lp_family.cache_info()
    fam = make_lp_family(grid)
    assert make_lp_family(grid, "default") is fam
    assert make_lp_family(grid, kind="default") is fam
    after = make_lp_family.cache_info()
    assert after.misses - before.misses <= 1 and after.hits - before.hits >= 2
    assert make_lp_family(grid, "poly") is not fam


def test_hom_family_partition(grid64):
    hom = make_hom_lp_family(grid64)
    part = hom.partition_sum()
    r = grid64.freq_norm
    mask = (r >= 1.0) & (r <= 2.0**hom.j_max)
    assert np.max(np.abs(part[mask] - 1.0)) <= 1e-14
    # phi_dot vanishes on the zero mode
    for j in hom.scales():
        assert hom.member(j).values[0] == 0.0


def test_one_lp_family_type(grid64):
    fam, hom = make_lp_family(grid64), make_hom_lp_family(grid64)
    assert type(hom) is type(fam) is LPFamily
    assert (fam.j_min, hom.j_min) == (0, -1)
    assert fam.scales() == range(0, fam.j_max + 1)
    assert hom.scales() == range(-1, hom.j_max + 1)
    assert hom.member(-1) is hom.symbols[0] and fam.member(0) is fam.symbols[0]


# ---------------------------------------------------------------------------
# potential Sobolev quantity
# ---------------------------------------------------------------------------

def test_hsigma_constant_is_one(grid64):
    assert abs(hsigma_norm_profile(constant_profile(), grid64, 1.0) - 1.0) < 1e-12


def test_hsigma_domain_error(grid64):
    with pytest.raises(ValueError):
        hsigma_norm_profile(constant_profile(), grid64, 0.4)  # sigma <= d/2


def test_hsigma_resolution_error(grid64):
    prof = lp_base_profile().dilate(0.25)  # support radius 8 > half extent
    with pytest.raises(ResolutionError):
        hsigma_norm_profile(prof, grid64, 1.0)


@pytest.mark.parametrize("sigma", [1.0, 1.5])  # d/2 + 1/2 and d/2 + 1
def test_hsigma_refinement_stability(sigma):
    # the LP bump's quantity is stable within 2% under N -> 2N
    prof = lp_base_profile()
    vals = []
    for N in (256, 512):
        g = Grid(1, N)
        vals.append(hsigma_norm_profile(prof, g, sigma))
    assert vals[1] > 0
    assert abs(vals[1] / vals[0] - 1.0) < 0.02


# ---------------------------------------------------------------------------
# Poisson symbols
# ---------------------------------------------------------------------------

def test_poisson_values(grid64):
    sym = poisson_symbol(grid64, 0.3)
    assert sym.values[0] == 1.0
    d1 = poisson_dk_symbol(grid64, 1.0, 1)
    assert d1.values[0] == 0.0
    k = 1
    expected = -2.0 * np.pi * np.exp(-2.0 * np.pi)
    assert abs(d1.values[k] - expected) < 1e-14


def test_poisson_semigroup(grid64):
    a = poisson_symbol(grid64, 0.25).values
    b = poisson_symbol(grid64, 0.5).values
    c = poisson_symbol(grid64, 0.75).values
    assert np.max(np.abs(a * b - c)) < 1e-14


def test_poisson_g_function_quadrature_identity():
    # int_0^1 |d_eps P_eps|^2 eps d(eps) at a single mode matches the closed
    # form of (2 pi k)^2 int eps e^{-4 pi eps k} d(eps) within 1e-6 using a
    # refined quadrature of the symbol formula
    k = 3.0
    a = 4.0 * np.pi * k
    closed = (2.0 * np.pi * k) ** 2 * (1.0 - np.exp(-a) * (1.0 + a)) / a**2
    eps = np.linspace(1e-9, 1.0, 400001)
    integrand = (2.0 * np.pi * k) ** 2 * np.exp(-2.0 * 2.0 * np.pi * eps * k) * eps
    quad = float(np.trapezoid(integrand, eps))
    assert abs(quad - closed) < 1e-6 * closed


def test_poisson_eps_validation(grid64):
    with pytest.raises(ValueError):
        poisson_symbol(grid64, 0.0)
    with pytest.raises(ValueError):
        poisson_dk_symbol(grid64, 0.5, 0)


def test_young_inequality_via_hsigma(grid64):
    # multiplier norms are controlled by the potential-Sobolev quantity:
    # ||m * f||_p <= C hsigma(m) ||f||_p with C measured and O(1)
    from ovtl.opfield import trace_lp_norm

    fam = make_lp_family(grid64)
    worst = 0.0
    for j in (1, 2):
        sym = fam.member(j)
        # window chosen to frame the member's support radius 2^{j+1}
        quantity = hsigma_norm_profile(sym.profile, grid64, 1.0, window=grid64.N / 2 ** (j + 2))
        for seed in range(4):
            f = band_limited_random(grid64, 2, 1100 + seed)
            for p in (1.0, 2.0, np.inf):
                ratio = trace_lp_norm(apply_symbol(sym, f), p) / trace_lp_norm(f, p)
                worst = max(worst, ratio / quantity)
    assert worst < 10.0


def test_shared_transform_filters_like_apply_symbol_data(grid2d):
    fam = make_lp_family(grid2d)
    f = band_limited_random(grid2d, 2, 71)
    fhat = fft_data(f.data, grid2d)
    kept = fhat.copy()
    for j in range(fam.j_max + 1):
        got = apply_symbol_hat(fam.values(j), fhat, grid2d)
        assert np.array_equal(got, _unpruned_data(fam.values(j), f.data, grid2d))
    assert np.array_equal(fhat, kept)
    batch = np.stack([f.data, 2.0 * f.data])
    got = apply_symbol_hat(fam.values(1), fft_data(batch, grid2d), grid2d)
    assert np.array_equal(got[1], _unpruned_data(fam.values(1), 2.0 * f.data, grid2d))


# ---------------------------------------------------------------------------
# the band-pruned inverse against one ifftn of the whole product
# ---------------------------------------------------------------------------

PRUNE_GRIDS = [Grid(2, 32), Grid(2, 128), Grid(3, 16), Grid(3, 32)]


def _random_data(grid, n, seed, batch=()):
    rng = rng_for(seed)
    shape = batch + grid.shape + (n, n)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _unpruned_hat(values, data_hat, grid):
    """A multiplier on point-major data as one ifftn of the whole product."""
    return ifft_data(data_hat * values[..., None, None], grid)


def _filtered_hat(sym, data_hat, grid):
    """filter_planes of ``sym`` on the planes of point-major ``data_hat``,
    as point-major blocks."""
    return as_blocks(filter_planes(sym, as_planes(data_hat), grid))


def _unpruned_data(values, data, grid):
    """A multiplier on raw data as one fftn, an in-place product and one
    ifftn: the formula the pruned route of filter_planes must match."""
    axes = tuple(range(data.ndim - grid.d - 2, data.ndim - 2))
    coef = np.fft.fftn(data, axes=axes)
    coef *= values[..., None, None]
    return np.fft.ifftn(coef, axes=axes)


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("grid", PRUNE_GRIDS, ids=lambda g: f"d{g.d}-N{g.N}")
def test_pruned_inverse_matches_ifftn_on_every_lp_member(grid, n):
    fhat = fft_data(_random_data(grid, n, 60 + n), grid)
    kept = fhat.copy()
    pruned = 0
    for fam in (make_lp_family(grid), make_hom_lp_family(grid)):
        for sym in fam.symbols:
            _assert_same_bits(_filtered_hat(sym, fhat, grid),
                              _unpruned_hat(sym.values, fhat, grid))
            pruned += spectral._prunes(fhat, grid, sym.band)
    _assert_same_bits(fhat, kept)
    # every member below the top one of both families takes the pruned route;
    # the top member (band N/2 - 1) and the all-zero j = -1 member keep ifftn
    assert pruned == 2 * lp_family_j_max(grid)


@pytest.mark.parametrize("grid", [Grid(2, 32), Grid(3, 16)], ids=["d2-N32", "d3-N16"])
def test_pruned_inverse_matches_ifftn_on_other_symbols(grid):
    fhat = fft_data(_random_data(grid, 2, 71), grid)
    kept = fhat.copy()
    cal = calderon_resolution(grid)
    seq = bessel_dilate_sequence(grid, 0.5)
    products = list(seq.product_symbols)
    assert sum(spectral._prunes(fhat, grid, sym.band) for sym in products) == seq.j_max
    # the Calderon arrays and profile-free copies of the products carry no band
    bare = list(cal.level_values) + [cal.phi0_values] + [sym.values for sym in products]
    symbols = ([Symbol(grid, values) for values in bare] + products
               + [poisson_symbol(grid, 0.1), Symbol(grid, np.zeros(grid.shape))])
    for sym in symbols:
        _assert_same_bits(_filtered_hat(sym, fhat, grid), _unpruned_hat(sym.values, fhat, grid))
    _assert_same_bits(fhat, kept)


@pytest.mark.parametrize("grid", PRUNE_GRIDS[:3], ids=lambda g: f"d{g.d}-N{g.N}")
def test_pruned_apply_symbol_data_matches_ifftn(grid):
    data = _random_data(grid, 2, 83)
    batch = _random_data(grid, 2, 84, batch=(2,))
    for fam in (make_lp_family(grid), make_hom_lp_family(grid)):
        for sym in fam.symbols:
            _assert_same_bits(_filtered_hat(sym, fft_data(data, grid), grid),
                              _unpruned_data(sym.values, data, grid))
            got = apply_symbol_hat(sym.values, fft_data(batch, grid), grid)
            _assert_same_bits(got, _unpruned_data(sym.values, batch, grid))
            # the batched ifftn and the unbatched pruned route agree bit for bit
            _assert_same_bits(got[1], _filtered_hat(sym, fft_data(batch[1], grid), grid))


def test_pruned_inverse_keeps_ifftn_on_batched_data():
    grid = Grid(3, 16)
    fam = make_lp_family(grid)
    batch = _random_data(grid, 2, 91, batch=(3,))
    fhat = fft_data(batch, grid)
    kept = fhat.copy()
    for sym in fam.symbols:
        got = _filtered_hat(sym, fhat, grid)
        _assert_same_bits(got, _unpruned_hat(sym.values, fhat, grid))
        _assert_same_bits(got[2], _filtered_hat(sym, fft_data(batch[2], grid), grid))
    _assert_same_bits(fhat, kept)


def _least_box_radius(grid, values):
    """max_i |k_i| over the nonzero values, one frequency at a time."""
    return max(int(max(abs(k) for k in grid.freqs[idx])) for idx in zip(*np.nonzero(values)))


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 32), Grid(3, 16)],
                         ids=lambda g: f"d{g.d}-N{g.N}")
def test_symbol_band_is_the_least_box_radius(monkeypatch, grid):
    families = [make_lp_family(grid), make_lp_family(grid, "poly"), make_hom_lp_family(grid)]
    products = [sym for seq in (identity_sequence(grid), bessel_dilate_sequence(grid, 0.5))
                for sym in seq.product_symbols]
    for sym in [sym for fam in families for sym in fam.symbols] + products:
        assert sym.band == (_least_box_radius(grid, sym.values) if sym.values.any() else None)
    assert not make_hom_lp_family(grid).member(-1).values.any()  # the all-zero member
    for sym in (bessel_symbol(grid, 0.5), poisson_symbol(grid, 0.25),
                poisson_dk_symbol(grid, 0.5, 1), derivative_symbol(grid, 0, 1.0),
                Symbol(grid, np.zeros(grid.shape))):
        assert sym.band is None
    # at d >= 2 exactly the members below the top one take the pruned route
    calls = []
    pruned_ifft = spectral._pruned_ifft
    monkeypatch.setattr(spectral, "_pruned_ifft",
                        lambda *args: calls.append(args) or pruned_ifft(*args))
    fhat = to_planes(fft_data(_random_data(grid, 2, 95), grid))
    for fam in families:
        took = []
        for j, _, _ in filtered(fhat, grid, lp_levels(fam, 0.5)):
            if calls:
                took.append(j)
            calls.clear()
        assert took == [j for j in fam.scales() if grid.d >= 2 and 0 <= j < fam.j_max]


def _band_limited_reference(grid, n, seed, r_min=0.0, r_max=None):
    """band_limited_random with one ifftn of the whole coefficient array."""
    rng = rng_for(seed)
    if r_max is None:
        r_max = float(2 ** lp_family_j_max(grid))
    mask = (grid.freq_norm >= r_min) & (grid.freq_norm <= r_max)
    count = int(mask.sum())
    coefs = np.zeros(grid.shape + (n, n), dtype=np.complex128)
    block = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    coefs[mask] = block / np.sqrt(2.0 * max(count, 1))
    return np.fft.ifftn(coefs, axes=grid.spatial_axes) * float(grid.N**grid.d)


@pytest.mark.parametrize("band", [(0.0, None), (2.0, 5.5), (0.0, 20.0)],
                         ids=["default", "annulus", "past-quarter"])
@pytest.mark.parametrize("grid", [Grid(1, 64)] + PRUNE_GRIDS, ids=lambda g: f"d{g.d}-N{g.N}")
def test_band_limited_random_matches_ifftn(grid, band):
    for n in (1, 2, 4):
        got = band_limited_random(grid, n, 5 + n, *band)
        _assert_same_bits(got.data, _band_limited_reference(grid, n, 5 + n, *band))
