import math

import numpy as np
import pytest

import scalar_reference as ref
from ovtl.errors import GridMismatchError
from ovtl.lattice import Grid, cone_index
from ovtl.normsuite import hardy_norm, tent_norm
from ovtl.opfield import (
    OperatorField,
    PSDAccumulator,
    StripField,
    as_blocks,
    gram,
    lp_norm_from_psd_eigs,
    to_planes,
    trace_lp_norm,
)
from ovtl.generators import band_limited_random, single_mode
from ovtl.spectral import (
    make_hom_lp_family,
    make_lp_family,
)
from ovtl.sqfn import (
    LOG2,
    filtered,
    lp_levels,
    poisson_levels,
    square_accumulator,
    square_norm,
    strip_levels,
)
from helpers import (
    ball_measure,
    fft_forward,
    planes_hat,
    random_strip,
    scaled,
    square_sum,
    symbol_on_data,
    zero_field,
    zero_strip,
)


def accumulate(f, levels, cone=None):
    return square_accumulator(f.grid, f.n, filtered(planes_hat(f), f.grid, levels), cone)


def root(acc):
    """The root field S^(1/2) of an accumulator, from the eigh oracle."""
    return OperatorField(acc.grid, ref.psd_root(as_blocks(acc.planes)))


def tent_root(F, cone=None):
    """The tent functional A^c(F), the root field of
    A^c(F)^2 = sum_j log2 2^{jd} sum_{t in B_j} h^d |F(s+t, 2^-j)|^2."""
    cone = cone_index(F.grid, F.j_max) if cone is None else cone
    return root(square_accumulator(F.grid, F.n, strip_levels(F, 1.0), cone))


def test_g_radial_single_mode(grid64, fam64):
    # |k| = 4 lives on the j = 2 annulus alone: output is the constant |A|
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = single_mode(grid64, 2, (4,), matrix=A)
    out = root(accumulate(f, lp_levels(fam64, 0.0)))
    expected = np.diag([0.0, 1.0])  # |A| for the nilpotent A
    assert np.max(np.abs(out.data - expected)) < 1e-10


def test_g_radial_zero(grid64, fam64):
    out = root(accumulate(zero_field(grid64, 2), lp_levels(fam64, 0.0)))
    assert np.max(np.abs(out.data)) == 0.0


def test_g_radial_alpha_shift(grid64, fam64):
    # weight-alpha square function equals weight-0 applied to rescaled levels
    f = band_limited_random(grid64, 2, 800)
    alpha = 0.7
    acc_a = accumulate(f, lp_levels(fam64, alpha))
    acc_manual = accumulate(f, lp_levels(fam64, 0.0))
    # manual: rescale each level by 2^{j alpha} before squaring
    import ovtl.opfield as op

    manual = op.PSDAccumulator(grid64, 2)
    manual.add_gram(to_planes(symbol_on_data(fam64.values(0), f.data, grid64)), 1.0)
    for j in range(1, fam64.j_max + 1):
        g = 2.0 ** (j * alpha) * symbol_on_data(fam64.values(j), f.data, grid64)
        manual.add_gram(to_planes(g), 1.0)
    assert np.max(np.abs(acc_a.planes - manual.planes)) < 1e-10 * np.max(np.abs(manual.planes))
    assert np.max(np.abs(acc_a.planes - acc_manual.planes)) > 0  # alpha does change it


def test_g_radial_homogeneity(grid64, fam64):
    f = band_limited_random(grid64, 2, 801)
    c = 2.5 - 1.0j
    a = root(accumulate(scaled(c, f), lp_levels(fam64, 0.0)))
    b = root(accumulate(f, lp_levels(fam64, 0.0)))
    assert np.max(np.abs(a.data - abs(c) * b.data)) < 1e-9 * np.max(np.abs(b.data))


def test_g_radial_p2_identity(grid64, fam64):
    f = band_limited_random(grid64, 2, 802)
    out = root(accumulate(f, lp_levels(fam64, 0.0)))
    lhs = trace_lp_norm(out, 2.0) ** 2
    fh = fft_forward(f).data
    sq = square_sum(fam64)
    rhs = float(np.sum(sq[..., None, None] * np.abs(fh) ** 2))
    assert abs(lhs - rhs) < 1e-12 * rhs


def test_scale_monotonicity(grid64, fam64):
    f = band_limited_random(grid64, 2, 803)
    full = accumulate(f, lp_levels(fam64, 0.0))
    partial = accumulate(f, lp_levels(fam64, 0.0)[:-1])  # j = 0 .. j_max - 1
    for p in (1.0, 2.0, 3.0):
        from ovtl.opfield import lp_norm_from_psd_eigs

        n_full = lp_norm_from_psd_eigs(full.eigenvalues(), p, grid64.cell_volume)
        n_part = lp_norm_from_psd_eigs(partial.eigenvalues(), p, grid64.cell_volume)
        assert n_part <= n_full * (1 + 1e-12)


def test_conic_constant_vs_radial_factor(grid64, fam64):
    # single mode, n = 1: |phi_j * f| is constant in s, so conic and radial
    # differ exactly by the recorded discrete ball measures
    f = single_mode(grid64, 1, (4,))
    cone = cone_index(grid64, fam64.j_max)
    alpha = 0.3
    rad = accumulate(f, lp_levels(fam64, alpha)[1:])
    con = root(accumulate(f, lp_levels(fam64, alpha)[1:], cone))
    # only level j = 2 contributes; factor = 2^{jd} |B_j| h^d
    j = 2
    factor = 2.0 ** (j * grid64.d) * ball_measure(cone, j)
    expected = np.sqrt(as_blocks(rad.planes)[..., 0, 0].real * factor)
    assert np.max(np.abs(con.data[..., 0, 0].real - expected)) < 1e-10


def test_conic_zero(grid64, fam64):
    cone = cone_index(grid64, fam64.j_max)
    out = root(accumulate(zero_field(grid64, 2), lp_levels(fam64, 0.0)[1:], cone))
    assert np.max(np.abs(out.data)) < 1e-15


def test_conic_fubini_identity(grid64, fam64):
    f = band_limited_random(grid64, 1, 804)
    cone = cone_index(grid64, fam64.j_max)
    alpha = 0.25
    out = root(accumulate(f, lp_levels(fam64, alpha)[1:], cone))
    lhs = float(np.mean(np.abs(out.data[..., 0, 0]) ** 2))
    rhs = 0.0
    for j in range(1, fam64.j_max + 1):
        G = symbol_on_data(fam64.values(j), f.data, grid64)
        rhs += (2.0 ** (j * (2 * alpha + grid64.d)) * ball_measure(cone, j)
                * float(np.mean(np.abs(G) ** 2)))
    assert abs(lhs - rhs) < 1e-10 * rhs


def test_tent_one_cell(grid64):
    F = zero_strip(grid64, 1, 3)
    data = np.array(F.data)
    j0, site, amp = 2, 17, 3.0
    data[j0 - 1, site, 0, 0] = amp
    F = StripField(grid64, data)
    out = tent_root(F)
    cone = cone_index(grid64, 3)
    expected = math.sqrt(LOG2 * 2.0 ** (j0 * grid64.d) * grid64.cell_volume) * amp
    vals = out.data[:, 0, 0].real
    ball = {(site - int(m[0])) % grid64.N for m in cone.offsets[j0]}
    for s in range(grid64.N):
        if s in ball:
            assert abs(vals[s] - expected) < 1e-9
        else:
            assert vals[s] < 1e-7 * expected


def test_tent_zero_and_scaling(grid64):
    Z = zero_strip(grid64, 2, 3)
    assert np.max(np.abs(tent_root(Z).data)) == 0.0
    F = random_strip(grid64, 2, 3, 805)
    c = -1.5 + 2.0j
    a = tent_root(scaled(c, F))
    b = tent_root(F)
    assert np.max(np.abs(a.data - abs(c) * b.data)) < 1e-9 * np.max(np.abs(b.data))


def test_poisson_radial_matches_manual(grid64):
    # dyadic quadrature weights log2 * 2^{-2j(k-alpha)} per level
    f = band_limited_random(grid64, 1, 806)
    out = root(accumulate(f, poisson_levels(grid64, 4, 0.0)))
    total = np.zeros(grid64.shape)
    from ovtl.spectral import poisson_dk_symbol

    for j in range(1, 5):
        sym = poisson_dk_symbol(grid64, 2.0**-j, 1)
        conv = symbol_on_data(sym.values, f.data, grid64)
        total += LOG2 * 4.0**-j * np.abs(conv[..., 0, 0]) ** 2
    assert np.max(np.abs(out.data[..., 0, 0] - np.sqrt(total))) < 1e-10


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 32)], ids=["d1", "d2"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_conic_hardy_term_is_tent_norm(grid, n, p):
    # the conic LP square function and the tent functional are one sum:
    # with F_j = (phi_j * f) / sqrt(log 2), both are sum_j 2^{jd} h^d ball sums
    fam = make_lp_family(grid)
    f = band_limited_random(grid, n, 807)
    F = StripField(grid, np.stack([symbol_on_data(fam.values(j), f.data, grid)
                                   for j in range(1, fam.j_max + 1)]) / math.sqrt(LOG2))
    conic = hardy_norm(f, p, mode="lp", shape="conic", family=fam).terms["square_function"]
    tent = tent_norm(F, p).value
    assert abs(conic - tent) <= 1e-12 * tent


def test_engine_rejects_other_grid(grid64, fam64):
    f = band_limited_random(grid64, 2, 808)
    fhat = planes_hat(f)
    other = make_lp_family(Grid(1, 128))
    with pytest.raises(GridMismatchError):
        list(filtered(fhat, grid64, lp_levels(other, 0.0)))
    with pytest.raises(GridMismatchError):
        root(accumulate(f, lp_levels(other, 0.0)))
    with pytest.raises(GridMismatchError):
        root(accumulate(f, lp_levels(fam64, 0.0)[1:], cone_index(Grid(1, 128), fam64.j_max)))
    with pytest.raises(GridMismatchError):  # scales beyond the cone
        root(accumulate(f, lp_levels(fam64, 0.0)[1:], cone_index(grid64, fam64.j_max - 1)))
    with pytest.raises(GridMismatchError):
        tent_root(random_strip(grid64, 2, 3, 809), cone_index(Grid(1, 128), 3))
    for p in (1.0, 2.0):  # square_norm, on the eigenvalue and the Plancherel route
        with pytest.raises(GridMismatchError):
            square_norm(fhat, grid64, lp_levels(fam64, 0.0), p,
                        cone_index(Grid(1, 128), fam64.j_max))
        with pytest.raises(GridMismatchError):
            square_norm(fhat, grid64, lp_levels(other, 0.0), p)
        with pytest.raises(GridMismatchError):  # scales beyond the cone
            square_norm(fhat, grid64, lp_levels(fam64, 0.0), p,
                        cone_index(grid64, fam64.j_max - 1))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_tent_norm_rejects_other_grid(grid64, p):
    F = random_strip(grid64, 2, 3, 809)
    with pytest.raises(GridMismatchError):
        tent_norm(F, p, cone_index(Grid(1, 128), 3))
    with pytest.raises(GridMismatchError):  # scales beyond the cone
        tent_norm(F, p, cone_index(grid64, 2))


# ---------------------------------------------------------------------------
# square_norm: Plancherel at p = 2, conic sums in Fourier space
# ---------------------------------------------------------------------------

def eig_route_norm(fhat, grid, levels, p, cone=None):
    acc = square_accumulator(grid, fhat.shape[0], filtered(fhat, grid, levels), cone)
    return lp_norm_from_psd_eigs(acc.eigenvalues(), p, grid.cell_volume)


def level_lists(grid, fam, alpha):
    return {"lp": lp_levels(fam, alpha), "lp-high": lp_levels(fam, alpha)[1:],
            "poisson": poisson_levels(grid, fam.j_max, alpha)}


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 32)], ids=["d1", "d2"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("shape", ["radial", "conic"])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_square_norm_p2_matches_eigen_route(grid, n, shape, alpha):
    fam = make_lp_family(grid)
    cone = cone_index(grid, fam.j_max) if shape == "conic" else None
    f = band_limited_random(grid, n, 810 + n)
    fhat = planes_hat(f)
    for name, levels in level_lists(grid, fam, alpha).items():
        fast = square_norm(fhat, grid, levels, 2.0, cone)
        slow = eig_route_norm(fhat, grid, levels, 2.0, cone)
        assert abs(fast - slow) <= 1e-12 * slow, name


def per_level_ball_accumulator(fhat, grid, levels, cone):
    # one ball correlation and one inverse FFT per level, summed in space
    acc = PSDAccumulator(grid, fhat.shape[0])
    for j, weight, g in filtered(fhat, grid, levels):
        if j == 0:
            acc.add_gram(g, weight)
            continue
        ind = np.zeros(grid.shape)
        ind[tuple((cone.offsets[j] % grid.N).T)] = 1.0
        coef = np.fft.fftn(gram(as_blocks(g)), axes=grid.spatial_axes)
        coef *= np.conj(np.fft.fftn(ind))[..., None, None]
        ball_average = np.fft.ifftn(coef, axes=grid.spatial_axes)
        acc.add_psd(to_planes(weight * 2.0 ** (j * grid.d) * grid.cell_volume * ball_average))
    S = acc.planes
    S[...] = 0.5 * (S + np.conj(np.swapaxes(S, 0, 1)))
    return acc


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 32)], ids=["d1", "d2"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_conic_fourier_sum_matches_per_level_sum(grid, n):
    fam = make_lp_family(grid)
    cone = cone_index(grid, fam.j_max)
    f = band_limited_random(grid, n, 820 + n)
    fhat = planes_hat(f)
    for levels in level_lists(grid, fam, 0.5).values():
        ref = per_level_ball_accumulator(fhat, grid, levels, cone)
        acc = square_accumulator(grid, n, filtered(fhat, grid, levels), cone)
        assert np.max(np.abs(acc.planes - ref.planes)) <= 1e-12 * np.max(np.abs(ref.planes))
        want = lp_norm_from_psd_eigs(ref.eigenvalues(), 1.0, grid.cell_volume)
        assert abs(square_norm(fhat, grid, levels, 1.0, cone) - want) <= 1e-12 * want
    # the ball transforms are built once per scale and kept with the cone
    assert cone.ball_fft(1) is cone.ball_fft(1)


def test_lp_levels_walk_the_family_scales(grid64):
    hom = make_hom_lp_family(grid64)
    levels = lp_levels(hom, 0.5)
    assert [j for j, _, _ in levels] == list(range(-1, hom.j_max + 1))
    assert [w for _, w, _ in levels] == [4.0 ** (0.5 * j) for j in range(-1, hom.j_max + 1)]
    assert all(sym is hom.member(j) for j, _, sym in levels)
