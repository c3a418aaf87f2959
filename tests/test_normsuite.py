import math
from concurrent.futures import Future

import numpy as np
import pytest

from ovtl import opfield
from ovtl.lattice import Grid, cone_index
from ovtl.opfield import (
    OperatorField,
    PSDAccumulator,
    StripField,
    as_blocks,
    lp_norm_from_psd_eigs,
    psd_eigvalsh,
    trace_lp_norm,
)
from ovtl.generators import band_limited_random, haar, rng_for, single_mode
from ovtl.normsuite import (
    bmo_norm,
    hardy_norm,
    homogeneous_equiv_report,
    tent_norm,
    tl_infty_norm,
    tl_norm_column,
    tl_norm_mixture,
    tl_norm_row,
)
from ovtl.spectral import (
    apply_symbol,
    bessel_symbol,
    make_hom_lp_family,
    make_lp_family,
    poisson_symbol,
)
from ovtl.sqfn import filtered, lp_levels, poisson_levels, square_accumulator, square_norm
from helpers import (
    ball_measure,
    constant_field,
    field_sum,
    log_space_root_norm,
    planes_hat,
    scaled,
    symbol_on_data,
    zero_field,
    zero_strip,
)


E11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


@pytest.mark.parametrize("alpha", [0.0, 0.5, -1.0])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_column_single_mode_oracle(grid64, fam64, alpha, p):
    f = single_mode(grid64, 2, (4,), matrix=E11)
    rep = tl_norm_column(f, alpha, p, fam64)
    assert abs(rep.value - 2.0 ** (2 * alpha)) < 1e-10 * 2.0 ** (2 * alpha)


def test_column_zero(grid64, fam64):
    assert tl_norm_column(zero_field(grid64, 2), 0.5, 1.0, fam64).value == 0.0


def test_column_nonzero_iff_nonzero(grid64, fam64):
    f = band_limited_random(grid64, 2, 900)
    assert tl_norm_column(f, 0.0, 1.0, fam64).value > 0.0


def test_row_hermitian_equals_column(grid64, fam64):
    rng = rng_for(901)
    data = rng.normal(size=grid64.shape + (2, 2)) + 1j * rng.normal(size=grid64.shape + (2, 2))
    data = 0.5 * (data + np.conj(np.swapaxes(data, -1, -2)))
    f = OperatorField(grid64, data)
    a = tl_norm_column(f, 0.3, 2.0, fam64).value
    b = tl_norm_row(f, 0.3, 2.0, fam64).value
    assert abs(a - b) < 1e-10 * a


def test_row_adjoint_bookkeeping(grid64, fam64):
    # f = u(s) E12: row norm equals the column norm of conj(u) E21
    rng = rng_for(902)
    u = rng.normal(size=grid64.shape) + 1j * rng.normal(size=grid64.shape)
    f = OperatorField(grid64, u[..., None, None] * E12)
    g = OperatorField(grid64, np.conj(u)[..., None, None] * E21)
    a = tl_norm_row(f, 0.0, 1.0, fam64).value
    b = tl_norm_column(g, 0.0, 1.0, fam64).value
    assert abs(a - b) < 1e-10 * a


def test_mixture_p3_exact_max(grid64, fam64):
    f = band_limited_random(grid64, 2, 903)
    rep = tl_norm_mixture(f, 0.2, 3.0, fam64)
    col = tl_norm_column(f, 0.2, 3.0, fam64).value
    row = tl_norm_row(f, 0.2, 3.0, fam64).value
    assert rep.value == max(col, row)
    assert rep.flags["upper_bound"] is False


def test_mixture_p1_trivial_splits(grid64, fam64):
    f = band_limited_random(grid64, 2, 904)
    rep = tl_norm_mixture(f, 0.0, 1.0, fam64)
    col = tl_norm_column(f, 0.0, 1.0, fam64).value
    row = tl_norm_row(f, 0.0, 1.0, fam64).value
    assert rep.value == min(col, row)
    assert rep.flags["upper_bound"] is True


def test_hardy_lp_radial_is_column_alpha0(grid64, fam64):
    f = band_limited_random(grid64, 2, 908)
    a = hardy_norm(f, 1.0, mode="lp", family=fam64).value
    b = tl_norm_column(f, 0.0, 1.0, fam64).value
    assert a == b


def _eig_route_square_norm(f, alpha, fam, row):
    # the pointwise route: one Gram per level, eigenvalues of the sum
    acc = PSDAccumulator(f.grid, f.n)
    for _, weight, g in filtered(planes_hat(f), f.grid, lp_levels(fam, alpha)):
        acc.add_gram(g, weight, row=row)
    return lp_norm_from_psd_eigs(psd_eigvalsh(as_blocks(acc.planes)), 2.0, f.grid.cell_volume)


@pytest.mark.parametrize("d,N", [(1, 64), (2, 32)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lp_norms_p2_plancherel_match_eigenvalue_route(d, N, n):
    grid = Grid(d, N)
    fam = make_lp_family(grid)
    f = band_limited_random(grid, n, 960 + 10 * d + n)
    col = _eig_route_square_norm(f, 0.5, fam, row=False)
    row = _eig_route_square_norm(f, 0.5, fam, row=True)
    assert row == pytest.approx(col, rel=1e-12)
    rep = tl_norm_column(f, 0.5, 2.0, fam)
    assert rep.value == pytest.approx(col, rel=1e-12)
    assert rep.terms["phi0_term"] == pytest.approx(
        trace_lp_norm(apply_symbol(fam.member(0), f), 2.0), rel=1e-12)
    assert tl_norm_row(f, 0.5, 2.0, fam).value == pytest.approx(row, rel=1e-12)
    assert tl_norm_mixture(f, 0.5, 2.0, fam).value == pytest.approx(min(col, row), rel=1e-12)
    hardy = hardy_norm(f, 2.0, mode="lp", family=fam)
    assert hardy.value == pytest.approx(_eig_route_square_norm(f, 0.0, fam, row=False),
                                        rel=1e-12)


def test_hardy_zero(grid64, fam64):
    assert hardy_norm(zero_field(grid64, 2), 1.0, mode="lp", family=fam64).value == 0.0


def test_hardy_poisson_vs_lp_bracket(grid128, fam128):
    ratios = []
    for seed in range(8):
        f = band_limited_random(grid128, 2, 950 + seed)
        a = hardy_norm(f, 1.0, mode="poisson", family=fam128).value
        b = hardy_norm(f, 1.0, mode="lp", family=fam128).value
        ratios.append(a / b)
    assert max(ratios) / min(ratios) < 2.0  # stable bracket across seeds
    assert 0.01 < min(ratios) and max(ratios) < 100.0


@pytest.mark.parametrize("mode,shape", [("poisson", "radial"), ("poisson", "conic"),
                                        ("lp", "conic")])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_hardy_two_term_forms_sum_the_family_scales(mode, shape, p):
    # at d = 1, N = 256 the family ends at j_max = 6 while the grid has cube
    # levels up to 7: the square sum runs over j = 1 .. family.j_max
    grid = Grid(1, 256)
    fam = make_lp_family(grid)
    assert fam.j_max < grid.max_cube_level
    f = band_limited_random(grid, 2, 3)
    if mode == "lp":
        levels, low = lp_levels(fam, 0.0)[1:], apply_symbol(fam.symbols[0], f)
    else:
        levels, low = poisson_levels(grid, fam.j_max, 0.0), apply_symbol(poisson_symbol(grid, 1.0), f)
    assert [j for j, _, _ in levels] == list(range(1, fam.j_max + 1))
    cone = cone_index(grid, fam.j_max) if shape == "conic" else None
    want = square_norm(planes_hat(f), grid, levels, p, cone) + trace_lp_norm(low, p)
    rep = hardy_norm(f, p, fam, mode=mode, shape=shape)
    assert rep.value == pytest.approx(want, rel=1e-12)


def test_hardy_norm_requires_a_family(grid64):
    with pytest.raises(TypeError):
        hardy_norm(band_limited_random(grid64, 2, 5), 1.0)


def test_hardy_conic_modes_finite(grid64, fam64):
    f = band_limited_random(grid64, 2, 909)
    a = hardy_norm(f, 1.0, mode="lp", shape="conic", family=fam64)
    b = hardy_norm(f, 1.0, mode="poisson", shape="conic", family=fam64)
    assert a.value > 0 and b.value > 0
    assert a.terms["square_function"] > 0
    assert a.terms["low_frequency"] > 0


def test_bmo_constant(grid64):
    A = np.array([[2.0, 0.0], [0.0, 0.5]], dtype=complex)
    rep = bmo_norm(constant_field(grid64, A))
    assert abs(rep.value - 2.0) < 1e-12


def test_bmo_zero(grid64):
    assert bmo_norm(zero_field(grid64, 2)).value == 0.0


def test_bmo_haar_enumeration_oracle(grid64):
    f = haar(grid64, 1)
    rep = bmo_norm(f)
    # independent exhaustive enumeration
    data = f.data[..., 0, 0]
    best = math.sqrt(float(np.mean(np.abs(data) ** 2)))
    for level in range(1, grid64.max_cube_level + 1):
        from ovtl.lattice import dyadic_cubes_at_level

        for cube in dyadic_cubes_at_level(grid64, level):
            block = data[cube.mask()]
            osc = math.sqrt(float(np.mean(np.abs(block - block.mean()) ** 2)))
            best = max(best, osc)
    assert abs(rep.value - best) < 1e-12 * best


def test_tl_infty_zero_and_constant(grid64, fam64):
    assert tl_infty_norm(zero_field(grid64, 2), 0.0, fam64).value == 0.0
    A = np.array([[1.5, 0.0], [0.0, 1.0]], dtype=complex)
    rep = tl_infty_norm(constant_field(grid64, A), 0.0, fam64)
    # annulus symbols kill constants: only the phi0 term survives
    assert rep.terms["carleson_sup"] < 1e-12
    assert abs(rep.value - 1.5) < 1e-10


def test_tl_infty_single_mode_cube_oracle(grid64, fam64):
    f = single_mode(grid64, 2, (4,), matrix=E11)
    rep = tl_infty_norm(f, 0.0, fam64)
    # |phi_2 * f|^2 == E11 pointwise; cubes at levels 1..2 see the constant,
    # deeper cubes see nothing; phi0 term vanishes
    assert rep.terms["phi0_sup"] < 1e-12
    assert abs(rep.value - 1.0) < 1e-10


def test_tent_norm_cases(grid64):
    Z = zero_strip(grid64, 1, 3)
    assert tent_norm(Z, 1.0).value == 0.0
    data = np.array(Z.data)
    data[1, 5, 0, 0] = 2.0
    F = StripField(grid64, data)
    rep1 = tent_norm(F, 1.0)
    rep2 = tent_norm(scaled(3.0, F), 1.0)
    # the FFT ball correlation carries a ~1e-9 relative noise floor at
    # exactly-zero cells (sqrt of round-off), so 1e-8 is the honest bound
    assert abs(rep2.value - 3.0 * rep1.value) < 1e-8 * rep2.value
    # one-cell closed form at p = 2: ||A^c||_2^2 = ball h^d sum identity
    from ovtl.sqfn import LOG2
    from ovtl.lattice import cone_index

    cone = cone_index(grid64, 3)
    j0 = 2
    expected_sq = (LOG2 * 2.0 ** (j0 * grid64.d) * grid64.cell_volume * 4.0
                   * ball_measure(cone, j0))
    assert abs(tent_norm(F, 2.0).value ** 2 - expected_sq) < 1e-10


def test_monotone_embedding_exact(grid64, fam64):
    for seed in range(6):
        f = band_limited_random(grid64, 2, 960 + seed)
        for p in (1.0, 2.0, 3.0):
            lo = tl_norm_column(f, 0.25, p, fam64).value
            hi = tl_norm_column(f, 0.75, p, fam64).value
            assert lo <= hi * (1 + 1e-12)


def test_lifting_roundtrip_and_bracket(grid64, fam64):
    ratios = []
    for seed in range(8):
        f = band_limited_random(grid64, 2, 970 + seed)
        beta = 1.0
        jf = apply_symbol(bessel_symbol(grid64, beta), f)
        back = apply_symbol(bessel_symbol(grid64, -beta), jf)
        assert np.max(np.abs(back.data - f.data)) < 1e-11 * np.max(np.abs(f.data))
        # alpha = beta: lifted norm at index 0 against the original at beta
        num = tl_norm_column(jf, 0.0, 2.0, fam64).value
        den = tl_norm_column(f, beta, 2.0, fam64).value
        ratios.append(num / den)
    assert max(ratios) / min(ratios) < 2.0


def test_derivative_lifting_two_term_ratio(grid64, fam64):
    # ||f||_{F^alpha} vs ||phi_0*f||_p + sum_i ||D_i^beta f||_{F^{alpha-beta}}
    from ovtl.spectral import derivative_symbol

    alpha, beta, p = 0.5, 1.0, 2.0
    ratios = []
    for seed in range(8):
        f = band_limited_random(grid64, 2, 965 + seed)
        lhs = tl_norm_column(f, alpha, p, fam64).value
        low = OperatorField(grid64, symbol_on_data(fam64.values(0), f.data, grid64))
        rhs = trace_lp_norm(low, p)
        for i in range(grid64.d):
            df = apply_symbol(derivative_symbol(grid64, i, beta), f)
            rhs += tl_norm_column(df, alpha - beta, p, fam64).value
        ratios.append(lhs / rhs)
    assert max(ratios) / min(ratios) < 2.0
    assert 1e-3 < min(ratios) and max(ratios) < 1e3


def test_phi_independence_bracket(grid64):
    fam_a = make_lp_family(grid64, "default")
    fam_b = make_lp_family(grid64, "poly")
    ratios = []
    for seed in range(8):
        f = band_limited_random(grid64, 2, 980 + seed)
        ratios.append(
            tl_norm_column(f, 0.5, 1.0, fam_a).value
            / tl_norm_column(f, 0.5, 1.0, fam_b).value
        )
    assert max(ratios) / min(ratios) < 1.5


def test_homogeneous_single_mode(grid64, fam64):
    hom = make_hom_lp_family(grid64)
    f = single_mode(grid64, 2, (4,), matrix=E11)
    rep = homogeneous_equiv_report(f, 0.5, 2.0, fam64, hom)
    # closed form: inhom = 2^{2 alpha}; hom square term = same (phi_dot_2 = 1
    # at |k| = 4, low terms vanish except ||f||_p = 1)
    inhom = rep.terms["inhomogeneous"]
    hom_sq = rep.terms["homogeneous_square"]
    assert abs(inhom - 2.0) < 1e-10
    assert abs(hom_sq - 2.0) < 1e-10
    assert rep.terms["phi0_term"] < 1e-12
    assert abs(rep.value - 1.0) < 1e-9


def test_homogeneous_mean_mode_only(grid64, fam64):
    hom = make_hom_lp_family(grid64)
    f = constant_field(grid64, E11)
    rep = homogeneous_equiv_report(f, 0.5, 2.0, fam64, hom)
    assert rep.terms["homogeneous_square"] == 0.0
    assert rep.terms["phi0_term"] > 0.0


def test_homogeneous_requires_positive_alpha(grid64, fam64):
    hom = make_hom_lp_family(grid64)
    f = band_limited_random(grid64, 2, 990)
    with pytest.raises(ValueError):
        homogeneous_equiv_report(f, 0.0, 2.0, fam64, hom)


def test_norm_triangle_and_homogeneity(grid64, fam64):
    f = band_limited_random(grid64, 2, 991)
    g = band_limited_random(grid64, 2, 992)
    c = 1.7 - 0.3j
    for norm in (lambda x: tl_norm_column(x, 0.5, 1.5, fam64).value,
                 lambda x: hardy_norm(x, 1.0, mode="lp", family=fam64).value,
                 lambda x: bmo_norm(x).value,
                 lambda x: tl_infty_norm(x, 0.25, fam64).value):
        nf, ng, nsum = norm(f), norm(g), norm(field_sum(f, g))
        assert nsum <= (nf + ng) * (1 + 1e-10)
        assert abs(norm(scaled(c, f)) - abs(c) * nf) < 1e-10 * abs(c) * nf


def test_report_serialization_stable(grid64, fam64):
    f = band_limited_random(grid64, 2, 993)
    a = tl_norm_column(f, 0.5, 1.0, fam64).to_text()
    b = tl_norm_column(f, 0.5, 1.0, fam64).to_text()
    assert a == b
    assert "name = F_alpha_column" in a
    assert "[terms]" in a


def test_invalid_p(grid64, fam64):
    f = band_limited_random(grid64, 2, 994)
    with pytest.raises(ValueError):
        tl_norm_column(f, 0.0, 0.3, fam64)
    with pytest.raises(ValueError):
        tent_norm(zero_strip(grid64, 1, 2), 0.5)


class _Inline:
    """Stand-in for the Gram helper thread that runs each task when it is queued."""

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


@pytest.mark.parametrize("grid, n", [(Grid(2, 128), 2), (Grid(2, 128), 4), (Grid(3, 32), 3)])
def test_queued_gram_reports_match_inline(monkeypatch, grid, n):
    fam = make_lp_family(grid)
    f = band_limited_random(grid, n, 880 + n)
    norms = (lambda: tl_norm_column(f, 0.5, 1.0, fam), lambda: tl_norm_mixture(f, 0.5, 1.0, fam),
             lambda: hardy_norm(f, 1.0, fam), lambda: tl_infty_norm(f, 0.5, fam))
    queued = [norm().to_text() for norm in norms]
    monkeypatch.setattr(opfield, "_HELPER", _Inline())
    assert [norm().to_text() for norm in norms] == queued


# ---------------------------------------------------------------------------
# exact homogeneity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [-560, -1, 1, 520])
def test_every_norm_exactly_homogeneous(k):
    # 2^-560 f once read 0 and 2^520 f nan: every square overflowed or
    # underflowed; a power-of-two scale is exact, so every value and every
    # term but the ratios scales by exactly 2^k
    from ovtl.cli import _NORMS
    from ovtl.fieldio import Config

    grid = Grid(2, 32)
    f = band_limited_random(grid, 2, 7)
    scaled = OperatorField(grid, f.data * 2.0**k)
    fam = make_lp_family(grid)
    checked = 0
    for name, (norm, takes_alpha, takes_p) in _NORMS.items():
        for mode in ("lp", "poisson") if name == "hardy" else ("lp",):
            cfg = Config(kernel_mode=mode)
            for p in (1.0, 2.0, 3.0, np.inf) if takes_p else (None,):
                want = norm(f, 0.5 if takes_alpha else None, p, fam, cfg)
                got = norm(scaled, 0.5 if takes_alpha else None, p, fam, cfg)
                assert want.value > 0 and got.value == want.value * 2.0**k, (name, p)
                assert got.terms.keys() == want.terms.keys() and got.flags == want.flags
                for key, v in want.terms.items():
                    assert got.terms[key] == v * 2.0**k, (name, p, key)
                checked += 1
    assert checked == 3 * 4 + 2 * 4 + 2  # column, row, mixture; lp and Poisson hardy; bmo, F_infty


def test_homogeneous_equivalence_ratios_scale_free(fam64):
    f = band_limited_random(fam64.grid, 2, 980)
    scaled = OperatorField(fam64.grid, f.data * 2.0**-600)
    hom = make_hom_lp_family(fam64.grid)
    want = homogeneous_equiv_report(f, 0.5, 1.0, fam64, hom)
    got = homogeneous_equiv_report(scaled, 0.5, 1.0, fam64, hom)
    assert got.value == want.value
    for key, v in want.terms.items():
        assert got.terms[key] == (v if key.startswith("ratio") else v * 2.0**-600), key


@pytest.mark.parametrize("n", [2, 3])
def test_p3_square_norms_at_alpha_100_stay_finite(n):
    # the top weight 4^(j alpha) is 2^800 on Grid(1, 64): the eigenvalues of S
    # pass 2^683, and their powers lambda^(3/2) pass the float64 range
    grid = Grid(1, 64)
    fam = make_lp_family(grid)
    f = band_limited_random(grid, n, 1)
    fhat, levels = planes_hat(f), lp_levels(fam, 100.0)
    eigs = square_accumulator(grid, n, filtered(fhat, grid, levels)).eigenvalues()
    assert 1.5 * math.log2(np.max(eigs)) > 1024
    want = log_space_root_norm(eigs, 3.0, grid.cell_volume)
    assert square_norm(fhat, grid, levels, 3.0) == pytest.approx(want, rel=1e-12, abs=0)
    for norm in (tl_norm_column, tl_norm_row, tl_norm_mixture):
        assert 0 < norm(f, 100.0, 3.0, fam).value < math.inf


def test_hardy_at_p1250_keeps_its_digits_where_the_sum_is_subnormal():
    # hardy_norm scales f by 2^-e into max |f| in [1/2, 1); there the plain
    # sum of lambda^625 is a subnormal float, which is rescaled like one that
    # underflows
    grid = Grid(1, 64)
    fam = make_lp_family(grid)
    f = band_limited_random(grid, 2, 1)
    e = f.pow2_exponent()
    fhat = planes_hat(OperatorField(grid, f.data * np.ldexp(1.0, -e)))
    eigs = square_accumulator(grid, 2, filtered(fhat, grid, lp_levels(fam, 0.0))).eigenvalues()
    assert 0 < float(np.sum(eigs**625.0)) * grid.cell_volume < np.finfo(float).tiny
    want = np.ldexp(log_space_root_norm(eigs, 1250.0, grid.cell_volume), e)
    got = hardy_norm(f, 1250.0, fam).terms["square_function"]
    assert got == pytest.approx(want, rel=1e-12, abs=0)
