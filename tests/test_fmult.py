import numpy as np
import pytest

from ovtl.errors import HypothesisError, ParameterError
from ovtl.lattice import Grid, cone_index
from ovtl.fmult import (
    SymbolSequence,
    bessel_dilate_sequence,
    cz_kernel_estimates,
    empirical_conic_bound,
    empirical_square_bound,
    exact_p2_operator_norm,
    hypothesis_components,
    hypothesis_constant,
    identity_sequence,
    lp_sequence,
)
from ovtl.generators import band_limited_random
from ovtl.spectral import Profile, constant_profile, lp_base_profile
from helpers import scaled_sequence


SIGMA = 1.0


def gen_for(grid, n=2, base=1000):
    def gen(t):
        return band_limited_random(grid, n, base + t)

    return gen


@pytest.mark.parametrize("sigma", [0.5, float("nan")])
def test_hypothesis_rejects_sigma_not_above_half_d(grid128, sigma):
    with pytest.raises(ParameterError, match="sigma must exceed"):
        hypothesis_components(identity_sequence(grid128), sigma)


def test_identity_sequence_support(grid128):
    identity_sequence(grid128).check_support()


def test_support_violation_raises(grid128):
    # rho with a Gaussian (non-compact) profile leaks outside the annuli
    gauss = Profile(lambda xi: np.exp(-np.sum(xi**2, axis=-1)) + 0j)
    rho = tuple(gauss for _ in range(4))
    phi = tuple(constant_profile() for _ in range(4))
    seq = SymbolSequence(grid128, phi, rho, name="leaky")
    with pytest.raises(HypothesisError):
        seq.check_support()
    with pytest.raises(HypothesisError):
        empirical_square_bound(seq, gen_for(grid128), 0.0, 2.0, trials=1, sigma=SIGMA)


def test_hypothesis_constant_zero_sequence(grid128):
    zero = Profile(lambda xi: np.zeros(xi.shape[:-1], dtype=complex))
    rho = lp_sequence(grid128)
    seq = SymbolSequence(grid128, tuple(zero for _ in rho), rho, name="zero")
    assert hypothesis_constant(seq, SIGMA) == 0.0


def test_hypothesis_constant_scaling_exact(grid128):
    seq = bessel_dilate_sequence(grid128, 1.0)
    base = hypothesis_constant(seq, SIGMA)
    scaled = hypothesis_constant(scaled_sequence(seq, 2.5), SIGMA)
    assert abs(scaled - 2.5 * base) < 1e-12 * base


def test_hypothesis_constant_identity_matches_family_level(grid128):
    # phi_j = 1: C_hyp is the family's own potential-Sobolev level
    seq = identity_sequence(grid128)
    c = hypothesis_constant(seq, SIGMA)
    assert 0.1 < c < 100.0


def test_hypothesis_shift_invariance(grid128):
    # the dilate-sup of the index-shifted sequence phi_{j+K}(2^K .) (with the
    # out-of-range indices zero-filled, the paper's own convention for
    # exercising homogeneous sequences through the global machinery) agrees
    # with the original within quadrature tolerance 1% for |K| <= 2
    from ovtl.fmult import hypothesis_components

    beta = 1.0
    seq = bessel_dilate_sequence(grid128, beta)
    zero = Profile(lambda xi: np.zeros(xi.shape[:-1], dtype=complex))
    base_sup, _ = hypothesis_components(seq, SIGMA)
    for K in (-2, -1, 1, 2):
        shifted_phi = [seq.phi_profiles[0]]
        for j in range(1, seq.j_max + 1):
            jj = j + K
            if 1 <= jj <= seq.j_max:
                shifted_phi.append(seq.phi_profiles[jj].dilate(2.0**K))
            else:
                shifted_phi.append(zero)
        shifted = SymbolSequence(grid128, tuple(shifted_phi), seq.rho_profiles,
                                 name=f"shift{K}")
        sup, _ = hypothesis_components(shifted, SIGMA)
        assert abs(sup - base_sup) < 0.01 * base_sup


def test_bessel_per_jk_pattern(grid128):
    # phi_j = 2^{-j beta} J_beta: each (j,k) dilate norm is finite and the
    # table is flat in j (the 2^{-j beta} prefactor matches the dilation)
    from ovtl.fmult import hypothesis_window
    from ovtl.spectral import hsigma_norm_profile

    beta = 1.0
    seq = bessel_dilate_sequence(grid128, beta)
    base_bump = lp_base_profile()
    W = hypothesis_window(grid128)
    table = {}
    for j in (1, 2, 3):
        for k in (-1, 0, 1):
            prof = seq.phi_profiles[j].dilate(2.0 ** (j + k)) * base_bump
            table[(j, k)] = hsigma_norm_profile(prof, grid128, SIGMA, window=W)
    for k in (-1, 0, 1):
        col = [table[(j, k)] for j in (1, 2, 3)]
        assert max(col) / min(col) < 1.6


def test_empirical_identity_ratio_one(grid128):
    seq = identity_sequence(grid128)
    cert = empirical_square_bound(seq, gen_for(grid128), 0.0, 2.0, trials=3, sigma=SIGMA)
    assert abs(cert.empirical_ratio - 1.0) < 1e-10
    assert cert.passed


def test_empirical_zero_multiplier(grid128):
    zero = Profile(lambda xi: np.zeros(xi.shape[:-1], dtype=complex))
    rho = lp_sequence(grid128)
    seq = SymbolSequence(grid128, tuple(zero for _ in rho), rho, name="zero",
                         rho_is_dilate_family=True)
    cert = empirical_square_bound(seq, gen_for(grid128), 0.0, 2.0, trials=2, sigma=SIGMA)
    assert cert.empirical_ratio == 0.0


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_empirical_bessel_bounded(grid128, p):
    seq = bessel_dilate_sequence(grid128, 1.0)
    cert = empirical_square_bound(seq, gen_for(grid128), 0.5, p, trials=4, sigma=SIGMA)
    assert cert.passed
    assert cert.empirical_ratio <= 100.0 * cert.hypothesis_constant


def test_p1_shape_restriction(grid128):
    rho = lp_sequence(grid128)
    seq = SymbolSequence(grid128, tuple(constant_profile() for _ in rho), rho,
                         name="no-shape", rho_is_dilate_family=False)
    with pytest.raises(HypothesisError):
        empirical_square_bound(seq, gen_for(grid128), 0.0, 1.0, trials=1, sigma=SIGMA)
    # the same sequence at p = 2 is fine
    cert = empirical_square_bound(seq, gen_for(grid128), 0.0, 2.0, trials=1, sigma=SIGMA)
    assert cert.passed


def test_exact_p2_norm_dominates_trials(grid128):
    seq = bessel_dilate_sequence(grid128, 1.0)
    exact = exact_p2_operator_norm(seq)
    cert = empirical_square_bound(seq, gen_for(grid128), 0.0, 2.0, trials=5, sigma=SIGMA)
    for r in cert.per_trial:
        assert r <= exact * (1 + 1e-10)


def test_conic_identity_and_bessel(grid64):
    cone = cone_index(grid64, 4)
    seq = identity_sequence(grid64)
    cert = empirical_conic_bound(seq, gen_for(grid64), 0.0, 2.0, cone, trials=2,
                                 sigma=SIGMA)
    assert abs(cert.empirical_ratio - 1.0) < 1e-10
    seqb = bessel_dilate_sequence(grid64, 1.0)
    certb = empirical_conic_bound(seqb, gen_for(grid64), 0.0, 1.0, cone, trials=2,
                                  sigma=SIGMA)
    assert certb.passed


def test_cz_zero_sequence(grid64):
    zero = Profile(lambda xi: np.zeros(xi.shape[:-1], dtype=complex))
    est = cz_kernel_estimates([zero] * 4, grid64, SIGMA)
    assert est.e1 == 0.0 and est.e2 == 0.0 and est.e3 == 0.0


def test_cz_delta_j0_sequence(grid64):
    # phi_j = delta_{j0} phi^(0): E1 = 1, tails finite
    from ovtl.spectral import lp_zero_profile

    zero = Profile(lambda xi: np.zeros(xi.shape[:-1], dtype=complex))
    profs = [lp_zero_profile()] + [zero] * 3
    est = cz_kernel_estimates(profs, grid64, SIGMA)
    assert abs(est.e1 - 1.0) < 1e-12
    assert np.isfinite(est.e2) and np.isfinite(est.e3)
    assert est.phi_2_sigma > 0


def test_cz_lp_family_ratios_bounded(grid128):
    est = cz_kernel_estimates(lp_sequence(grid128), grid128, SIGMA)
    r1, r2, r3 = est.ratios()
    for r in (r1, r2, r3):
        assert 0.0 < r < 10.0


def test_cz_refinement_stability():
    # C = E_i / ||phi||_{2,sigma} stable within 20% under N -> 2N
    for kind in ("default", "poly"):
        ratios = []
        for N in (128, 256):
            g = Grid(1, N)
            est = cz_kernel_estimates(lp_sequence(g, kind), g, SIGMA,
                                      family_kind=kind)
            ratios.append(est.ratios())
        for a, b in zip(*ratios):
            assert abs(b / a - 1.0) < 0.2


def test_certificate_serialization(grid64):
    seq = identity_sequence(grid64)
    cert = empirical_square_bound(seq, gen_for(grid64), 0.0, 2.0, trials=1, sigma=SIGMA)
    text = cert.to_text()
    assert "hypothesis_constant" in text and "empirical_ratio" in text
    assert f"sigma = {SIGMA}" in text
