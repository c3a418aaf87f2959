import collections
import dataclasses

import numpy as np
import pytest

import helpers
from ovtl import fmult, opfield, spectral, sqfn
from ovtl.errors import HypothesisError, ParameterError, ResolutionError
from ovtl.lattice import Grid, cone_index
from ovtl.fmult import (
    DILATE_SHIFTS,
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
    phi_two_sigma,
)
from ovtl.generators import band_limited_random, band_limited_spectrum
from ovtl.spectral import (
    Profile,
    constant_profile,
    fft_data,
    lp_base_profile,
    make_lp_family,
    symbol_from_profile,
)
from helpers import (
    certificate_reference,
    hypothesis_components_reference,
    phi_two_sigma_reference,
    scaled_sequence,
)


SIGMA = 1.0


def gen_for(grid, n=2, base=1000):
    def gen(t):
        return band_limited_spectrum(grid, n, base + t)

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


# ---------------------------------------------------------------------------
# shared work in the certificates against the route with none
# ---------------------------------------------------------------------------

CERT_GRIDS = [Grid(1, 256), Grid(2, 64)]


def _sigma(grid):
    """The command line's default smoothness d/2 + 1/2."""
    return grid.d / 2.0 + 0.5


def _family(grid, name):
    return identity_sequence(grid) if name == "identity" else bessel_dilate_sequence(grid, 1.0)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("conic", [False, True], ids=["radial", "conic"])
@pytest.mark.parametrize("name", ["identity", "bessel"])
@pytest.mark.parametrize("grid", CERT_GRIDS, ids=lambda g: f"d{g.d}-N{g.N}")
def test_certificate_matches_unshared_route(grid, name, conic, p, n):
    seq, sigma = _family(grid, name), _sigma(grid)
    cone = cone_index(grid, make_lp_family(grid).j_max) if conic else None
    gen = gen_for(grid, n, base=300)
    if cone is None:
        got = empirical_square_bound(seq, gen, 0.5, p, trials=3, sigma=sigma)
    else:
        got = empirical_conic_bound(seq, gen, 0.5, p, cone, trials=3, sigma=sigma)
    want = certificate_reference(_family(grid, name), gen, 0.5, p, trials=3, sigma=sigma,
                                 cone=cone)
    assert got.to_text() == want.to_text()
    assert [r.hex() for r in got.per_trial] == [r.hex() for r in want.per_trial]


INVERSE_FFTS = ("ifft", "ifftn", "ifft2", "irfft", "irfftn")


@pytest.mark.parametrize("conic", [False, True], ids=["radial", "conic"])
@pytest.mark.parametrize("beta,square_functions", [(None, 0), (0.0, 0), (1.0, 2)],
                         ids=["identity", "bessel0", "bessel1"])
def test_no_square_function_where_levels_are_identical(monkeypatch, beta, square_functions,
                                                       conic):
    # where every phi_j rho_j is bitwise rho_j a trial takes no level inverse,
    # inverse FFT or Gram; Bessel at beta = 1 takes those of two square functions
    grid = Grid(2, 64)
    seq = identity_sequence(grid) if beta is None else bessel_dilate_sequence(grid, beta)
    cone = cone_index(grid, make_lp_family(grid).j_max) if conic else None
    calls = collections.Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(spectral, "_pruned_ifft", counting("pruned", spectral._pruned_ifft))
    for fn_name in INVERSE_FFTS:
        monkeypatch.setattr(np.fft, fn_name, counting("ifft", getattr(np.fft, fn_name)))
    monkeypatch.setattr(opfield.PSDAccumulator, "add_gram",
                        counting("gram", opfield.PSDAccumulator.add_gram))
    spectra = [band_limited_spectrum(grid, 2, 1000 + t) for t in range(3)]
    levels = [(j, sqfn.level_weight(j, 0.5), seq.rho_symbol(j)) for j in range(seq.j_max + 1)]
    calls.clear()
    sqfn.square_norm(opfield.to_planes(spectra[0]), grid, levels, 1.0, cone)
    one = collections.Counter(calls)
    assert set(one) == {"pruned", "ifft", "gram"}
    snapshots = []

    def gen(t):
        snapshots.append(collections.Counter(calls))
        return spectra[t]

    for p in (1.0, 3.0):
        calls.clear()
        snapshots.clear()
        if cone is None:
            cert = empirical_square_bound(seq, gen, 0.5, p, trials=3, sigma=1.5)
        else:
            cert = empirical_conic_bound(seq, gen, 0.5, p, cone, trials=3, sigma=1.5)
        snapshots.append(collections.Counter(calls))
        per_trial = [after - before for before, after in zip(snapshots, snapshots[1:])]
        assert per_trial == 3 * [collections.Counter({k: square_functions * v
                                                      for k, v in one.items()})]
        if square_functions == 0:
            assert cert.per_trial == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("conic", [False, True], ids=["radial", "conic"])
@pytest.mark.parametrize("name", ["identity", "bessel"])
def test_trials_no_level_covers_read_zero(name, conic, p):
    # an all-zero spectrum and one on the mode (0, 32), which no LP level
    # covers at N = 64: every input square function is 0, and so is the ratio
    grid = Grid(2, 64)
    fam = make_lp_family(grid)
    assert all(fam.values(j)[0, 32] == 0 for j in fam.scales())
    zero = np.zeros(grid.shape + (2, 2), dtype=np.complex128)
    uncovered = zero.copy()
    uncovered[0, 32] = [[1.0, 2.0j], [-3.0, 0.5 + 4.0j]]
    spectra = [zero, uncovered, band_limited_spectrum(grid, 2, 700)]
    seq, sigma = _family(grid, name), _sigma(grid)
    cone = cone_index(grid, fam.j_max) if conic else None
    if cone is None:
        got = empirical_square_bound(seq, spectra.__getitem__, 0.5, p, trials=3, sigma=sigma)
    else:
        got = empirical_conic_bound(seq, spectra.__getitem__, 0.5, p, cone, trials=3,
                                    sigma=sigma)
    want = certificate_reference(_family(grid, name), spectra.__getitem__, 0.5, p, trials=3,
                                 sigma=sigma, cone=cone)
    assert got.to_text() == want.to_text()
    assert [r.hex() for r in got.per_trial] == [r.hex() for r in want.per_trial]
    assert got.per_trial[:2] == [0.0, 0.0] and got.per_trial[2] > 0


@pytest.mark.parametrize("grid,pruned", [(Grid(2, 64), True), (Grid(1, 256), False)],
                         ids=["d2-N64", "d1-N256"])
def test_certificate_levels_below_top_are_pruned(monkeypatch, grid, pruned):
    counted = []
    original = spectral._pruned_ifft

    def counting(coef, g, r):
        counted.append(r)
        return original(coef, g, r)

    sigma = _sigma(grid)
    spectra = [band_limited_spectrum(grid, 2, 1000)]
    monkeypatch.setattr(spectral, "_pruned_ifft", counting)
    for name, square_functions in (("bessel", 2), ("identity", 0)):
        seq = _family(grid, name)
        for conic in (False, True):
            counted.clear()
            cone = cone_index(grid, make_lp_family(grid).j_max) if conic else None
            if cone is None:
                empirical_square_bound(seq, spectra.__getitem__, 0.5, 1.0, trials=1, sigma=sigma)
            else:
                empirical_conic_bound(seq, spectra.__getitem__, 0.5, 1.0, cone, trials=1,
                                      sigma=sigma)
            # level j has band 2^{j+1} - 1; the top one's passes N/4, every other
            # prunes; an identity trial inverts no level
            want = square_functions * [2 ** (j + 1) - 1 for j in range(seq.j_max)]
            assert sorted(counted) == (sorted(want) if pruned else [])


FFT_FUNCS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft", "rfftn",
             "irfftn")


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("conic", [False, True], ids=["radial", "conic"])
@pytest.mark.parametrize("name", ["identity", "bessel"])
@pytest.mark.parametrize("grid", CERT_GRIDS, ids=lambda g: f"d{g.d}-N{g.N}")
def test_certificate_transforms_no_trial_data(monkeypatch, grid, name, conic, p):
    # a trial is its spectrum: neither it nor its field enters a transform,
    # and drawing it takes none
    seq, sigma = _family(grid, name), _sigma(grid)
    cone = cone_index(grid, make_lp_family(grid).j_max) if conic else None
    trials = [(band_limited_spectrum(grid, 2, 400 + t), band_limited_random(grid, 2, 400 + t).data)
              for t in range(2)]
    trials = [pair + tuple(opfield.to_planes(x) for x in pair) for pair in trials]  # planes too
    calls, on_trial = [], []

    def counting(fn):
        def wrapped(a, *args, **kwargs):
            calls.append(1)
            on_trial.extend(1 for trial in trials for x in trial
                            if np.shape(a) == x.shape and np.array_equal(a, x))
            return fn(a, *args, **kwargs)
        return wrapped

    for module, names in ((np.fft, FFT_FUNCS),
                          (spectral, ("fft_data", "ifft_data", "fft_planes", "ifft_planes")),
                          (sqfn, ("fft_planes", "ifft_planes"))):
        for fn_name in names:
            monkeypatch.setattr(module, fn_name, counting(getattr(module, fn_name)))
    drawn = []

    def gen(t):
        before = len(calls)
        spectrum = band_limited_spectrum(grid, 2, 400 + t)
        drawn.append(len(calls) - before)
        return spectrum

    if cone is None:
        empirical_square_bound(seq, gen, 0.5, p, trials=2, sigma=sigma)
    else:
        empirical_conic_bound(seq, gen, 0.5, p, cone, trials=2, sigma=sigma)
    assert drawn == [0, 0]
    assert on_trial == []
    assert calls  # the hypothesis constant, and at p = 1 the levels, took transforms


ROUTE_GRIDS = CERT_GRIDS + [Grid(3, 16)]


@pytest.mark.parametrize("conic", [False, True], ids=["radial", "conic"])
@pytest.mark.parametrize("name", ["identity", "bessel"])
@pytest.mark.parametrize("grid", ROUTE_GRIDS, ids=lambda g: f"d{g.d}-N{g.N}")
def test_spectrum_trials_match_field_trials(grid, name, conic):
    # the drawn spectrum against the forward transform of the drawn field
    seq, sigma = _family(grid, name), _sigma(grid)
    cone = cone_index(grid, make_lp_family(grid).j_max) if conic else None
    for n in (1, 2, 3):
        spectra = [band_limited_spectrum(grid, n, 600 + t) for t in range(2)]
        fields = [fft_data(band_limited_random(grid, n, 600 + t).data, grid) for t in range(2)]
        for p in (1.0, 2.0):
            got, want = (empirical_square_bound(seq, trials.__getitem__, 0.5, p, trials=2,
                                                sigma=sigma) if cone is None else
                         empirical_conic_bound(seq, trials.__getitem__, 0.5, p, cone, trials=2,
                                               sigma=sigma)
                         for trials in (spectra, fields))
            assert got.hypothesis_constant == want.hypothesis_constant
            for a, b in zip(got.per_trial, want.per_trial):
                assert abs(a - b) <= 1e-12 * abs(b)


@pytest.mark.parametrize("grid", ROUTE_GRIDS, ids=lambda g: f"d{g.d}-N{g.N}")
def test_rho_symbol_is_the_cached_family_member(grid):
    fam = make_lp_family(grid)
    for seq in (identity_sequence(grid), bessel_dilate_sequence(grid, 1.0)):
        for j in range(seq.j_max + 1):
            assert seq.rho_symbol(j) is fam.member(j)
            fresh = symbol_from_profile(grid, seq.rho_profiles[j])
            assert seq.rho_symbol(j).values.tobytes() == fresh.values.tobytes()
    # rho profiles of another family are sampled from the profile
    poly = SymbolSequence(grid, lp_sequence(grid), lp_sequence(grid, "poly"), name="poly-rho")
    for j in range(poly.j_max + 1):
        got = poly.rho_symbol(j)
        assert got is not fam.member(j)
        assert got.values.tobytes() == make_lp_family(grid, "poly").values(j).tobytes()


def _poly_sequence(grid):
    rho = lp_sequence(grid)
    return SymbolSequence(grid, lp_sequence(grid, "poly"), rho, name="poly")


@pytest.mark.parametrize("make", [identity_sequence, lambda g: bessel_dilate_sequence(g, 1.0),
                                  _poly_sequence], ids=["identity", "bessel", "poly"])
@pytest.mark.parametrize("grid", CERT_GRIDS, ids=lambda g: f"d{g.d}-N{g.N}")
def test_hypothesis_components_match_per_evaluation_sampling(grid, make):
    seq, sigma = make(grid), _sigma(grid)
    want = hypothesis_components_reference(seq, sigma)
    assert [x.hex() for x in hypothesis_components(seq, sigma)] == [x.hex() for x in want]


@pytest.mark.parametrize("kind", ["default", "poly"])
@pytest.mark.parametrize("grid", CERT_GRIDS, ids=lambda g: f"d{g.d}-N{g.N}")
def test_phi_two_sigma_and_cz_match_per_evaluation_sampling(monkeypatch, grid, kind):
    profiles, sigma = lp_sequence(grid, kind), _sigma(grid)
    want = phi_two_sigma_reference(profiles, grid, sigma, kind)
    assert phi_two_sigma(profiles, grid, sigma, kind).hex() == want.hex()
    got = cz_kernel_estimates(profiles, grid, sigma, family_kind=kind)
    monkeypatch.setattr(fmult, "phi_two_sigma", phi_two_sigma_reference)
    ref = cz_kernel_estimates(profiles, grid, sigma, family_kind=kind)
    assert got.phi_2_sigma.hex() == want.hex()
    assert repr(dataclasses.astuple(got)) == repr(dataclasses.astuple(ref))


def test_hsigma_evaluations_per_sweep_unchanged(monkeypatch, grid128):
    # one evaluation per term, as the tracer's fmult.hsigma_evals counts them
    counted = []
    original = fmult.hsigma_norm_profile

    def counting(*args, **kwargs):
        counted.append(1)
        return original(*args, **kwargs)

    for module in (fmult, helpers):
        monkeypatch.setattr(module, "hsigma_norm_profile", counting)
    seq = bessel_dilate_sequence(grid128, 1.0)
    profiles = lp_sequence(grid128)
    sweeps = [(lambda: hypothesis_components(seq, SIGMA),
               lambda: hypothesis_components_reference(seq, SIGMA),
               len(DILATE_SHIFTS) * seq.j_max + 1),
              (lambda: phi_two_sigma(profiles, grid128, SIGMA),
               lambda: phi_two_sigma_reference(profiles, grid128, SIGMA),
               len(profiles) * (len(profiles) + 3))]
    for sweep, reference, terms in sweeps:
        for call in (sweep, reference):
            counted.clear()
            call()
            assert len(counted) == terms


def test_dilate_leaving_the_window_raises_as_before(monkeypatch, grid128):
    # a base bump four times wider (support radius 8) leaves both windows
    wide = lp_base_profile().dilate(0.25)
    seq = bessel_dilate_sequence(grid128, 1.0)
    profiles = lp_sequence(grid128)
    errors = []
    for module in (fmult, helpers):
        monkeypatch.setattr(module, "lp_base_profile", lambda kind="default": wide)
    for call in (lambda: hypothesis_components(seq, SIGMA),
                 lambda: hypothesis_components_reference(seq, SIGMA),
                 lambda: phi_two_sigma(profiles, grid128, SIGMA),
                 lambda: phi_two_sigma_reference(profiles, grid128, SIGMA)):
        with pytest.raises(ResolutionError) as exc:
            call()
        errors.append(str(exc.value))
    assert errors[0] == errors[1] and errors[2] == errors[3]
    assert "exceeds window" in errors[0]
