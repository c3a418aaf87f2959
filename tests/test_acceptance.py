"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Desk scale: d = 1 at N = 1024, d = 2 at N = 128, matrix sizes n in {1, 2, 4}.
Equivalence constants are measured and checked for stability, never asserted
against theoretical values.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math

import numpy as np

import scalar_reference as ref
from ovtl.errors import HypothesisError
from ovtl.lattice import DyadicCube, Grid, cone_index
from ovtl.opfield import (
    OperatorField,
    l1l2_sizes,
    trace_lp_norm,
)
from ovtl.generators import band_limited_random, band_limited_spectrum, rng_for
from ovtl.atomics import (
    TentAtom,
    calderon_resolution,
    pointwise_multiply_test,
    smooth_decompose_h1,
    smooth_decompose_tl,
    tent_atomize,
    validate_atoms,
)
from ovtl.fmult import (
    SymbolSequence,
    bessel_dilate_sequence,
    cz_kernel_estimates,
    empirical_conic_bound,
    empirical_square_bound,
    identity_sequence,
    lp_sequence,
)
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
    Profile,
    apply_symbol,
    bessel_symbol,
    constant_profile,
    make_hom_lp_family,
    make_lp_family,
)
from helpers import (
    project_tent,
    side_cells,
    tent_to_strip,
    atom_field,
    fft_forward,
    fft_inverse,
    hs_norm_sq,
    lp_positivity_margin,
    op_cauchy_schwarz_gap,
    op_cauchy_schwarz_scale,
    random_alpha_one_atom,
    random_alpha_q_atom,
    random_strip,
    sandwich_floor,
    square_sum,
    tent_size,
)

GRID_1D = Grid(1, 1024)
GRID_2D = Grid(2, 128)
SEEDS_20 = range(20)


def record(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"[criterion {num:02d}] {status} - {desc}{extra}")
    assert ok, f"criterion {num}: {desc} {extra}"


def split_half_widths(values):
    """Bracket width max/min on each half of the seed list."""
    half = len(values) // 2
    def width(vs):
        return max(vs) / min(vs)
    return width(values[:half]), width(values[half:])


# ---------------------------------------------------------------------------
# 1. spectral exactness
# ---------------------------------------------------------------------------

def test_criterion_01_spectral_exactness():
    worst_rt, worst_pl = 0.0, 0.0
    cases = [(GRID_1D, n, s) for s, n in zip(range(30), [1, 2, 4] * 10)]
    cases += [(GRID_2D, n, 100 + s) for s, n in zip(range(20), [1, 2, 4, 2] * 5)]
    for grid, n, seed in cases:
        f = band_limited_random(grid, n, seed)
        fh = fft_forward(f)
        back = fft_inverse(fh)
        scale = float(np.max(np.abs(f.data)))
        worst_rt = max(worst_rt, float(np.max(np.abs(back.data - f.data))) / scale)
        lhs = hs_norm_sq(f)
        rhs = float(np.sum(np.abs(fh.data) ** 2))
        worst_pl = max(worst_pl, abs(lhs - rhs) / lhs)
    ok = worst_rt <= 1e-12 and worst_pl <= 1e-12
    record(1, "Plancherel + round-trip within 1e-12 on 50 fields", ok,
           f"roundtrip {worst_rt:.2e}, plancherel {worst_pl:.2e}")


# ---------------------------------------------------------------------------
# 2. LP family exactness
# ---------------------------------------------------------------------------

def test_criterion_02_lp_family():
    ok = True
    details = []
    for grid in (GRID_1D, GRID_2D):
        for kind in ("default", "poly"):
            fam = make_lp_family(grid, kind)
            part = fam.partition_sum()
            defect = float(np.max(np.abs(part[fam.covered_mask()] - 1.0)))
            ok &= defect <= 1e-14
            r = grid.freq_norm
            for j in range(1, fam.j_max + 1):
                vals = fam.values(j).real
                outside = (r < 2.0 ** (j - 1)) | (r > 2.0 ** (j + 1))
                ok &= bool(np.all(vals[outside] == 0.0))
                ok &= vals.min() >= 0.0 and vals.max() <= 1.0 + 1e-12
                # strict positivity at every float-representable interior point
                margin = lp_positivity_margin(kind)
                x = r * 2.0**-j
                resolvable = (2 * x >= 1.0 + margin) & (x <= 2.0 - margin) & (x > 0.5)
                ok &= bool(np.all(vals[resolvable] > 0.0))
            vals0 = fam.values(0).real
            ok &= bool(np.all(vals0[r > 2.0] == 0.0))
            ok &= bool(np.all(vals0[r <= 1.0] == 1.0))
            details.append(f"{grid.d}d/{kind}: defect {defect:.1e}")
    record(2, "LP support/positivity/partition exact on the lattice", ok,
           "; ".join(details))


# ---------------------------------------------------------------------------
# 3. operator Cauchy-Schwarz
# ---------------------------------------------------------------------------

def test_criterion_03_cauchy_schwarz():
    worst = 0.0
    for trial in range(100):
        n = (1, 2, 4)[trial % 3]
        rng = rng_for(5000 + trial)
        phi = rng.normal(size=GRID_1D.shape) + 1j * rng.normal(size=GRID_1D.shape)
        f = band_limited_random(GRID_1D, n, 6000 + trial)
        gap = op_cauchy_schwarz_gap(phi, f)
        scale = op_cauchy_schwarz_scale(phi, f)
        worst = min(worst, gap / scale if scale > 0 else 0.0)
    ok = worst >= -1e-9
    record(3, "CS gap >= -1e-9 * scale on 100 random pairs", ok,
           f"worst relative gap {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. p = 2 sandwich
# ---------------------------------------------------------------------------

def test_criterion_04_p2_sandwich():
    fam = make_lp_family(GRID_1D)
    c0 = math.sqrt(sandwich_floor(fam))
    ok = c0 >= 1.0 / math.sqrt(2.0) - 1e-15
    worst_id = 0.0
    for seed in range(50):
        n = (1, 2, 4)[seed % 3]
        f = band_limited_random(GRID_1D, n, 7000 + seed)
        val = tl_norm_column(f, 0.0, 2.0, fam).value
        l2 = trace_lp_norm(f, 2.0)
        ok &= c0 * l2 <= val * (1 + 1e-12) and val <= l2 * (1 + 1e-12)
        # frequency-side identity
        fh = fft_forward(f).data
        rhs = math.sqrt(float(np.sum(square_sum(fam)[..., None, None] * np.abs(fh) ** 2)))
        worst_id = max(worst_id, abs(val - rhs) / rhs)
    ok &= worst_id <= 1e-12
    record(4, "p=2 sandwich c0 ||f||_2 <= ||f||_F0 <= ||f||_2, 50 seeds", ok,
           f"c0 = {c0:.6f}, identity defect {worst_id:.2e}")


# ---------------------------------------------------------------------------
# 5. monotone embedding
# ---------------------------------------------------------------------------

def test_criterion_05_monotone_embedding():
    fam = make_lp_family(GRID_1D)
    ok = True
    for seed in SEEDS_20:
        f = band_limited_random(GRID_1D, 2, 8000 + seed)
        for beta, alpha in ((0.0, 0.5), (-1.0, 0.0), (0.5, 1.0)):
            for p in (1.0, 2.0, 3.0):
                lo = tl_norm_column(f, beta, p, fam).value
                hi = tl_norm_column(f, alpha, p, fam).value
                ok &= lo <= hi * (1 + 1e-12)
    record(5, "monotone embedding ||.||_beta <= ||.||_alpha for beta < alpha", ok)


# ---------------------------------------------------------------------------
# 6. lifting
# ---------------------------------------------------------------------------

def test_criterion_06_lifting():
    ok = True
    worst_rt = 0.0
    widths = {}
    for N in (512, 1024):
        g = Grid(1, N)
        fam = make_lp_family(g)
        for (alpha, beta) in ((0.0, 1.0), (0.0, -1.0), (0.5, 1.0), (1.0, 2.0)):
            for p in (1.0, 2.0, 3.0):
                ratios = []
                for seed in SEEDS_20:
                    f = band_limited_random(g, 2, 9000 + seed)
                    jf = apply_symbol(bessel_symbol(g, beta), f)
                    if p == 1.0 and seed < 5:
                        back = apply_symbol(bessel_symbol(g, -beta), jf)
                        worst_rt = max(worst_rt, float(
                            np.max(np.abs(back.data - f.data)) / np.max(np.abs(f.data))
                        ))
                    num = tl_norm_column(jf, alpha - beta, p, fam).value
                    den = tl_norm_column(f, alpha, p, fam).value
                    ratios.append(num / den)
                widths[(N, alpha, beta, p)] = max(ratios) / min(ratios)
    ok &= worst_rt <= 1e-11
    drift = 0.0
    for (alpha, beta) in ((0.0, 1.0), (0.0, -1.0), (0.5, 1.0), (1.0, 2.0)):
        for p in (1.0, 2.0, 3.0):
            w1, w2 = widths[(512, alpha, beta, p)], widths[(1024, alpha, beta, p)]
            drift = max(drift, w2 / w1, w1 / w2)
    ok &= drift <= 2.0
    record(6, "lifting round-trip 1e-11; ratio bracket drift <= x2 across grids",
           ok, f"roundtrip {worst_rt:.2e}, max width drift {drift:.4f}")


# ---------------------------------------------------------------------------
# 7. phi-independence and homogeneous equivalence
# ---------------------------------------------------------------------------

def test_criterion_07_equivalences():
    fam_a = make_lp_family(GRID_1D, "default")
    fam_b = make_lp_family(GRID_1D, "poly")
    hom = make_hom_lp_family(GRID_1D)
    ok = True
    details = []
    for alpha in (0.5, 1.0):
        for p in (1.0, 2.0):
            indep, homog = [], []
            for seed in SEEDS_20:
                f = band_limited_random(GRID_1D, 2, 10000 + seed)
                indep.append(tl_norm_column(f, alpha, p, fam_a).value
                             / tl_norm_column(f, alpha, p, fam_b).value)
                homog.append(homogeneous_equiv_report(f, alpha, p, fam_a, hom).value)
            for vals in (indep, homog):
                ok &= all(np.isfinite(v) and v > 0 for v in vals)
                w1, w2 = split_half_widths(vals)
                ok &= max(w1 / w2, w2 / w1) <= 2.0
            details.append(
                f"a={alpha},p={p}: indep [{min(indep):.3f},{max(indep):.3f}] "
                f"hom [{min(homog):.3f},{max(homog):.3f}]"
            )
    record(7, "phi-independence + homogeneous equivalence brackets stable", ok,
           "; ".join(details))


# ---------------------------------------------------------------------------
# 8. multiplier certificates
# ---------------------------------------------------------------------------

def test_criterion_08_multiplier_certificates():
    g = GRID_1D
    cone = cone_index(g, make_lp_family(g).j_max)
    sigma = 1.0

    def gen(t):
        return band_limited_spectrum(g, 2, 11000 + t)

    ok = True
    details = []
    for seq in (identity_sequence(g), bessel_dilate_sequence(g, 1.0)):
        for p in (2.0, 3.0):
            cert = empirical_square_bound(seq, gen, 0.0, p, trials=5, sigma=sigma)
            ok &= cert.passed and all(
                r <= 100.0 * cert.hypothesis_constant for r in cert.per_trial
            )
        cert1 = empirical_square_bound(seq, gen, 0.0, 1.0, trials=5, sigma=sigma)
        ok &= cert1.passed  # Thm-2.7-shaped rho (dilate family)
        conic = empirical_conic_bound(seq, gen, 0.0, 2.0, cone, trials=3, sigma=sigma)
        ok &= conic.passed
        details.append(f"{seq.name}: R={cert1.empirical_ratio:.3f}, "
                       f"C={cert1.hypothesis_constant:.3f}")
    # support-violating sequence raises a hypothesis error
    gauss = Profile(lambda xi: np.exp(-np.sum(xi**2, axis=-1)) + 0j)
    rho = tuple(gauss for _ in range(4))
    bad = SymbolSequence(g, tuple(constant_profile() for _ in rho), rho, name="bad")
    raised = False
    try:
        empirical_square_bound(bad, gen, 0.0, 2.0, trials=1, sigma=sigma)
    except HypothesisError:
        raised = True
    ok &= raised
    record(8, "multiplier certificates pass; support violation raises", ok,
           "; ".join(details))


# ---------------------------------------------------------------------------
# 9. CZ kernel estimates
# ---------------------------------------------------------------------------

def test_criterion_09_cz_estimates():
    ok = True
    details = []
    for kind in ("default", "poly"):
        ratio_sets = []
        for N in (512, 1024):
            g = Grid(1, N)
            est = cz_kernel_estimates(lp_sequence(g, kind), g, 1.0, family_kind=kind)
            rs = est.ratios()
            ok &= all(np.isfinite(r) and r > 0 for r in rs)
            ratio_sets.append(rs)
        for a, b in zip(*ratio_sets):
            ok &= abs(b / a - 1.0) <= 0.2
        details.append(f"{kind}: C = ({ratio_sets[1][0]:.3f}, {ratio_sets[1][1]:.3f}, "
                       f"{ratio_sets[1][2]:.3f})")
    record(9, "CZ estimates E1,E2,E3 <= C ||phi||_{2,s}, C stable 20% under N->2N",
           ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 10. atom validators and decompositions
# ---------------------------------------------------------------------------

def test_criterion_10_decompositions():
    g = GRID_1D
    cal = calderon_resolution(g, n_pow=2)
    fam = make_lp_family(g)
    ok = True
    h1_ratios, tl_ratios, tent_ratios = [], [], []
    for seed in SEEDS_20:
        f = band_limited_random(g, 1 if seed % 3 else 2, 12000 + seed)
        dec = smooth_decompose_h1(f)
        ok &= dec.residual <= 1e-9
        ok &= all(r.passed for r in validate_atoms([a for _, a in dec.low_pairs + dec.high_pairs]))
        h1_ratios.append(dec.mass_ratio)
        dec2 = smooth_decompose_tl(f, 0.5, 1, 0)
        ok &= dec2.residual <= 1e-9
        ok &= all(r.passed
                  for r in validate_atoms([a for _, a in dec2.low_pairs + dec2.high_pairs]))
        tl_ratios.append(dec2.mass_ratio)
        # tent atomization reconstructs exactly
        F = random_strip(g, 1, cal.j_max, 13000 + seed)
        pairs = tent_atomize(F)
        rec = np.zeros(np.asarray(F.data).shape, dtype=complex)
        for lam, atom in pairs:
            rec += lam * tent_to_strip(atom, F.j_max).data
        ok &= float(np.max(np.abs(rec - F.data))) <= 1e-9 * float(np.max(np.abs(F.data)))
        ok &= all(r.passed for r in validate_atoms([a for _, a in pairs]))
        tent_ratios.append(sum(abs(l) for l, _ in pairs) / tent_norm(F, 1.0).value)
    for ratios in (h1_ratios, tl_ratios, tent_ratios):
        ok &= max(ratios) / min(ratios) <= 2.0
    # converse direction: generated atoms have uniformly comparable norms
    one_norms, q_norms = [], []
    for seed in range(100):
        a1 = random_alpha_one_atom(g, 2, 0.5, 1, 14000 + seed)
        one_norms.append(tl_norm_column(atom_field(a1), 0.5, 1.0, fam).value)
        aq = random_alpha_q_atom(g, 2, 0.5, 1, 0, level=2 + seed % 4, seed=15000 + seed)
        q_norms.append(tl_norm_column(atom_field(aq), 0.5, 1.0, fam).value)
    spread_one = max(one_norms) / min(one_norms)
    spread_q = max(q_norms) / min(q_norms)
    ok &= spread_one <= 10.0 and spread_q <= 10.0
    record(10, "decompositions reconstruct, atoms validate, ratios stable", ok,
           f"mass h1 [{min(h1_ratios):.2f},{max(h1_ratios):.2f}] "
           f"tl [{min(tl_ratios):.2f},{max(tl_ratios):.2f}] "
           f"tent [{min(tent_ratios):.2f},{max(tent_ratios):.2f}]; "
           f"atom norm spreads {spread_one:.2f}/{spread_q:.2f}")


# ---------------------------------------------------------------------------
# 11. projection contract
# ---------------------------------------------------------------------------

def test_criterion_11_projection_contract():
    g = GRID_1D
    cal = calderon_resolution(g, n_pow=2)
    rng = rng_for(16000)
    ok = True
    worst_leak, worst_mean, worst_const = 0.0, 0.0, 0.0
    for trial in range(50):
        level = int(rng.integers(0, 6))
        cube = DyadicCube(g, level, (int(rng.integers(0, 2**level)),))
        j_lo = max(level, 1)
        n_scales = int(rng.integers(1, cal.j_max - j_lo + 2))
        n = (1, 2, 4)[trial % 3]
        shape = (n_scales,) + (side_cells(cube),) * g.d + (n, n)
        block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        atom = TentAtom(cube=cube, j_lo=j_lo, block=block)
        atom = TentAtom(cube=cube, j_lo=j_lo,
                        block=block / (tent_size(atom) * math.sqrt(cube.volume)))
        out = project_tent(atom, cal)
        scale = float(np.max(np.abs(out.data)))
        mask = cube.mask(double=True)
        if np.any(~mask):
            worst_leak = max(worst_leak, float(np.max(np.abs(out.data[~mask]))) / scale)
        mean = float(np.max(np.abs(out.data.sum(axis=0))) * g.cell_volume)
        worst_mean = max(worst_mean, mean / scale)
        worst_const = max(worst_const,
                          float(l1l2_sizes(out.data.reshape(-1, n, n), g.cell_volume))
                          * math.sqrt(cube.volume))
    ok &= worst_leak <= 1e-10 and worst_mean <= 1e-12 and worst_const <= 1.0 + 1e-9
    record(11, "projection: support in 2Q, zero mean 1e-12, size <= C |Q|^-1/2",
           ok, f"leak {worst_leak:.1e}, mean {worst_mean:.1e}, C = {worst_const:.4f}")


# ---------------------------------------------------------------------------
# 12. pointwise multiplier
# ---------------------------------------------------------------------------

def test_criterion_12_pointwise_multiplier():
    g = GRID_1D
    fam = make_lp_family(g)
    prof = np.exp(-np.sum(g.signed_coords_about(np.array([0.5])) ** 2, axis=-1)
                  / (2 * 0.12**2))
    data = np.zeros(g.shape + (2, 2), dtype=complex)
    data[..., 0, 0] = 1.0 + prof
    data[..., 1, 1] = 1.0 - 0.5 * prof
    h = OperatorField(g, data)
    ok = True
    worst = 0.0
    for alpha in (0.0, 0.5):
        for seed in SEEDS_20:
            f = band_limited_random(g, 2, 17000 + seed)
            res = pointwise_multiply_test(h, f, alpha, fam)
            ok &= res["passed"]
            worst = max(worst, res["ratio"] / res["derivative_bound"])
    record(12, "pointwise multiplier ratio <= margin x derivative bound", ok,
           f"worst ratio/bound {worst:.4f} (margin 10)")


# ---------------------------------------------------------------------------
# 13. commutative reduction
# ---------------------------------------------------------------------------

def test_criterion_13_commutative_reduction():
    g = GRID_1D
    fam = make_lp_family(g)
    hom = make_hom_lp_family(g)
    symbols = [np.asarray(fam.values(j)) for j in range(fam.j_max + 1)]
    hom_symbols = {j: np.asarray(hom.member(j).values) for j in hom.scales()}
    h_d = g.cell_volume
    cal_j = fam.j_max
    worst = 0.0

    def check(a, b):
        nonlocal worst
        rel = abs(a - b) / max(abs(b), 1e-300)
        worst = max(worst, rel)
        return rel <= 1e-10

    ok = True
    for seed in SEEDS_20:
        f = band_limited_random(g, 1, 18000 + seed)
        fs = f.data[..., 0, 0]
        for alpha in (0.0, 0.5):
            for p in (1.0, 2.0):
                ok &= check(tl_norm_column(f, alpha, p, fam).value,
                            ref.tl_column(fs, alpha, p, symbols, h_d))
        ok &= check(tl_norm_row(f, 0.5, 1.0, fam).value,
                    ref.tl_row(fs, 0.5, 1.0, symbols, h_d))
        ok &= check(tl_norm_mixture(f, 0.0, 1.0, fam).value,
                    ref.tl_mixture(fs, 0.0, 1.0, symbols, h_d))
        ok &= check(tl_norm_mixture(f, 0.0, 3.0, fam).value,
                    ref.tl_mixture(fs, 0.0, 3.0, symbols, h_d))
        ok &= check(hardy_norm(f, 1.0, mode="lp", family=fam).value,
                    ref.hardy_lp_radial(fs, 1.0, symbols, h_d))
        ok &= check(hardy_norm(f, 1.0, mode="lp", shape="conic", family=fam).value,
                    ref.hardy_lp_conic(fs, 1.0, symbols, g.d, g.N))
        ok &= check(hardy_norm(f, 2.0, mode="poisson", family=fam).value,
                    ref.hardy_poisson_radial(fs, 2.0, g.freq_norm, cal_j, h_d))
        ok &= check(bmo_norm(f).value, ref.bmo(fs, g.d, g.N))
        ok &= check(tl_infty_norm(f, 0.5, fam).value,
                    ref.tl_infty(fs, 0.5, symbols, g.d, g.N))
        ok &= check(homogeneous_equiv_report(f, 0.5, 1.0, fam, hom).value,
                    ref.homogeneous_ratio(fs, 0.5, 1.0, symbols, hom_symbols, h_d))
        if seed % 4 == 0:
            F = random_strip(g, 1, fam.j_max, 19000 + seed)
            ok &= check(tent_norm(F, 1.0).value,
                        ref.tent_norm(F.data[..., 0, 0], 1.0, g.d, g.N))
    record(13, "n=1 norms match the independent scalar reference at 1e-10", ok,
           f"worst relative deviation {worst:.2e}")
