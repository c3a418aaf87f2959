import math
from dataclasses import replace

import numpy as np
import pytest

from ovtl import atomics
from ovtl.errors import ResolutionError, ValidationError
from ovtl.lattice import DyadicCube, Grid, box_indices, dyadic_cubes_at_level
from ovtl.opfield import OperatorField, StripField, l1l2_sizes
from ovtl.atomics import (
    HAtom,
    LOG2,
    TentAtom,
    _WINDOW_POINTS,
    _alpha_q_atoms,
    _bessel_weight,
    _cut_to_support,
    _grown_window,
    _project_boxes,
    _reach,
    _derivative_weights,
    _subatom_cells,
    _weighted_sizes,
    _window_sizes,
    calderon_resolution,
    multi_indices,
    pointwise_multiply_test,
    required_k_floor,
    required_l_floor,
    smooth_decompose_h1,
    smooth_decompose_tl,
    tent_atomize,
    validate_atoms,
)
from ovtl.generators import band_limited_random, bump, haar, rng_for
from ovtl.spectral import (
    bessel_symbol,
    fft_data,
    lp_family_j_max,
    multi_derivative_symbol,
)
from helpers import (
    constant_field,
    embed,
    failures,
    identity_defect,
    project_tent,
    random_alpha_one_atom,
    random_alpha_q_atom,
    random_strip,
    side_cells,
    symbol_on_data,
    tent_size,
    tent_to_strip,
    validate_atoms_reference,
    zero_field,
    zero_strip,
)

E11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def test_validate_unit_cube_indicator(grid64):
    data = np.zeros(grid64.shape + (2, 2), dtype=complex)
    data[..., 0, 0] = 1.0
    atom = HAtom(DyadicCube(grid64, 0, (0,)), data)
    rep = validate_atoms([atom])[0]
    assert rep.passed
    size_clause = next(c for c in rep.clauses if c.name == "size")
    assert abs(size_clause.measured - 1.0) < 1e-12  # saturates |Q|^{-1/2} = 1


def test_validate_haar_atom(grid64):
    cube = DyadicCube(grid64, 1, (0,))
    f = haar(grid64, 2)
    atom = HAtom(cube, f.data)
    rep = validate_atoms([atom])[0]
    assert rep.passed  # includes the mean-zero clause


def test_validate_oversized_fails(grid64):
    data = np.zeros(grid64.shape + (2, 2), dtype=complex)
    data[..., 0, 0] = 2.0
    atom = HAtom(DyadicCube(grid64, 0, (0,)), data)
    rep = validate_atoms([atom])[0]
    assert not rep.passed
    fail = failures(rep)[0]
    assert fail.name == "size" and fail.measured > fail.bound


def test_validate_support_violation(grid64):
    data = np.zeros(grid64.shape + (1, 1), dtype=complex)
    data[:, 0, 0] = 0.01  # spread everywhere
    atom = HAtom(DyadicCube(grid64, 2, (1,)), data)
    rep = validate_atoms([atom])[0]
    assert any(c.name == "support" and not c.passed for c in rep.clauses)


def test_tent_atom_validator(grid64):
    cube = DyadicCube(grid64, 1, (0,))
    rng = rng_for(50)
    block = rng.normal(size=(1,) + (side_cells(cube),) + (1, 1))
    atom = TentAtom(cube=cube, j_lo=2, block=block)
    size = tent_size(atom)
    atom = TentAtom(cube=cube, j_lo=2, block=block / (size * math.sqrt(cube.volume)))
    assert validate_atoms([atom])[0].passed
    bad = TentAtom(cube=cube, j_lo=1, block=block)  # scale 1/2 > side 1/2 is OK; j_lo=0 invalid
    bad = TentAtom(cube=cube, j_lo=0, block=block)
    assert not validate_atoms([bad])[0].passed


# ---------------------------------------------------------------------------
# reproducing system
# ---------------------------------------------------------------------------

def test_calderon_identity_and_origin(grid64):
    cal = calderon_resolution(grid64, n_pow=2)
    assert identity_defect(cal) <= 1e-14
    for j in range(1, cal.j_max + 1):
        # Psi_j(0) = 0 up to the FFT's own summation round-off
        assert abs(cal.level(j)[0]) <= 1e-15
    assert cal.phi0_values[0] == 1.0


def test_calderon_single_mode_energy(grid64):
    cal = calderon_resolution(grid64)
    k = 4
    total = cal.phi0_values[k] + sum(cal.level(j)[k] ** 2 for j in range(1, cal.j_max + 1))
    assert abs(total - 1.0) <= 1e-14


def test_calderon_stencil_support(grid64):
    # each level kernel lives in the closed half-cube of side 2^-j
    from ovtl.atomics import _stencil

    for j in (1, 2, 3):
        sten = _stencil(grid64, j, 2)
        R = grid64.N >> (j + 1)
        s = np.abs(grid64.freq_axis)
        assert np.all(sten[s > R] == 0.0)
        assert abs(sten.sum()) <= 1e-12 * np.max(np.abs(sten))


def test_calderon_npow4(grid64):
    cal = calderon_resolution(grid64, n_pow=4)
    assert identity_defect(cal) <= 1e-14


def test_calderon_rejects_bad_npow(grid64):
    with pytest.raises(ValueError):
        calderon_resolution(grid64, n_pow=3)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_zero(grid64):
    cal = calderon_resolution(grid64)
    Z = zero_strip(grid64, 2, cal.j_max)
    out = project_tent(Z, cal)
    assert np.max(np.abs(out.data)) == 0.0


def test_project_one_cell_atom(grid64):
    cal = calderon_resolution(grid64)
    cube = DyadicCube(grid64, 2, (1,))
    block = np.zeros((1,) + (side_cells(cube),) + (1, 1), dtype=complex)
    block[0, 3, 0, 0] = 1.0
    atom = TentAtom(cube=cube, j_lo=3, block=block)
    out = project_tent(atom, cal)
    # explicit single convolution oracle
    expected = LOG2 * symbol_on_data(cal.level(3), tent_to_strip(atom, cal.j_max).level(3), grid64)
    assert np.max(np.abs(out.data - expected)) < 1e-14
    # zero mean is forced by Psi_hat(0) = 0
    mean = np.abs(out.data.sum(axis=0)).max() * grid64.cell_volume
    assert mean <= 1e-12 * np.max(np.abs(out.data))


def test_project_random_atom_contract(grid64):
    cal = calderon_resolution(grid64)
    rng = rng_for(60)
    for trial in range(20):
        level = int(rng.integers(0, 4))
        idx = tuple(int(x) for x in rng.integers(0, 2**level, 1))
        cube = DyadicCube(grid64, level, idx)
        j_lo = max(level, 1)
        n_scales = int(rng.integers(1, cal.j_max - j_lo + 2))
        block = rng.normal(size=(n_scales,) + (side_cells(cube),) + (2, 2)) \
            + 1j * rng.normal(size=(n_scales,) + (side_cells(cube),) + (2, 2))
        atom = TentAtom(cube=cube, j_lo=j_lo, block=block)
        size = tent_size(atom)
        atom = TentAtom(cube=cube, j_lo=j_lo,
                        block=block / (size * math.sqrt(cube.volume)))
        out = project_tent(atom, cal)
        # support in 2Q
        mask = cube.mask(double=True)
        scale = np.max(np.abs(out.data))
        if np.any(~mask):
            leak = np.max(np.abs(out.data[~mask]))
            assert leak <= 1e-10 * scale
        # zero mean within 1e-12
        mean = np.abs(out.data.sum(axis=tuple(range(grid64.d)))).max() * grid64.cell_volume
        assert mean <= 1e-12 * scale
        # size certificate: measured constant <= 1 against |Q|^{-1/2}
        size_const = float(l1l2_sizes(out.data.reshape(-1, 2, 2), grid64.cell_volume)) \
            * math.sqrt(cube.volume)
        assert size_const <= 1.0 + 1e-9


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 32)], ids=["d1", "d2"])
def test_project_atom_ignores_scales_above_system(grid):
    # an atom reaching past cal.j_max projects as its scales up to cal.j_max
    cal = calderon_resolution(grid)
    cube = DyadicCube(grid, 1, (1,) * grid.d)
    j_lo = cal.j_max - 1
    shape = (4,) + (side_cells(cube),) * grid.d + (2, 2)
    rng = rng_for(61)
    block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    out = project_tent(TentAtom(cube=cube, j_lo=j_lo, block=block), cal)
    kept = project_tent(TentAtom(cube=cube, j_lo=j_lo, block=block[:2]), cal)
    assert np.max(np.abs(kept.data)) > 0.0
    assert np.max(np.abs(out.data - kept.data)) <= 1e-14 * np.max(np.abs(kept.data))


def test_project_rejects_mean_nonzero_level(grid64):
    cal = calderon_resolution(grid64)
    bad_levels = tuple(np.array(v) for v in cal.level_values)
    bad_levels[0][0] = 0.5  # inject a mean
    import dataclasses

    bad = dataclasses.replace(cal, level_values=bad_levels)
    Z = zero_strip(grid64, 1, cal.j_max)
    data = np.array(Z.data)
    data[0, 0, 0, 0] = 1.0
    with pytest.raises(ValidationError):
        project_tent(StripField(grid64, data), bad)


# ---------------------------------------------------------------------------
# tent atomization
# ---------------------------------------------------------------------------

def test_atomize_zero_empty(grid64):
    cal = calderon_resolution(grid64)
    assert tent_atomize(zero_strip(grid64, 2, cal.j_max)) == []


def test_atomize_saturated_single_atom_roundtrip(grid64):
    # a single-cell saturated atom comes back with lambda = 1
    cube = DyadicCube(grid64, 1, (1,))
    rng = rng_for(61)
    block = rng.normal(size=(1,) + (side_cells(cube),) + (1, 1))
    atom = TentAtom(cube=cube, j_lo=2, block=block)
    size = tent_size(atom)
    atom = TentAtom(cube=cube, j_lo=2, block=block / (size * math.sqrt(cube.volume)))
    F = tent_to_strip(atom, 3)
    pairs = tent_atomize(F)
    assert len(pairs) == 1
    lam, back = pairs[0]
    assert abs(lam - 1.0) < 1e-12
    assert back.cube.level == cube.level and back.cube.index == cube.index
    assert np.max(np.abs(back.block - atom.block)) < 1e-12


def test_atomize_reconstruction_and_validity(grid64):
    cal = calderon_resolution(grid64)
    F = random_strip(grid64, 2, cal.j_max, 62)
    pairs = tent_atomize(F)
    rec = np.zeros(np.asarray(F.data).shape, dtype=complex)
    for lam, atom in pairs:
        rec += lam * tent_to_strip(atom, F.j_max).data
    scale = np.max(np.abs(F.data))
    assert np.max(np.abs(rec - F.data)) <= 1e-10 * scale
    assert all(validate_atoms([a])[0].passed for _, a in pairs)


def test_atomize_mass_stable_across_seeds(grid64):
    from ovtl.normsuite import tent_norm

    cal = calderon_resolution(grid64)
    ratios = []
    for seed in range(8):
        F = random_strip(grid64, 1, cal.j_max, 70 + seed)
        pairs = tent_atomize(F)
        mass = sum(abs(l) for l, _ in pairs)
        ratios.append(mass / tent_norm(F, 1.0).value)
    assert max(ratios) / min(ratios) < 2.0


def test_atomize_keeps_every_nonzero_slice(grid64):
    # a cube slice at 1e-20 of the rest is an atom like any other: the
    # atomization is exact, and debris is the decompositions' to drop
    cal = calderon_resolution(grid64)
    F = random_strip(grid64, 2, cal.j_max, 63)
    data = np.array(F.data)
    data[(2,) + np.ix_(*DyadicCube(grid64, 2, (1,)).axis_indices())] *= 1e-20
    F = StripField(grid64, data)
    pairs = tent_atomize(F)
    assert len(pairs) == sum(1 << (j - 1) for j in range(1, F.j_max + 1))
    assert any((a.j_lo, a.cube.level, a.cube.index) == (3, 2, (1,)) for _, a in pairs)
    rec = sum(lam * tent_to_strip(atom, F.j_max).data for lam, atom in pairs)
    assert np.all(np.abs(rec - F.data) <= 4 * np.finfo(float).eps * np.abs(F.data))


def _decomposition_bytes(dec) -> list:
    """Every coefficient, atom block and subatom of ``dec`` as bytes, with
    its residual and mass ratio."""
    return [float(dec.residual).hex(), repr(dec.mass_ratio)] + [
        (float(c).hex(), a.kind, a.origin, a.block.tobytes(),
         [(float(d_c).hex(), sub.origin, sub.block.tobytes())
          for d_c, sub in getattr(a, "subatoms", [])])
        for c, a in dec.low_pairs + dec.high_pairs]


@pytest.mark.parametrize("d,N", [(1, 256), (2, 32)])
def test_debris_is_dropped_once_against_the_source(d, N, monkeypatch):
    # a tent pair at 1e-16 ||f||_2 leaves both decompositions as they are,
    # since the one floor, 1e-14 ||f||_2 in _decompose, drops it; one at
    # 1e-12 ||f||_2 passes the floor and changes them
    f = band_limited_random(Grid(d, N), 2, 64)
    decompose = [lambda: smooth_decompose_h1(f), lambda: smooth_decompose_tl(f, 0.5, 1, 0)]
    want = [_decomposition_bytes(call()) for call in decompose]
    scaled = f.data * np.ldexp(1.0, -f.pow2_exponent())
    norm = math.sqrt(float(np.sum(np.abs(scaled) ** 2)) * f.grid.cell_volume)
    atomize = atomics.tent_atomize
    for ratio, same in ((1e-16, True), (1e-12, False)):
        def with_debris(F):
            pairs = atomize(F)
            return pairs + [(ratio * norm, pairs[-1][1])]

        monkeypatch.setattr(atomics, "tent_atomize", with_debris)
        got = [_decomposition_bytes(call()) for call in decompose]
        assert [g == w for g, w in zip(got, want)] == [same, same], ratio


# ---------------------------------------------------------------------------
# smooth decompositions
# ---------------------------------------------------------------------------

def test_h1_zero_empty(grid64):
    dec = smooth_decompose_h1(zero_field(grid64, 2))
    assert dec.low_pairs == [] and dec.high_pairs == []


def test_h1_constant_only_low(grid64):
    f = constant_field(grid64, E11)
    dec = smooth_decompose_h1(f)
    assert len(dec.low_pairs) == 1
    assert len(dec.high_pairs) == 0  # level parts vanish on the mean mode
    assert dec.residual <= 1e-12
    mu = dec.low_pairs[0][0]
    assert 0.1 < mu < 10.0  # mass comparable to ||A|| scale


def test_h1_bump_pipeline(grid64):
    f = bump(grid64, 2, width=0.06, seed=80)
    dec = smooth_decompose_h1(f)
    assert dec.residual <= 1e-9
    assert all(validate_atoms([a])[0].passed for _, a in dec.low_pairs + dec.high_pairs)
    assert dec.mass_ratio is not None and 0.05 < dec.mass_ratio < 100.0


def test_h1_mass_stability(grid64):
    ratios = []
    for seed in range(8):
        f = band_limited_random(grid64, 2, 90 + seed)
        dec = smooth_decompose_h1(f)
        assert dec.residual <= 1e-9
        ratios.append(dec.mass_ratio)
    assert max(ratios) / min(ratios) < 2.0


def test_tl_parameter_floors():
    assert required_k_floor(0.5) == 1
    assert required_k_floor(1.0) == 2
    assert required_k_floor(-2.3) == 0
    assert required_l_floor(0.5) == -1
    assert required_l_floor(-1.2) == 1
    assert required_l_floor(0.0) == -1  # h1-compatible degeneration


def test_tl_rejects_low_parameters(grid64):
    f = band_limited_random(grid64, 2, 91)
    with pytest.raises(ValueError):
        smooth_decompose_tl(f, alpha=1.5, K=1, L=0)
    with pytest.raises(ValueError):
        smooth_decompose_tl(f, alpha=-1.5, K=0, L=0)


def test_tl_pipeline_validates(grid64):
    f = band_limited_random(grid64, 2, 92)
    dec = smooth_decompose_tl(f, alpha=0.5, K=1, L=0)
    assert dec.residual <= 1e-9
    reports = [validate_atoms([a])[0] for _, a in dec.low_pairs + dec.high_pairs]
    assert all(r.passed for r in reports)
    # alpha_q atoms carry nonempty subatom trees below the top cube level
    kinds = {a.kind for _, a in dec.high_pairs}
    assert kinds == {"alpha_q"}
    assert any(len(a.subatoms) > 1 for _, a in dec.high_pairs)


def test_tl_alpha0_degeneration(grid64):
    f = band_limited_random(grid64, 2, 93)
    dec = smooth_decompose_tl(f, alpha=0.0, K=1, L=-1)
    assert dec.residual <= 1e-9
    assert all(validate_atoms([a])[0].passed for _, a in dec.low_pairs + dec.high_pairs)


def test_tl_high_order_builds_its_own_system():
    # alpha = 2.5, L = 2 needs the reproducing system of order 4: with the
    # order-2 system the subatoms would fail their moment clauses
    g = Grid(1, 256)
    f = band_limited_random(g, 2, 96)
    dec = smooth_decompose_tl(f, 2.5, 3, 2)
    assert dec.residual <= 1e-9
    reports = validate_atoms([a for _, a in dec.low_pairs + dec.high_pairs])
    assert len(reports) > 50 and all(r.passed for r in reports)


@pytest.mark.parametrize("call", [
    lambda f, cal: smooth_decompose_h1(f, cal=cal),
    lambda f, cal: smooth_decompose_tl(f, 0.5, 1, 0, cal=cal),
    lambda f, cal: random_alpha_q_atom(f.grid, 1, 0.5, 1, 0, level=1, seed=1, cal=cal),
])
def test_decompositions_take_no_system(grid64, call):
    with pytest.raises(TypeError):
        call(band_limited_random(grid64, 1, 97), calderon_resolution(grid64))


def test_tl_2d_smoke():
    g = Grid(2, 32)
    f = band_limited_random(g, 2, 94)
    dec = smooth_decompose_tl(f, alpha=0.5, K=1, L=0)
    assert dec.residual <= 1e-9
    assert all(validate_atoms([a])[0].passed for _, a in dec.low_pairs + dec.high_pairs)


def test_subatom_moment_zero(grid64):
    f = band_limited_random(grid64, 2, 95)
    dec = smooth_decompose_tl(f, alpha=0.5, K=1, L=0)
    checked = 0
    for _, atom in dec.high_pairs:
        for d_c, sub in atom.subatoms:
            full = embed(sub)
            mean = np.abs(full.sum(axis=0)).max() * grid64.cell_volume
            mass = np.abs(full).sum() * grid64.cell_volume
            assert mean <= 1e-10 * max(mass, 1e-300)
            checked += 1
    assert checked > 10


# ---------------------------------------------------------------------------
# pointwise multipliers and atom generators
# ---------------------------------------------------------------------------

def test_pointwise_identity(grid64, fam64):
    f = band_limited_random(grid64, 2, 96)
    h = constant_field(grid64, np.eye(2))
    res = pointwise_multiply_test(h, f, 0.5, fam64)
    assert abs(res["ratio"] - 1.0) < 1e-12
    assert res["derivative_bound"] >= 1.0
    assert res["passed"]


def test_pointwise_zero(grid64, fam64):
    f = band_limited_random(grid64, 2, 97)
    h = zero_field(grid64, 2)
    res = pointwise_multiply_test(h, f, 0.5, fam64)
    assert res["ratio"] == 0.0


def test_pointwise_bump_bounded(grid64, fam64):
    rng = rng_for(98)
    prof = np.exp(-np.sum(grid64.signed_coords_about(np.array([0.5])) ** 2, axis=-1)
                  / (2 * 0.15**2))
    data = np.zeros(grid64.shape + (2, 2), dtype=complex)
    data[..., 0, 0] = 1.0 + prof
    data[..., 1, 1] = 1.0 + 0.5 * prof
    h = OperatorField(grid64, data)
    for seed in range(5):
        f = band_limited_random(grid64, 2, 300 + seed)
        res = pointwise_multiply_test(h, f, 0.5, fam64)
        assert res["passed"]


def test_random_alpha_one_atoms_validate(grid64):
    for seed in range(5):
        atom = random_alpha_one_atom(grid64, 2, 0.5, 1, 400 + seed)
        assert validate_atoms([atom])[0].passed


def test_random_alpha_q_atoms_validate(grid64):
    for seed in range(5):
        atom = random_alpha_q_atom(grid64, 2, 0.5, 1, 0, level=2, seed=500 + seed)
        assert validate_atoms([atom])[0].passed
        assert atom.subatoms


def test_alpha_q_level_out_of_range(grid64):
    with pytest.raises(ResolutionError):
        random_alpha_q_atom(grid64, 1, 0.5, 1, 0, level=10, seed=1)


# ---------------------------------------------------------------------------
# Plancherel sizes and the batched slicing against the filtered route
# ---------------------------------------------------------------------------

def _cplx(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _svd_size(data, volume):
    """tau((volume sum_s |a(s)|^2)^(1/2)) as the sum of the singular values of
    the stacked factor [a(s)]_s, independent of the size kernel."""
    n = data.shape[-1]
    return math.sqrt(volume) * float(np.sum(np.linalg.svd(data.reshape(-1, n),
                                                          compute_uv=False)))


def _filtered_size(values, data, grid):
    """The route the Plancherel sizes replace: filter, then integrate."""
    return _svd_size(symbol_on_data(values, data, grid), grid.cell_volume)


def _filtered_derivative_sizes(data, grid, gammas):
    return {g: _filtered_size(multi_derivative_symbol(grid, g).values, data, grid)
            for g in gammas}


def _derivative_sizes(data, grid, K):
    """The Plancherel sizes of D^gamma data, |gamma|_1 <= K, by gamma."""
    sizes = _weighted_sizes(fft_data(data, grid), grid, _derivative_weights(grid, K))
    return dict(zip(multi_indices(grid.d, K), sizes.tolist()))


def _bessel_size(data, grid, alpha):
    """The Plancherel size of J_alpha data."""
    return float(_weighted_sizes(fft_data(data, grid), grid, _bessel_weight(grid, alpha))[0])


def _size_cases(grid, n, rng):
    """(name, data, scale): the sizes of data are scale times those of data / scale."""
    full = _cplx(rng, grid.shape + (n, n))
    # a piece supported in the 2Q box of a cube that wraps around the torus
    cube = DyadicCube(grid, 2, (0,) * grid.d)
    origin, side = cube.box(double=True)
    piece = np.zeros(grid.shape + (n, n), dtype=complex)
    piece[np.ix_(*box_indices(grid, origin, (side,) * grid.d))] = \
        _cplx(rng, (side,) * grid.d + (n, n))
    return [("full", full, 1.0), ("piece", piece, 1.0),
            ("big", 1e150 * full, 1e150), ("small", 1e-150 * piece, 1e-150)]


@pytest.mark.parametrize("d,N", [(1, 64), (2, 16)])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("K", [1, 2])
def test_plancherel_sizes_match_filtered_route(d, N, n, K):
    grid = Grid(d, N)
    gammas = multi_indices(d, K)
    rng = rng_for(700 + 10 * d + n + 100 * K)
    bessel = bessel_symbol(grid, 0.5).values
    for name, data, scale in _size_cases(grid, n, rng):
        # at 1e150 the filtered route's Gram overflows, so it runs unscaled
        base = data / scale
        new = _derivative_sizes(data, grid, K)
        for gamma, old in _filtered_derivative_sizes(base, grid, gammas).items():
            assert new[gamma] == pytest.approx(scale * old, rel=1e-12), (name, gamma)
        new_b = _bessel_size(data, grid, 0.5)
        assert new_b == pytest.approx(scale * _filtered_size(bessel, base, grid),
                                      rel=1e-12), name


@pytest.mark.parametrize("d,N", [(1, 64), (2, 16)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_plancherel_sizes_rank_one(d, N, n):
    # for a = phi u v* the size is |u| |v| times the scalar size of phi; Gram
    # eigenvalues alone resolve the zero ones only to eps * lambda_max, so
    # this holds to 1e-12 only through the near-singular branch
    grid = Grid(d, N)
    gammas = multi_indices(d, 2)
    rng = rng_for(760 + 10 * d + n)
    for _ in range(3):
        phi = _cplx(rng, grid.shape)[..., None, None]
        u, v = _cplx(rng, n), _cplx(rng, n)
        data = phi * np.outer(u, v.conj())
        uv = np.linalg.norm(u) * np.linalg.norm(v)
        new = _derivative_sizes(data, grid, 2)
        for gamma, scalar in _filtered_derivative_sizes(phi, grid, gammas).items():
            assert new[gamma] == pytest.approx(uv * scalar, rel=1e-12), gamma
        scalar_b = _filtered_size(bessel_symbol(grid, 1.0).values, phi, grid)
        assert _bessel_size(data, grid, 1.0) == \
            pytest.approx(uv * scalar_b, rel=1e-12)


@pytest.mark.parametrize("d,N", [(1, 64), (2, 16)])
@pytest.mark.parametrize("n", [2, 3])
def test_spatial_sizes_rank_one(d, N, n):
    # on a = phi u v* the Hardy-atom size, the tent-atom size and every tent
    # coefficient are |u| |v| times those of the scalar phi; the Gram
    # eigenvalues alone meet this only to ~1e-8
    grid = Grid(d, N)
    rng = rng_for(800 + 10 * d + n)
    u, v = _cplx(rng, n), _cplx(rng, n)
    uv = np.linalg.norm(u) * np.linalg.norm(v)
    outer = np.outer(u, v.conj())
    phi = np.asarray(random_strip(grid, 1, 3, 810 + d).data)

    def h_size(data, cube):
        rep = validate_atoms([HAtom(cube, data)])[0]
        return next(c.measured for c in rep.clauses if c.name == "size")

    for cube in (DyadicCube(grid, 0, (0,) * d), DyadicCube(grid, 1, (1,) * d)):
        data = np.where(cube.mask()[..., None, None], phi[1], 0.0)
        assert h_size(data * outer, cube) == pytest.approx(uv * h_size(data, cube), rel=1e-12)
    cube = DyadicCube(grid, 1, (0,) * d)
    block = phi[1:3][(slice(None),) + np.ix_(*cube.axis_indices())]
    assert tent_size(TentAtom(cube, 2, block * outer)) == \
        pytest.approx(uv * tent_size(TentAtom(cube, 2, block)), rel=1e-12)
    scalar = tent_atomize(StripField(grid, phi))
    pairs = tent_atomize(StripField(grid, phi * outer))
    assert [(a.cube.index, a.j_lo) for _, a in pairs] == \
        [(a.cube.index, a.j_lo) for _, a in scalar]
    assert [lam for lam, _ in pairs] == \
        pytest.approx([uv * lam for lam, _ in scalar], rel=1e-12)


def _per_cell_slice(block, cube, j, cal, alpha, K):
    """Coefficients d_c and the rescale rho of an alpha_q atom, one cell at a
    time through full-grid masks and filtered sizes."""
    grid = cube.grid
    n = block.shape[-1]
    embedded = np.zeros(grid.shape + (n, n), dtype=complex)
    embedded[np.ix_(*cube.axis_indices())] = block
    d_cs = []
    for cell in _subatom_cells(cube):
        masked = np.where((cube.mask() & cell.mask())[..., None, None], embedded, 0)
        piece = LOG2 * symbol_on_data(cal.level(j), masked, grid)
        d_c = 0.0
        for gamma, s in _filtered_derivative_sizes(piece, grid, multi_indices(grid.d, K)).items():
            d_c = max(d_c, s / cell.volume ** (alpha / grid.d - sum(gamma) / grid.d))
        d_cs.append(d_c)
    g = LOG2 * symbol_on_data(cal.level(j), embedded, grid)
    rho1 = _filtered_size(bessel_symbol(grid, alpha).values, g, grid) * math.sqrt(cube.volume)
    rho2 = math.sqrt(sum(d * d for d in d_cs)) * math.sqrt(cube.volume)
    return d_cs, max(rho1, rho2)


@pytest.mark.parametrize("d,N,levels", [(1, 64, (0, 1, 2, 3)), (2, 32, (0, 1, 2))])
def test_batched_slice_matches_per_cell_loop(d, N, levels):
    grid = Grid(d, N)
    cal = calderon_resolution(grid)
    rng = rng_for(780 + d)
    for level in levels:
        for m in (0, (1 << level) - 1, (1 << level) // 2):
            cube = DyadicCube(grid, level, (m,) * d)
            block = _cplx(rng, (side_cells(cube),) * d + (2, 2))
            for alpha, K in ((0.5, 1), (1.5, 2)):
                [(rho, atom)] = _alpha_q_atoms([block], [cube], level + 1, cal, alpha, K, 0)
                d_cs, rho_old = _per_cell_slice(block, cube, level + 1, cal, alpha, K)
                assert rho == pytest.approx(rho_old, rel=1e-12)
                got = [d * rho for d, _ in atom.subatoms]
                assert got == pytest.approx([x for x in d_cs if x > 0], rel=1e-12)
                assert validate_atoms([atom])[0].passed


def _grown_mask(cube, reach):
    """Lattice points within ``reach`` cells of the cube per axis, from the
    signed periodic cell offsets to its center (not from DyadicCube.box):
    Q holds the offsets -side/2 .. side/2 - 1."""
    grid, half = cube.grid, side_cells(cube) // 2
    if side_cells(cube) + 2 * reach >= grid.N:
        return np.ones(grid.shape, dtype=bool)
    axes = [(np.arange(grid.N) - i * side_cells(cube) + grid.N // 2) % grid.N - grid.N // 2
            for i in cube.index]
    inside = [(-half - reach <= off) & (off < half + reach) for off in axes]
    out = np.ones(grid.shape, dtype=bool)
    for ax, row in enumerate(inside):
        out &= row.reshape((1,) * ax + (-1,) + (1,) * (grid.d - ax - 1))
    return out


@pytest.mark.parametrize("d,N", [(1, 64), (2, 32)])
def test_cut_to_double_leak_matches_mask_route(d, N):
    # the cut keeps Q grown by the reach R_j of the level j = level + 1
    # kernel, and the leak is the energy off that box; measured on a
    # full-grid mask of the box it is the same number, also for a tiny leak,
    # for cubes wrapping the origin and for boxes that cover the torus.  A
    # level-j cell grown by R_j is its 2Q, the box of its subatom
    grid = Grid(d, N)
    rng = rng_for(840 + d)
    for level in (0, 1, 2, 3):
        reach = _reach(grid, level + 1)
        for m in (0, (1 << level) - 1):  # index 0 at level >= 1 wraps around 0
            cube = DyadicCube(grid, level, (m,) * d)
            inside = _grown_mask(cube, reach)[..., None, None]
            full = _cplx(rng, grid.shape + (2, 2))
            for data in (full, np.where(inside, full, 1e-9 * full),
                         np.where(inside, full, 1e-16 * full), np.where(inside, full, 0)):
                [(origin, block, leak)] = _cut_to_support(data[None], [cube], reach)
                energy = np.sum(np.abs(data) ** 2, axis=(-2, -1))
                want = math.sqrt(np.sum(energy[~inside[..., 0, 0]]) / np.sum(energy))
                assert leak == pytest.approx(want, rel=1e-12, abs=1e-30)
                box = np.ix_(*box_indices(grid, origin, block.shape[:d]))
                assert np.array_equal(block, data[box])
                assert block.size == 4 * np.count_nonzero(inside)
            for cell in _subatom_cells(cube):
                [(origin, block, _)] = _cut_to_support(full[None], [cell], reach)
                assert (origin, block.shape[0]) == cell.box(double=True)


# ---------------------------------------------------------------------------
# stored boxes: each atom on its projected support
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("target", ["h1", "tl"])
@pytest.mark.parametrize("d,N", [(1, 64), (2, 32), (3, 16)])
def test_atoms_stored_on_projected_support(target, d, N):
    # every h1 and alpha_q atom of level-j tent data over Q is stored on Q
    # grown by R_j = N 2^-(j+1) per axis (or the torus), a box inside 2Q;
    # the energy the cut drops is round-off, and the decomposition still
    # rebuilds its source with every atom valid
    grid = Grid(d, N)
    f = band_limited_random(grid, 2, 880 + d)
    dec = smooth_decompose_h1(f) if target == "h1" else smooth_decompose_tl(f, 0.5, 1, 0)
    assert dec.residual <= 1e-9
    atoms = [a for _, a in dec.low_pairs + dec.high_pairs]
    assert all(r.passed for r in validate_atoms(atoms))
    [(_, low)] = dec.low_pairs
    assert low.origin == (0,) * d and low.block.shape[:d] == grid.shape
    levels = set()
    for _, atom in dec.high_pairs:
        cube = atom.cube
        reach = _reach(grid, cube.level + 1)
        assert reach == N >> (cube.level + 2) == side_cells(cube) // 4
        stored = np.zeros(grid.shape, dtype=bool)
        stored[np.ix_(*box_indices(grid, atom.origin, atom.block.shape[:d]))] = True
        assert np.array_equal(stored, _grown_mask(cube, reach))
        assert atom.block.size == 4 * np.count_nonzero(stored)  # no point stored twice
        assert not stored.all() or atom.origin == (0,) * d
        assert np.all(cube.mask(double=True)[stored])
        assert atom.support_leak <= 1e-14
        for _, sub in getattr(atom, "subatoms", []):
            assert (sub.origin, sub.block.shape[0]) == sub.cube.box(double=True)
            assert sub.support_leak <= 1e-14
        levels.add(cube.level)
    assert levels == set(range(lp_family_j_max(grid)))
    # some box is smaller than 2Q: the cut is not the old one
    assert any(a.block.shape[0] < min(2 * side_cells(a.cube), N) for _, a in dec.high_pairs)


# ---------------------------------------------------------------------------
# batched validation and the level-batched build
# ---------------------------------------------------------------------------

def _clauses(rep):
    return rep.atom_kind, [(c.name, c.passed, c.measured, c.bound) for c in rep.clauses]


def _moved(sub, shift: int):
    """``sub`` on the cube ``shift`` cells of its level further on axis 0,
    stored on that cube's 2Q."""
    index = (sub.cube.index[0] + shift,) + sub.cube.index[1:]
    cube = DyadicCube(sub.grid, sub.cube.level, index)
    return replace(sub, cube=cube, origin=cube.box(double=True)[0])


def test_validate_atoms_batch_matches_batch_of_one():
    # h1 and tl atoms on two grids, some tent atoms, and eight broken copies
    # of valid atoms, each stacked in a group with its valid neighbours
    decs = []
    for grid in (Grid(1, 256), Grid(2, 32)):
        f = band_limited_random(grid, 2, 850 + grid.d)
        decs += [smooth_decompose_h1(f),
                 smooth_decompose_tl(f, 0.5, 1, 0)]
    atoms = [a for dec in decs for _, a in dec.low_pairs + dec.high_pairs]
    tents = [t for _, t in tent_atomize(random_strip(Grid(1, 256), 2, 4, 851))[:12]]
    atoms += tents
    h = next(a for _, a in reversed(decs[0].high_pairs) if a.cube.level >= 2)
    q = decs[1].high_pairs[-1][1]
    sub = q.subatoms[0][1]
    # alpha_q atoms of d=1 N=256 with three subatoms, 2Q below the torus; the
    # level-2 ones are coarse (full-grid Bessel sizes), the last ones fine
    qs = [a for _, a in decs[1].high_pairs if a.cube.level >= 2 and len(a.subatoms) == 3]
    coarse = [a for a in qs if a.cube.level == 2]
    tent = next(t for t in tents if t.cube.level >= 2)

    def with_subatom(atom, k, new_pair):
        return replace(atom, subatoms=atom.subatoms[:k] + [new_pair] + atom.subatoms[k + 1:])

    (d0, s0), (d1, s1) = qs[-2].subatoms[:2]
    far = _moved(qs[-1].subatoms[0][1], 1 << (s0.cube.level - 1))
    N = q.grid.N
    broken = {
        "support": replace(h, double_support=False),
        "moment(0,)": replace(sub, block=sub.block + 1e-6 * np.abs(sub.block).max()),
        "size": replace(h, block=2.0 * h.block),
        # a subatom moved to the far side of the torus, outside the parent's 2Q
        "subcube_order": with_subatom(qs[-1], 0, (qs[-1].subatoms[0][0], far)),
        # one coefficient a little smaller: coefficient_l2 still passes
        "subatom_reconstruction": with_subatom(qs[-2], 0, (d0 * (1.0 - 1e-6), s0)),
        # the middle subatom fails its support clause; the sum is unchanged
        "subatoms_valid": with_subatom(qs[-3], 1, (d1, replace(s1, support_leak=1.0))),
        "support_in_tent": replace(tent, j_lo=tent.cube.level - 1),
        # a coarse atom half the torus away from its 2Q: its sum takes the torus
        "support_2Q": replace(coarse[0], origin=((coarse[0].origin[0] + N // 2) % N,)),
    }
    batch = list(atoms)
    for k, atom in enumerate(broken.values()):
        batch.insert(len(batch) // (k + 2), atom)
    reports = validate_atoms(batch)
    assert len(reports) == len(batch)
    for atom, rep in zip(batch, reports):
        assert _clauses(rep) == _clauses(validate_atoms([atom])[0])
        bad = next((name for name, b in broken.items() if b is atom), None)
        assert rep.passed == (bad is None)
        if bad is not None:
            assert bad in [c.name for c in failures(rep)]
    assert sum(len(a.subatoms) for a in atoms if a.kind == "alpha_q") > 50
    # the mutants leave their neighbours' reports as they are without them,
    # and their own are the atom-by-atom validator's
    alone = iter(validate_atoms(atoms))
    mutants = {id(atom) for atom in broken.values()}
    for atom, rep in zip(batch, reports):
        if id(atom) not in mutants:
            assert _clauses(rep) == _clauses(next(alone))
    own = validate_atoms(list(broken.values()))
    _assert_matches_reference(own, validate_atoms_reference(list(broken.values())))
    by_name = dict(zip(broken, own))
    assert [c.passed for c in by_name["subatoms_valid"].clauses
            if c.name == "subatoms_valid"] == [True, False]
    assert "subatom_reconstruction" in [c.name for c in failures(by_name["support_2Q"])]
    assert "subatom_reconstruction" in [c.name for c in failures(by_name["subcube_order"])]
    assert [c.name for c in failures(by_name["subatom_reconstruction"])] == \
        ["subatom_reconstruction"]


def _assert_matches_reference(got: list, want: list):
    """Reports agree clause by clause: names, bounds and verdicts exactly,
    measured values bitwise, moment norms to 1 ulp."""
    assert len(got) == len(want)
    for r1, r2 in zip(got, want):
        assert r1.atom_kind == r2.atom_kind
        assert [(c.name, c.bound, c.passed) for c in r1.clauses] == \
            [(c.name, c.bound, c.passed) for c in r2.clauses]
        for c1, c2 in zip(r1.clauses, r2.clauses):
            if c1.name.startswith("moment"):
                assert abs(c1.measured - c2.measured) <= math.ulp(c2.measured), (c1, c2)
            else:
                assert c1.measured.hex() == c2.measured.hex(), (c1, c2)


@pytest.mark.parametrize("d,N", [(1, 256), (1, 1024), (2, 32), (3, 16)])
@pytest.mark.parametrize("K,L,alpha", [(1, 0, 0.5), (3, 2, 2.5), (2, 3, -0.5)])
def test_validate_atoms_matches_reference(d, N, K, L, alpha):
    f = band_limited_random(Grid(d, N), 2, 880 + d)
    for dec in (smooth_decompose_h1(f, K), smooth_decompose_tl(f, alpha, K, L)):
        atoms = [a for _, a in dec.low_pairs + dec.high_pairs]
        got = validate_atoms(atoms)
        assert all(rep.passed for rep in got)
        _assert_matches_reference(got, validate_atoms_reference(atoms))
    # the subatom sums take both routes of the reconstruction clause: 2Q
    # boxes across the torus edge, summed on 2Q (none at d = 3 N = 16, where
    # every 2Q is the torus or inside it), and 2Q boxes that are the whole
    # torus; a subatom outside 2Q is test_validate_atoms_batch_matches_batch_of_one's
    boxes = [a.cube.box(double=True) for a in atoms if a.kind == "alpha_q"]
    assert any(side == N for _, side in boxes)
    assert d == 3 or any(side < N and max(origin) + side > N for origin, side in boxes)


def test_validation_work_grows_with_groups_not_atoms(monkeypatch):
    dec = smooth_decompose_tl(band_limited_random(Grid(1, 1024), 2, 890), 0.5, 1, 0)
    atoms = [a for _, a in dec.high_pairs]
    subatoms = [s for a in atoms for _, s in a.subatoms]
    # three subatoms per atom, two on the level-0 cube, whose two level-1
    # cells are the only ones
    assert (len(atoms), len(subatoms)) == (255, 764)
    groups = {atomics._group_key(a) for a in atoms + subatoms + [a for _, a in dec.low_pairs]}
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(DyadicCube, "box", counted("box", DyadicCube.box))
    monkeypatch.setattr(DyadicCube, "box_mask", counted("box_mask", DyadicCube.box_mask))
    monkeypatch.setattr(atomics, "subcube_orders", counted("subcube_order", atomics.subcube_orders))
    monkeypatch.setattr(np.linalg, "norm", counted("norm", np.linalg.norm))
    reports = validate_atoms([a for _, a in dec.low_pairs + dec.high_pairs])
    assert all(rep.passed for rep in reports)
    for name in ("box", "box_mask", "subcube_order", "norm"):
        assert calls.count(name) <= len(groups), name


@pytest.mark.parametrize("d,N,level", [(1, 256, 0), (1, 256, 3), (2, 32, 1)])
def test_level_batch_matches_one_cube_at_a_time(d, N, level):
    grid = Grid(d, N)
    cal = calderon_resolution(grid)
    rng = rng_for(870 + d + level)
    cubes = dyadic_cubes_at_level(grid, level)
    blocks = [_cplx(rng, (side_cells(c),) * d + (2, 2)) for c in cubes]
    batch = _alpha_q_atoms(blocks, cubes, level + 1, cal, 0.5, 1, 0)
    for block, cube, (rho, atom) in zip(blocks, cubes, batch):
        [(rho1, atom1)] = _alpha_q_atoms([block], [cube], level + 1, cal, 0.5, 1, 0)
        assert rho == rho1 and atom.origin == atom1.origin
        assert np.array_equal(atom.block, atom1.block)
        assert atom.support_leak == pytest.approx(atom1.support_leak, rel=1e-12, abs=1e-30)
        assert [(c, s.cube, s.origin) for c, s in atom.subatoms] == \
            [(c, s.cube, s.origin) for c, s in atom1.subatoms]
        assert all(np.array_equal(s.block, s1.block)
                   for (_, s), (_, s1) in zip(atom.subatoms, atom1.subatoms))
    assert all(r.passed for r in validate_atoms([atom for _, atom in batch]))


# ---------------------------------------------------------------------------
# the window route: sizes and projections on a box alone
# ---------------------------------------------------------------------------

def _smooth_block(sides, n, rng):
    """Data filling a box: a sin^4 profile that vanishes at the box's edges
    times matrices varying linearly across it (full rank, not rank one)."""
    t = [(np.arange(s) + 0.5) / s for s in sides]
    mesh = np.meshgrid(*t, indexing="ij")
    profile = np.prod([np.sin(np.pi * x) ** 4 for x in mesh], axis=0)
    out = _cplx(rng, (n, n)) + sum(x[..., None, None] * _cplx(rng, (n, n)) for x in mesh)
    return profile[..., None, None] * out


# (d, N, side): the largest admitted window per dimension, and smaller ones
_WINDOWS = [(1, 1024, 144), (1, 256, 16), (2, 32, 12), (2, 32, 4), (3, 16, 5), (3, 16, 2)]


@pytest.mark.parametrize("d,N,side", _WINDOWS)
def test_window_sizes_match_filtered_route(d, N, side):
    # the derivative and Bessel sizes of data over a box, made on the box
    # alone, are those of the filtered full-grid embedding, on boxes that
    # wrap around the torus, at 1e+-150, on rank-one blocks (the
    # near-singular branch) and on smooth data filling the box
    grid = Grid(d, N)
    assert 4 * side**d <= N**d and side**d <= _WINDOW_POINTS
    rng = rng_for(890 + 10 * d + side)
    n, K = 2, 2
    gammas = multi_indices(d, K)
    bessel = bessel_symbol(grid, 0.5).values
    u, v = _cplx(rng, n), _cplx(rng, n)
    cases = [("white", _cplx(rng, (side,) * d + (n, n)), 1.0),
             ("smooth", _smooth_block((side,) * d, n, rng), 1.0),
             ("rank-one", _cplx(rng, (side,) * d)[..., None, None] * np.outer(u, v.conj()), 1.0)]
    cases += [("big", 1e150 * cases[0][1], 1e150), ("small", 1e-150 * cases[1][1], 1e-150)]
    for origin in ((0,) * d, (N - side // 2,) * d, (N - 1,) + (N // 2,) * (d - 1)):
        for name, block, scale in cases:
            full = np.zeros(grid.shape + (n, n), dtype=complex)
            full[np.ix_(*box_indices(grid, origin, block.shape[:d]))] = block / scale
            got = _window_sizes(block[None], grid, "derivative", K)[0]
            for gamma, size in zip(gammas, got.tolist()):
                want = _filtered_size(multi_derivative_symbol(grid, gamma).values, full, grid)
                assert size == pytest.approx(scale * want, rel=1e-12), (name, origin, gamma)
            got_b = float(_window_sizes(block[None], grid, "bessel", 0.5)[0, 0])
            assert got_b == pytest.approx(scale * _filtered_size(bessel, full, grid),
                                          rel=1e-12), (name, origin)


@pytest.mark.parametrize("d,N", [(1, 64), (1, 1024), (2, 32), (3, 16)])
def test_local_projection_matches_symbol_route(d, N):
    # the (box x cell) product of the level-j kernel is the transform route
    # followed by the cut to the box grown by R_j, and the transform route
    # leaves nothing outside that box: over a subatom cell (side N 2^-j) and
    # over a cube (twice that), on boxes that wrap around the torus
    grid = Grid(d, N)
    cal = calderon_resolution(grid)
    rng = rng_for(900 + d)
    for j in range(1, cal.j_max + 1):
        reach = _reach(grid, j)
        for side in (N >> j, 2 * (N >> j)):
            if side + 2 * reach >= N:
                continue
            block = _cplx(rng, (side,) * d + (2, 2))
            origin = (N - side // 2,) * d
            full = np.zeros(grid.shape + (2, 2), dtype=complex)
            full[np.ix_(*box_indices(grid, origin, (side,) * d))] = block
            want = symbol_on_data(cal.level(j), full, grid)
            box = np.ix_(*box_indices(grid, [o - reach for o in origin], (side + 2 * reach,) * d))
            got = _project_boxes(block[None], cal, j)[0]
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want[box])) <= 1e-13 * scale, (j, side)
            outside = want.copy()
            outside[box] = 0
            assert np.max(np.abs(outside)) <= 1e-13 * scale, (j, side)


@pytest.mark.parametrize("target", ["h1", "tl"])
@pytest.mark.parametrize("d,N", [(1, 256), (2, 32)])
def test_fine_levels_make_no_full_grid_transform(target, d, N, monkeypatch):
    # every full-grid transform of a decomposition is the source, its low
    # part or a piece at a level that is not windowed; validating the atoms
    # of windowed levels (and their subatoms) transforms nothing
    grid = Grid(d, N)
    fields, piece_levels = [], []
    fft_data, piece_transforms = atomics.fft_data, atomics._piece_transforms

    def counting_fft(data, grid):
        fields.append(math.prod(data.shape[:-grid.d - 2]))
        return fft_data(data, grid)

    def recording_pieces(blocks, cubes, cells, symbol):
        piece_levels.append((cubes[0].level, len(cubes) * len(cells[0])))
        return piece_transforms(blocks, cubes, cells, symbol)

    monkeypatch.setattr(atomics, "fft_data", counting_fft)
    monkeypatch.setattr(atomics, "_piece_transforms", recording_pieces)
    f = band_limited_random(grid, 2, 910 + d)
    dec = smooth_decompose_h1(f) if target == "h1" else smooth_decompose_tl(f, 0.5, 1, 0)
    assert dec.residual <= 1e-9
    assert all(not _grown_window(grid, level + 1) for level, _ in piece_levels)
    assert sum(fields) == 2 + sum(count for _, count in piece_levels)
    fine = [a for _, a in dec.high_pairs if _grown_window(grid, a.cube.level + 1)]
    assert len(fine) > len(dec.high_pairs) // 2
    assert all(a.support_leak == 0.0 for a in fine)
    fields.clear()
    assert all(r.passed for r in validate_atoms(fine))
    assert fields == []


@pytest.mark.parametrize("d,N", [(1, 64), (2, 32), (3, 16)])
def test_subatom_cells_cached_as_built(d, N):
    # the cells of a cube are built once and read by every later decomposition
    grid = Grid(d, N)
    for level in range(grid.max_cube_level):
        for cube in dyadic_cubes_at_level(grid, level):
            cells = _subatom_cells(cube)
            assert _subatom_cells(DyadicCube(grid, level, cube.index)) is cells
            assert cells == _subatom_cells.__wrapped__(cube)
            assert all(cell.level == level + 1 for cell in cells)
