import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ovtl import opfield
from ovtl.errors import GridMismatchError, ValidationError
from ovtl.lattice import Grid
from ovtl.opfield import (
    OperatorField,
    PSDAccumulator,
    StripField,
    as_blocks,
    gram,
    herm,
    l1l2_sizes,
    lp_norm_from_psd_eigs,
    psd_eigvalsh,
    psd_root_norm,
    to_planes,
    trace_lp_norm,
)
from ovtl.generators import band_limited_random, rng_for
from ovtl.normsuite import hardy_norm, tl_infty_norm, tl_norm_column, tl_norm_mixture
from ovtl.spectral import fft_planes, make_lp_family
from ovtl.sqfn import lp_levels, square_norm
from helpers import (
    constant_field,
    field_sum,
    hs_norm_sq,
    log_space_root_norm,
    op_cauchy_schwarz_gap,
    op_cauchy_schwarz_scale,
    pairing,
    scaled,
    zero_field,
    zero_strip,
)


def test_trace_lp_indicator(grid64):
    # f = 1_[0,1) E11 at n = 2, p = 1 -> 1
    data = np.zeros(grid64.shape + (2, 2), dtype=complex)
    data[..., 0, 0] = 1.0
    f = OperatorField(grid64, data)
    assert abs(trace_lp_norm(f, 1.0) - 1.0) < 1e-12


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 7.5])
def test_trace_lp_constant_identity(grid64, p):
    c = 0.7 - 0.2j
    f = constant_field(grid64, c * np.eye(3))
    assert abs(trace_lp_norm(f, p) - abs(c) * 3 ** (1.0 / p)) < 1e-12


def test_trace_lp_p2_matches_frobenius(grid64):
    f = band_limited_random(grid64, 2, 11)
    direct = math.sqrt(hs_norm_sq(f))
    assert abs(trace_lp_norm(f, 2.0) - direct) < 1e-12 * max(direct, 1.0)


def test_trace_lp_domain_error(grid64):
    f = zero_field(grid64, 2)
    with pytest.raises(ValueError):
        trace_lp_norm(f, 0.5)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_norm_axioms(grid64, p):
    f = band_limited_random(grid64, 2, 21)
    g = band_limited_random(grid64, 2, 22)
    c = -1.3 + 0.4j
    nf, ng = trace_lp_norm(f, p), trace_lp_norm(g, p)
    assert abs(trace_lp_norm(scaled(c, f), p) - abs(c) * nf) < 1e-10 * nf
    assert trace_lp_norm(field_sum(f, g), p) <= (nf + ng) * (1 + 1e-10)


def test_holder_inequality(grid64):
    for p, q in [(1.0, np.inf), (2.0, 2.0), (3.0, 1.5)]:
        for seed in range(5):
            f = band_limited_random(grid64, 2, 100 + seed)
            g = band_limited_random(grid64, 2, 200 + seed)
            lhs = abs(pairing(f, g))
            rhs = trace_lp_norm(f, p) * trace_lp_norm(g, q)
            assert lhs <= rhs * (1 + 1e-10)


def test_cauchy_schwarz_equality_full_torus(grid64):
    # phi = 1_Q with Q the whole torus, f constant: exact equality
    A = np.array([[1.0, 2.0], [3.0, 4.0j]])
    f = constant_field(grid64, A)
    phi = np.ones(grid64.shape)
    gap = op_cauchy_schwarz_gap(phi, f)
    assert abs(gap) < 1e-12 * op_cauchy_schwarz_scale(phi, f)


def test_cauchy_schwarz_zero_phi(grid64):
    f = band_limited_random(grid64, 2, 31)
    assert op_cauchy_schwarz_gap(np.zeros(grid64.shape), f) == 0.0


def test_cauchy_schwarz_indicator_closed_form(grid64):
    # constant field, phi = 1_Q: gap matrix is |Q|(1-|Q|) A*A
    A = np.array([[1.0, 0.5j], [0.0, 2.0]])
    f = constant_field(grid64, A)
    phi = np.zeros(grid64.shape)
    phi[:16] = 1.0  # |Q| = 1/4
    expected = 0.25 * 0.75 * np.min(np.linalg.eigvalsh(herm(A) @ A))
    assert abs(op_cauchy_schwarz_gap(phi, f) - expected) < 1e-10


def test_cauchy_schwarz_random_trials(grid64):
    for seed in range(50):
        rng = rng_for(400 + seed)
        phi = rng.normal(size=grid64.shape) + 1j * rng.normal(size=grid64.shape)
        f = band_limited_random(grid64, 2, 500 + seed)
        gap = op_cauchy_schwarz_gap(phi, f)
        scale = op_cauchy_schwarz_scale(phi, f)
        assert gap >= -1e-9 * scale


def test_nonfinite_rejected(grid64):
    data = np.zeros(grid64.shape + (2, 2), dtype=complex)
    data[0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        OperatorField(grid64, data)


@pytest.mark.parametrize("cls,lead,word", [(OperatorField, (), "field"),
                                           (StripField, (3,), "strip field")])
def test_field_input_checks(grid64, cls, lead, word):
    data = np.zeros(lead + grid64.shape + (2, 2), dtype=complex)
    data[..., 5, 1, 0] = np.inf
    with pytest.raises(ValidationError, match=f"^{word} contains non-finite entries$"):
        cls(grid64, data)
    with pytest.raises(ValueError, match="does not match grid"):
        cls(grid64, np.zeros(lead + (32,) + (2, 2)))
    with pytest.raises(ValueError, match="square"):
        cls(grid64, np.zeros(lead + grid64.shape + (2, 3)))


def test_psd_accumulator_invariants(grid64):
    acc = PSDAccumulator(grid64, 2)
    rng = rng_for(61)
    for _ in range(4):
        g = rng.normal(size=grid64.shape + (2, 2)) + 1j * rng.normal(size=grid64.shape + (2, 2))
        acc.add_gram(to_planes(g), float(rng.uniform(0.1, 2.0)))
    S = as_blocks(acc.planes)
    scale = float(np.max(np.abs(S)))
    assert float(np.max(np.abs(S - herm(S)))) <= 1e-12 * scale
    assert float(np.min(np.linalg.eigvalsh(0.5 * (S + herm(S))))) >= -1e-10 * scale
    eigs = acc.eigenvalues()
    assert eigs.min() >= 0.0
    with pytest.raises(ValueError):
        acc.add_gram(np.zeros((2, 2) + grid64.shape), -1.0)


def test_strip_field_needs_a_scale(grid64):
    with pytest.raises(ValueError, match="at least one scale"):
        zero_strip(grid64, 2, 0)


def test_strip_field_scale_indexing(grid64):
    F = zero_strip(grid64, 2, 3)
    assert F.j_max == 3
    with pytest.raises(ValueError):
        F.level(0)
    with pytest.raises(ValueError):
        F.level(4)


# ---------------------------------------------------------------------------
# small-matrix kernels against LAPACK / SVD oracles
# ---------------------------------------------------------------------------

def _psd_cases(n: int, seed: int) -> dict:
    rng = rng_for(seed)
    x = rng.normal(size=(64, n, n)) + 1j * rng.normal(size=(64, n, n))
    v = rng.normal(size=(64, n, 1)) + 1j * rng.normal(size=(64, n, 1))
    diag = np.zeros((64, n, n), dtype=complex)
    diag[:, np.arange(n), np.arange(n)] = rng.uniform(0.0, 3.0, size=(64, n))
    return {
        "random": herm(x) @ x,
        "rank_one": v @ herm(v),
        "zero": np.zeros((64, n, n), dtype=complex),
        "diagonal": diag,
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
def test_psd_eigvalsh_matches_lapack(n, scale):
    for name, S in _psd_cases(n, 700 + n).items():
        S = scale * S
        want = np.clip(np.linalg.eigvalsh(S), 0.0, None)
        got = psd_eigvalsh(S)
        assert got.shape == S.shape[:-1]
        assert got.min() >= 0.0
        top = max(float(np.max(np.abs(S))), 1e-300)
        assert np.max(np.abs(got - want)) <= 1e-13 * top, name


@pytest.mark.parametrize("n", [1, 2])
def test_gram_small_matches_matmul(n):
    rng = rng_for(710 + n)
    x = rng.normal(size=(8, 16, n, n)) + 1j * rng.normal(size=(8, 16, n, n))
    G = gram(x)
    want = herm(x) @ x
    assert np.max(np.abs(G - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(G, herm(G))
    assert np.all(np.diagonal(G, axis1=-2, axis2=-1).imag == 0.0)


def test_row_gram_is_gram_of_adjoint(grid64):
    rng = rng_for(720)
    for n in (1, 2, 3):
        g = rng.normal(size=grid64.shape + (n, n)) + 1j * rng.normal(size=grid64.shape + (n, n))
        row = PSDAccumulator(grid64, n).add_gram(to_planes(g), 0.7, row=True)
        col = PSDAccumulator(grid64, n).add_gram(to_planes(herm(g)), 0.7)
        assert np.max(np.abs(row.planes - col.planes)) <= 1e-14 * np.max(np.abs(col.planes))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
def test_trace_lp_matches_svd(grid64, n, p):
    # beside a generic field: u v* blocks and blocks with sigma_min ~ 1e-6
    # sigma_max, whose small sigma the eigenvalues of x*x alone resolve only
    # to sqrt(eps) sigma_max, and scales at which x*x over/underflows
    rng = rng_for(740 + n)
    u = rng.normal(size=grid64.shape + (n, 1)) + 1j * rng.normal(size=grid64.shape + (n, 1))
    v = rng.normal(size=grid64.shape + (1, n)) + 1j * rng.normal(size=grid64.shape + (1, n))
    w = rng.normal(size=grid64.shape + (n, n)) + 1j * rng.normal(size=grid64.shape + (n, n))
    for data in (band_limited_random(grid64, n, 730 + n).data, u @ v, u @ v + 1e-6 * w):
        sv = np.linalg.svd(data, compute_uv=False)
        if p == np.inf:
            want = float(np.max(sv))
        else:
            want = (float(np.sum(sv**p)) * grid64.cell_volume) ** (1.0 / p)
        for scale in (1.0, 1e200, 1e-200):
            got = trace_lp_norm(OperatorField(grid64, scale * data), p) / scale
            assert abs(got - want) <= 1e-12 * want


def _svd_size(x, volume, w=None):
    """sqrt(volume) times the sum of the singular values of the stacked
    factor [sqrt(w(s)) x(s)]_s."""
    if w is not None:
        x = np.sqrt(w)[:, None, None] * x
    n = x.shape[-1]
    return math.sqrt(volume) * float(np.sum(np.linalg.svd(x.reshape(-1, n), compute_uv=False)))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
def test_l1l2_sizes_near_singular_match_svd(n, scale):
    # stacked factors with sigma_min = 1e-8 sigma_max and of rank one, whose
    # small singular values the Gram eigenvalues resolve only to
    # sqrt(eps) sigma_max, beside a generic one; at 1e+-150, x* x over- or
    # underflows unless rescaled
    rng = rng_for(820 + n)
    points = 40

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    U, _ = np.linalg.qr(cplx(points * n, n))
    V, _ = np.linalg.qr(cplx(n, n))
    graded = ((U * np.geomspace(1.0, 1e-8, n)) @ herm(V)).reshape(points, n, n)
    rank_one = cplx(points, 1, 1) * np.outer(cplx(n), cplx(n).conj())
    x = np.stack([graded, rank_one, cplx(points, n, n)])
    weights = rng.uniform(0.0, 2.0, size=(3, points))
    got = l1l2_sizes(scale * x, 0.3) / scale
    got_w = l1l2_sizes(scale * x, 0.3, weights) / scale
    assert got.shape == (3,) and got_w.shape == (3, 3)
    assert float(l1l2_sizes(scale * graded, 0.3)) / scale == pytest.approx(got[0], rel=1e-13)
    for b in range(3):
        assert got[b] == pytest.approx(_svd_size(x[b], 0.3), rel=1e-12)
        for k in range(3):
            assert got_w[b, k] == pytest.approx(_svd_size(x[b], 0.3, weights[k]), rel=1e-12)


def test_l1l2_sizes_rescale_each_row():
    # a stack whose entries lie 2^1200 apart: each entry takes its own
    # power-of-two rescale, so it keeps the size it has alone (one shared
    # rescale would flush the small entry's Gram to 0)
    rng = rng_for(830)
    a = rng.normal(size=(64, 2, 2)) + 1j * rng.normal(size=(64, 2, 2))
    x = np.stack([a * 2.0**600, a * 2.0**-600])
    weights = rng.uniform(0.0, 2.0, size=(3, 64))
    for w in (None, weights):
        got = l1l2_sizes(x, 0.3, w)
        for row, alone in zip(got, (l1l2_sizes(x[0], 0.3, w), l1l2_sizes(x[1], 0.3, w))):
            assert np.all(alone > 0)
            assert np.asarray(row) == pytest.approx(alone, rel=1e-15, abs=0)


SCALES = (1.0, 1e150, 1e-150)


def _cplx(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _eig_route(S, p, volume):
    return lp_norm_from_psd_eigs(psd_eigvalsh(S), p, volume)


@pytest.mark.parametrize("scale", SCALES)
def test_psd_root_norm_p1_n2_matches_eigvalsh(scale):
    # generic PSD blocks at factor scales 1 and 1e+-150, where S and det S
    # over- or underflow unless rescaled; the root norm is linear in the scale
    rng = rng_for(850)
    g, h = _cplx(rng, 256, 2, 2), _cplx(rng, 256, 2, 2)
    S = gram(g) + 0.3 * gram(h)
    want = _eig_route(S, 1.0, 0.25)
    got = psd_root_norm(to_planes((scale * scale) * S), 1.0, 0.25) / scale
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n,p", [(1, 1.0), (2, 1.5), (2, 2.0), (2, np.inf), (4, 3.0), (5, 1.0)])
def test_psd_root_norm_other_cases_take_eigvalsh(n, p):
    rng = rng_for(855 + n)
    S = gram(_cplx(rng, 64, n, n))
    assert psd_root_norm(to_planes(S), p, 0.25) == _eig_route(S, p, 0.25)


def _spectral_cases(n: int, seed: int) -> dict:
    """64 PSD blocks of each kind: generic sums of Grams, exact rank 1 .. n-1
    (Grams of k x n factors), graded spectra lambda_min / lambda_max = 1e-8
    and 1e-16, and equal eigenvalues (c I, and two equal pairs)."""
    rng = rng_for(seed)
    U, _ = np.linalg.qr(_cplx(rng, 64, n, n))
    scale = rng.uniform(0.5, 2.0, size=(64, 1))

    def spectrum(lam):
        return (U * (scale * lam)[:, None, :]) @ herm(U)

    pairs = np.repeat([1.0, 0.3], (n + 1) // 2)[:n]
    cases = {"generic": gram(_cplx(rng, 64, n, n)) + 0.3 * gram(_cplx(rng, 64, n, n)),
             "graded_1e-8": spectrum(np.geomspace(1.0, 1e-8, n)),
             "graded_1e-16": spectrum(np.geomspace(1.0, 1e-16, n)),
             "one_small_1e-8": spectrum(np.r_[np.ones(n - 1), 1e-8]),
             "one_small_1e-16": spectrum(np.r_[np.ones(n - 1), 1e-16]),
             "equal": scale[..., None] * np.eye(n),
             "equal_pairs": spectrum(pairs)}
    for k in range(1, n):
        B = _cplx(rng, 64, k, n)
        cases[f"rank_{k}"] = herm(B) @ B
    return cases


@pytest.mark.parametrize("n,p", [(3, 1.0), (4, 1.0)])
def test_psd_root_norm_without_lapack_matches_eigvalsh(n, p):
    # p = 1 at n = 3, 4 solves the invariant equations; it agrees with the
    # eigenvalue route to 1e-12 on every kind of block, at S scales 1 and
    # 1e+-300, where the invariants over- or underflow unless rescaled; all
    # kinds at once, too
    cases = _spectral_cases(n, 890 + n)
    cases["all"] = np.concatenate(list(cases.values()))
    for name, S in cases.items():
        for scale in SCALES:
            scaled = (scale * scale) * S
            want = _eig_route(scaled, p, 0.25)
            got = psd_root_norm(to_planes(scaled), p, 0.25)
            assert got == pytest.approx(want, rel=1e-12), name


@pytest.mark.parametrize("n", [3, 4])
def test_root_traces_match_eigvalsh_block_by_block(n):
    # every block the invariant route solves matches sum sqrt(lambda) to 1e-13;
    # exactly the ill-conditioned ones are left to LAPACK
    for name, S in _spectral_cases(n, 895 + n).items():
        ill = name.startswith(("rank", "graded", "one_small"))
        for block in S[:, None]:
            got, rest = opfield._root_traces(to_planes(block))
            want = float(np.sum(np.sqrt(psd_eigvalsh(block))))
            assert rest.shape == (1,) and rest[0] == ill, name
            assert ill or abs(got - want) <= 1e-13 * want, name


@pytest.mark.parametrize("scale", SCALES)
def test_psd_root_norm_rank_one_accumulator(scale):
    # S = sum_k w_k g_k* g_k with every g_k(s) a multiple of u(s) v(s)*, so S
    # has rank one and tr S^(1/2) = sqrt(tr S) exactly; det S is pure
    # cancellation on both routes, and the closed form does no worse than LAPACK
    rng = rng_for(860)
    u, v = _cplx(rng, 512, 2, 1), _cplx(rng, 512, 1, 2)
    acc = PSDAccumulator(Grid(1, 512), 2)
    for k in range(6):
        acc.add_gram(to_planes(scale * _cplx(rng, 512, 1, 1) * (u @ v)), 0.5 + k)
    exact = float(np.sum(np.sqrt(np.trace(as_blocks(acc.planes), axis1=-2, axis2=-1).real))) / 512
    closed = psd_root_norm(acc.planes, 1.0, 1 / 512)
    lapack = _eig_route(as_blocks(acc.planes), 1.0, 1 / 512)
    assert abs(closed - exact) <= abs(lapack - exact)
    assert closed == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("p", [3.0, 40.0, 1e308])
@pytest.mark.parametrize("scale", [2.0**800, 1.0, 2.0**-700, 2.0**-800],
                         ids=["2^800", "1", "2^-700", "2^-800"])
def test_root_norm_past_the_float_range_matches_log_space_sum(scale, p):
    # n = 1: lambda^(p/2) overflows at S ~ 2^800 and underflows at S ~ 2^-800
    # (at p = 1e308, for S ~ 1 too); at S ~ 2^-700 and p = 3 each power and
    # the sum are subnormal, with few digits; the norm is finite and
    # positive all the same, and keeps every digit
    eigs = scale * rng_for(880).uniform(0.25, 4.0, size=512)
    got = psd_root_norm(eigs.astype(complex).reshape(1, 1, -1), p, 1 / 512)
    assert got == pytest.approx(log_space_root_norm(eigs, p, 1 / 512), rel=1e-12, abs=0)


@pytest.mark.parametrize("scale", SCALES)
def test_trace_lp_p1_n2_rank_one_and_graded_match_svd(grid64, scale):
    # tr|x| = sqrt(||x||_HS^2 + 2 |det x|) keeps every digit of a small
    # singular value: u v* blocks and blocks with sigma_min = 1e-8 sigma_max
    rng = rng_for(870)
    U, _ = np.linalg.qr(_cplx(rng, 64, 2, 2))
    V, _ = np.linalg.qr(_cplx(rng, 64, 2, 2))
    sigma = np.array([1.0, 1e-8]) * rng.uniform(0.5, 2.0, size=(64, 1))
    graded = (U * sigma[:, None, :]) @ herm(V)
    rank_one = _cplx(rng, 64, 2, 1) @ _cplx(rng, 64, 1, 2)
    for data in (graded, rank_one):
        sv = np.linalg.svd(data, compute_uv=False)
        want = float(np.sum(sv)) * grid64.cell_volume
        got = trace_lp_norm(OperatorField(grid64, scale * data), 1.0) / scale
        assert got == pytest.approx(want, rel=1e-12)


def test_root_traces_leave_unconverged_blocks_to_lapack(monkeypatch):
    # two Laguerre steps leave most generic blocks short of round-off: those
    # go to LAPACK, so the norm still matches
    S = _spectral_cases(4, 897)["generic"]
    monkeypatch.setattr(opfield, "_ROOT_STEPS", 2)
    assert np.any(opfield._root_traces(to_planes(S))[1])
    assert psd_root_norm(to_planes(S), 1.0, 0.25) == pytest.approx(_eig_route(S, 1.0, 0.25),
                                                                   rel=1e-12)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("scale", SCALES)
def test_trace_lp_p1_n34_graded_and_rank_deficient_match_svd(grid64, n, scale):
    # blocks with sigma_min = 1e-8 sigma_max and of rank 1 .. n-1 leave the
    # invariant route for the eigenvalue and dilation route; generic blocks stay
    rng = rng_for(875 + n)
    U, _ = np.linalg.qr(_cplx(rng, 64, n, n))
    V, _ = np.linalg.qr(_cplx(rng, 64, n, n))
    sigma = np.geomspace(1.0, 1e-8, n) * rng.uniform(0.5, 2.0, size=(64, 1))
    cases = [(U * sigma[:, None, :]) @ herm(V), _cplx(rng, 64, n, n)]
    cases += [_cplx(rng, 64, n, k) @ _cplx(rng, 64, k, n) for k in range(1, n)]
    for data in cases + [np.where(np.arange(64)[:, None, None] % 2, *cases[:2])]:
        sv = np.linalg.svd(data, compute_uv=False)
        want = float(np.sum(sv)) * grid64.cell_volume
        got = trace_lp_norm(OperatorField(grid64, scale * data), 1.0) / scale
        assert got == pytest.approx(want, rel=1e-12)


def test_trace_lp_p1_n4_takes_one_eigenvalue_call(monkeypatch, grid64):
    # the blocks _root_traces leaves (the rank-2 half, at least) go straight
    # to the 8 x 8 dilation: one LAPACK call, no eigenvalues of x* x first
    rng = rng_for(879)
    data = np.where(np.arange(64)[:, None, None] % 2,
                    _cplx(rng, 64, 4, 2) @ _cplx(rng, 64, 2, 4), _cplx(rng, 64, 4, 4))
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        seen.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    got = trace_lp_norm(OperatorField(grid64, data), 1.0)
    assert len(seen) == 1 and seen[0][1:] == (8, 8) and seen[0][0] >= 32
    want = float(np.sum(np.linalg.svd(data, compute_uv=False))) * grid64.cell_volume
    assert got == pytest.approx(want, rel=1e-12)


def test_p1_n2_square_norms_need_no_eigensolver(monkeypatch, grid64):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    fam = make_lp_family(grid64)
    f = band_limited_random(grid64, 2, 880)
    fhat = fft_planes(to_planes(f.data), grid64)
    assert square_norm(fhat, grid64, lp_levels(fam, 0.5), 1.0) > 0
    rep = tl_norm_mixture(f, 0.5, 1.0, fam)
    assert 0 < rep.value == min(rep.terms["column"], rep.terms["row"])
    with pytest.raises(AssertionError, match="eigensolver"):
        square_norm(fhat, grid64, lp_levels(fam, 0.5), 1.5)


def test_n4_desk_norms_send_few_blocks_to_lapack(monkeypatch):
    # F_col, F_mix and hardy at p = 1 reduce two full stacks of 4 x 4 blocks
    # each (two accumulators, or one and the phi_0 term); under 1% of those
    # blocks reach LAPACK, dilations included
    grid = Grid(2, 64)
    fam = make_lp_family(grid)
    f = band_limited_random(grid, 4, 886)
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        seen.append(math.prod(a.shape[:-2]))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for norm in (lambda: tl_norm_column(f, 0.5, 1.0, fam),
                 lambda: tl_norm_mixture(f, 0.5, 1.0, fam),
                 lambda: hardy_norm(f, 1.0, fam)):
        seen.clear()
        assert norm().value > 0
        assert sum(seen) < 0.01 * 2 * math.prod(grid.shape)


# ---------------------------------------------------------------------------
# the blocked entrywise Gram and the bound-pruned sup
# ---------------------------------------------------------------------------

ROWS = opfield._GRAM_ROWS


def _summed_gram(x, S=None, weight=None):
    """x* x summed entry by entry in the documented order: t_k = |x_ka|^2 on
    the diagonal, conj(x_ka) x_kb off it, then t_0 + t_1 + ...; the
    conjugate goes to (b, a).  With S, adds weight * x* x into S instead."""
    n = x.shape[-1]
    out = np.empty(x.shape[:-2] + (n, n), dtype=complex) if S is None else S
    for a in range(n):
        for b in range(a, n):
            terms = [x[..., k, a].real ** 2 + x[..., k, a].imag ** 2 if a == b
                     else np.conj(x[..., k, a]) * x[..., k, b] for k in range(n)]
            total = sum(terms[1:], terms[0])
            if S is None:
                out[..., a, b], out[..., b, a] = total, np.conj(total)
            else:
                out[..., a, b] += total * weight
                if b > a:
                    out[..., b, a] += np.conj(total) * weight
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("rows", [100, ROWS, 2 * ROWS + 37])
def test_gram_matches_matmul_across_row_blocks(n, rows):
    rng = rng_for(730 + n)
    x = _cplx(rng, rows, n, n)
    for side, got, want in (("column", gram(x), herm(x) @ x),
                            ("row", np.swapaxes(gram(np.swapaxes(x, -1, -2)), -1, -2),
                             x @ herm(x))):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), side
        assert np.array_equal(got, herm(got)), side
        assert np.all(np.diagonal(got, axis1=-2, axis2=-1).imag == 0.0), side


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("grid", [Grid(1, 1024), Grid(1, ROWS), Grid(2, 128)])
def test_add_gram_matches_matmul_both_sides(grid, n):
    rng = rng_for(740 + n)
    g = _cplx(rng, *grid.shape, n, n)
    for row, want in ((False, herm(g) @ g), (True, g @ herm(g))):
        S = as_blocks(PSDAccumulator(grid, n).add_gram(to_planes(g), 0.7, row=row).planes)
        assert np.max(np.abs(S - 0.7 * want)) <= 1e-14 * np.max(np.abs(0.7 * want))
        assert np.array_equal(S, herm(S))
        assert np.all(np.diagonal(S, axis1=-2, axis2=-1).imag == 0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_small_gram_sums_in_documented_order(monkeypatch, grid64, n):
    # bitwise, with a remainder block (64 rows in blocks of 48) and without
    rng = rng_for(750 + n)
    x = _cplx(rng, 3 * ROWS + 5, n, n)
    g, h = (_cplx(rng, *grid64.shape, n, n) for _ in range(2))
    for rows in (ROWS, 48):
        monkeypatch.setattr(opfield, "_GRAM_ROWS", rows)
        assert gram(x).tobytes() == _summed_gram(x).tobytes()
        acc = PSDAccumulator(grid64, n).add_gram(to_planes(g), 0.3)
        acc.add_gram(to_planes(h), 2.5, row=True)
        want = np.zeros(grid64.shape + (n, n), dtype=complex)
        _summed_gram(g, want, 0.3)
        _summed_gram(np.swapaxes(h, -1, -2), np.swapaxes(want, -1, -2), 2.5)
        assert as_blocks(acc.planes).tobytes() == want.tobytes()


# stacks of more than _GRAM_ROWS blocks: add_gram queues them on the helper thread
QUEUED = [(Grid(2, 128), 2), (Grid(2, 128), 4), (Grid(3, 32), 3)]


@pytest.mark.parametrize("grid, n", QUEUED)
def test_queued_gram_is_the_in_order_sum(monkeypatch, grid, n):
    helper, queued = opfield._HELPER, []

    class Counting:
        def submit(self, fn, *args):
            queued.append(fn)
            return helper.submit(fn, *args)

    monkeypatch.setattr(opfield, "_HELPER", Counting())
    rng = rng_for(790 + n)
    terms = [(_cplx(rng, *grid.shape, n, n), w, row)
             for w, row in ((0.7, False), (2.5, True), (1.3, False), (0.2, True))]
    want = np.zeros(grid.shape + (n, n), dtype=complex)
    for g, w, row in terms:
        want += w * (np.swapaxes(gram(np.swapaxes(g, -1, -2)), -1, -2) if row else gram(g))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
    try:
        acc = PSDAccumulator(grid, n)
        for g, w, row in terms:
            acc.add_gram(to_planes(g), w, row=row)
        assert len(queued) == 4
        assert np.array_equal(as_blocks(acc.planes), want)
    finally:
        sys.setswitchinterval(interval)


def test_n1_grams_stay_inline(monkeypatch):
    # at n = 1 a hand-off costs more than it saves: 16,384 points queue nothing
    class Refusing:
        def submit(self, fn, *args):
            raise AssertionError("an n = 1 Gram was queued")

    monkeypatch.setattr(opfield, "_HELPER", Refusing())
    grid = Grid(2, 128)
    rng = rng_for(798)
    terms = [(_cplx(rng, *grid.shape, 1, 1), w, row)
             for w, row in ((0.7, False), (2.5, True), (1.3, False))]
    acc = PSDAccumulator(grid, 1)
    want = np.zeros(grid.shape + (1, 1), dtype=complex)
    for g, w, row in terms:
        acc.add_gram(to_planes(g), w, row=row)
        _summed_gram(g, want, w)
    assert as_blocks(acc.planes).tobytes() == want.tobytes()


def test_queued_gram_error_raised_at_next_read(monkeypatch):
    grid = Grid(2, 128)
    gram_into = opfield._gram_into

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("injected on the helper")
        return gram_into(*args)

    monkeypatch.setattr(opfield, "_gram_into", failing)
    acc = PSDAccumulator(grid, 2).add_gram(np.ones((2, 2) + grid.shape))
    with pytest.raises(FloatingPointError, match="injected on the helper"):
        acc.planes


def test_only_queued_stacks_start_the_helper(monkeypatch):
    # d=1 N=1024 and d=2 N=64 stacks hold at most _GRAM_ROWS blocks: inline
    with ThreadPoolExecutor(max_workers=1) as helper:
        monkeypatch.setattr(opfield, "_HELPER", helper)
        before = threading.active_count()
        for grid in (Grid(1, 1024), Grid(2, 64), Grid(2, 128)):
            fam = make_lp_family(grid)
            f = band_limited_random(grid, 2, 796)
            for norm in (lambda: tl_norm_column(f, 0.5, 1.0, fam),
                         lambda: tl_norm_mixture(f, 0.5, 1.0, fam),
                         lambda: hardy_norm(f, 1.0, fam), lambda: tl_infty_norm(f, 0.5, fam)):
                assert norm().value > 0
            assert threading.active_count() == before + (grid.N == 128)


def _sup_cases(n: int, seed: int) -> dict:
    rng = rng_for(seed)
    m = 512
    x, v = _cplx(rng, m, n, n), _cplx(rng, m, n, 1)
    c = _cplx(rng, n, n)
    noise = _cplx(rng, m, 8, n, n) * (np.arange(m) % 3 > 0)[:, None, None, None]

    def bmo(eps):
        # E|f|^2 - |E f|^2 over cubes where f is constant up to eps on some
        # cubes and exactly constant on others: PSD only up to round-off
        f = c + eps * noise
        return np.mean(gram(f), axis=1) - gram(np.mean(f, axis=1))

    return {
        "random": gram(x),
        "rank_one": v @ herm(v),
        "zero": np.zeros((m, n, n), dtype=complex),
        "constant": np.broadcast_to(gram(c), (m, n, n)).copy(),
        "bmo_roundoff": bmo(1e-9),  # the round-off blocks hold the largest entries
        "bmo_mixed": bmo(1e-7),
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("scale", SCALES)
def test_sup_eigenvalue_equals_all_blocks_max(n, scale):
    for name, S in _sup_cases(n, 760 + n).items():
        S = scale * S
        want = float(np.max(psd_eigvalsh(S)))
        assert opfield._max_eigenvalue(to_planes(S)) == want, name
        assert psd_root_norm(to_planes(S), np.inf, 1.0) == float(np.sqrt(want)), name


def test_sup_eigenvalue_solves_few_desk_blocks(monkeypatch):
    grid = Grid(2, 64)
    f = band_limited_random(grid, 4, 770)
    S = gram(f.data)
    want = float(np.max(psd_eigvalsh(S)))
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        seen.append(math.prod(a.shape[:-2]))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert opfield._max_eigenvalue(to_planes(S)) == want
    assert trace_lp_norm(f, np.inf) == pytest.approx(math.sqrt(want), rel=1e-15)
    assert 0 < sum(seen) < 0.05 * 2 * math.prod(grid.shape)


def test_add_gram_rejects_mismatched_blocks(grid64):
    # (4, 4, 16) holds as many entries as the (2, 2, 64) accumulator; blocks
    # (64, 2, 2) are not its planes
    acc = PSDAccumulator(grid64, 2)
    for g in (np.zeros((4, 4, 16)), np.zeros((3, 3) + grid64.shape), np.zeros((2, 2)),
              np.zeros(grid64.shape + (2, 2))):
        with pytest.raises(GridMismatchError):
            acc.add_gram(g)
