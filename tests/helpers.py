"""Test-data generators and oracle helpers that no command reaches.

Random strips, unitaries and atoms feed the tests; ``fft_forward`` and
``fft_inverse`` scale ``fft_data``/``ifft_data`` to the transform pair; the
pairing and the operator Cauchy-Schwarz gap, which no command reaches, are
checked against their identities; cube and atom accessors (a cube's side
in cells and center, an atom's block on the grid or on the strip), the
cube means of rolled blocks (the oracle of the pair-sum pyramid), the
one-transform multiplier and the symbol-route tent projection serve as
oracles; the remaining helpers restate quantities of the package's
objects (the random field by a second formula, the Calderon identity
defect, the LP sandwich floor, a ball's lattice measure, the Cauchy-Schwarz
scale, the atom-by-atom validator, the multiplier certificate and
hypothesis sweeps with no shared work) for tests to check against; the
point-major Gram and root-trace kernels, which read every block as one
(n, n) matrix, are the oracles of the planar ones in ``ovtl.opfield``.  The
field constructors and algebra (zero, constant, c F, f + g), the tent size,
the failing clauses of a report and the one-pair subcube order stand in for
package code that no command reaches; the strip-field file writer makes the
files the field reader rejects.
"""

import itertools
import math
from functools import reduce

import numpy as np

from ovtl.atomics import (
    MOMENT_RTOL,
    SIZE_SLACK,
    SUPPORT_RTOL,
    CalderonSystem,
    Clause,
    SmoothAtom,
    TentAtom,
    ValidationReport,
    _alpha_q_atoms,
    _bessel_weight,
    _block_bytes,
    _check_mean_zero_levels,
    _chunks,
    _derivative_weights,
    _energy_outside,
    _group_key,
    _n_pow,
    _normalize_alpha_one,
    _weighted_sizes,
    _window_sizes,
    _windowed,
    calderon_resolution,
    multi_indices,
)
from ovtl import opfield
from ovtl.errors import GridMismatchError, ResolutionError
from ovtl.fmult import (
    DILATE_SHIFTS,
    MultiplierCertificate,
    SymbolSequence,
    _profile_sum,
    hypothesis_window,
)
from ovtl.generators import band_limited_random, rng_for
from ovtl.fieldio import _HEADER, FORMAT_VERSION, MAGIC
from ovtl.lattice import (
    ConeIndex,
    DyadicCube,
    Grid,
    box_indices,
    cube_blocks,
    periodic_block_sum,
    subcube_orders,
    wrap_half,
)
from ovtl.opfield import (
    _COARSE_SQ,
    _GRAM_ROWS,
    OperatorField,
    StripField,
    _max_eigenvalue,
    _minor_sums,
    _pow2_exponent,
    as_blocks,
    gram,
    l1l2_sizes,
    to_planes,
)
from ovtl.spectral import (
    LPFamily,
    Symbol,
    apply_symbol_hat,
    default_window,
    fft_data,
    fft_planes,
    hsigma_norm_profile,
    ifft_data,
    lp_base_profile,
    lp_family_j_max,
    lp_zero_profile,
    symbol_from_profile,
)
from ovtl.sqfn import LOG2, level_weight, square_norm


def planes_hat(f: OperatorField) -> np.ndarray:
    """The transform of f as the planes the square-function engine reads:
    ``fft_planes(to_planes(f.data))``."""
    return fft_planes(to_planes(f.data), f.grid)


def fft_forward(f: OperatorField) -> OperatorField:
    """Frequency-side field of Fourier coefficients fhat: ``fft_data`` scaled
    by the cell volume to the transform pair of ``ovtl.spectral``."""
    return OperatorField(f.grid, fft_data(f.data, f.grid) * f.grid.cell_volume)


def fft_inverse(fhat: OperatorField) -> OperatorField:
    """Inverse of :func:`fft_forward`."""
    coef = fhat.data.copy()  # ifft_data works in place; field data is read-only
    return OperatorField(fhat.grid, ifft_data(coef, fhat.grid) * float(fhat.grid.N**fhat.grid.d))


def band_limited_field_reference(grid: Grid, n: int, seed: int, r_min: float = 0.0,
                                 r_max=None) -> OperatorField:
    """band_limited_random by a second formula: the coefficients c
    inverse-transformed on their band, then scaled by N^d (the package
    scales c by N^d first, in band_limited_spectrum)."""
    rng = rng_for(seed)
    if r_max is None:
        r_max = float(2 ** lp_family_j_max(grid))
    mask = (grid.freq_norm >= r_min) & (grid.freq_norm <= r_max)
    count = int(mask.sum())
    coefs = np.zeros(grid.shape + (n, n), dtype=np.complex128)
    block = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    coefs[mask] = block / np.sqrt(2.0 * max(count, 1))
    band = int(r_max) if 0 <= r_max < grid.N else None
    return OperatorField(grid, ifft_data(coefs, grid, band) * float(grid.N**grid.d))


def random_strip(grid: Grid, n: int, j_max: int, seed: int) -> StripField:
    """I.i.d. complex Gaussian strip field on all (site, scale) cells."""
    rng = rng_for(seed)
    shape = (j_max,) + grid.shape + (n, n)
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return StripField(grid, data / np.sqrt(2.0))


def random_unitary(n: int, seed: int) -> np.ndarray:
    rng = rng_for(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_alpha_one_atom(grid: Grid, n: int, alpha: float, K: int, seed: int) -> SmoothAtom:
    """Band-limited random field (|xi| <= N/8) normalized to saturate the
    worst derivative clause of an (alpha,1)-atom."""
    f = band_limited_random(grid, n, seed, r_max=grid.N / 8.0)
    _, atom = _normalize_alpha_one(np.asarray(f.data), grid, K, alpha)
    if atom is None:
        raise ValueError("degenerate random atom")
    return atom


def random_alpha_q_atom(grid: Grid, n: int, alpha: float, K: int, L: int,
                        level: int, seed: int) -> SmoothAtom:
    """Random tent atom on a random cube at ``level``, pushed through the
    projection + subatom slicing; every clause saturated at constant 1."""
    cal = calderon_resolution(grid, n_pow=_n_pow(alpha, L))
    j = level + 1
    if j > cal.j_max:
        raise ResolutionError(f"level {level} needs scale {j} > system j_max {cal.j_max}")
    rng = rng_for(seed)
    idx = tuple(int(rng.integers(0, 1 << level)) for _ in range(grid.d))
    cube = DyadicCube(grid, level, idx)
    side = side_cells(cube)
    block = rng.normal(size=(side,) * grid.d + (n, n)) + 1j * rng.normal(
        size=(side,) * grid.d + (n, n)
    )
    # saturate the weighted tent size (the eps^-alpha weighted bound)
    size = float(l1l2_sizes(block.reshape(-1, n, n), LOG2 * grid.cell_volume * 4.0 ** (j * alpha)))
    block = block / (size * math.sqrt(cube.volume))
    return _alpha_q_atoms([block], [cube], j, cal, alpha, K, L)[0][1]


def symbol_on_data(values: np.ndarray, data: np.ndarray, grid: Grid) -> np.ndarray:
    """The multiplier ``values`` on raw (*, n, n) or batched (B, *, n, n)
    data, through its one forward transform."""
    return apply_symbol_hat(values, fft_data(data, grid), grid)


def side_cells(cube: DyadicCube) -> int:
    """Side length of the cube in lattice cells."""
    return cube.grid.N >> cube.level


def cube_center(cube: DyadicCube) -> np.ndarray:
    """The center 2^-level * index of the cube."""
    return np.array(cube.index, dtype=float) * 2.0**-cube.level


def block_means(planes: np.ndarray, grid: Grid, level: int) -> np.ndarray:
    """Mean of planes (n, n, *grid.shape) over each dyadic cube at ``level``,
    as blocks of shape (2^level,)*d + (n, n): the planes seen as blocks are
    rolled into cubes (:func:`~ovtl.lattice.cube_blocks`) and averaged over
    each cube's points."""
    blocks = cube_blocks(as_blocks(planes), grid, level)
    return blocks.mean(axis=tuple(2 * k + 1 for k in range(grid.d)))


def subcube_order(a: DyadicCube, b: DyadicCube) -> bool:
    """Partial order (mu,l) <= (mu',l') of two cubes: ``subcube_orders`` on one pair."""
    if a.grid != b.grid:
        raise ValueError("cubes live on different grids")
    return bool(subcube_orders(a.grid, a.level, a.index, b.level, b.index))


def zero_field(grid: Grid, n: int) -> OperatorField:
    return OperatorField(grid, np.zeros(grid.shape + (n, n), dtype=np.complex128))


def constant_field(grid: Grid, matrix) -> OperatorField:
    """The field equal to ``matrix`` at every lattice point."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    return OperatorField(grid, np.broadcast_to(matrix, grid.shape + matrix.shape))


def zero_strip(grid: Grid, n: int, j_max: int) -> StripField:
    return StripField(grid, np.zeros((j_max,) + grid.shape + (n, n), dtype=np.complex128))


def scaled(c: complex, F):
    """The field or strip c F."""
    return type(F)(F.grid, c * F.data)


def field_sum(f: OperatorField, g: OperatorField) -> OperatorField:
    """The pointwise sum f + g of two fields on one grid."""
    return OperatorField(f.grid, f.data + g.data)


def write_strip_file(path, F: StripField) -> None:
    """A field file holding the strip F, with j_count = F.j_max and the
    scale axis outermost: the format ``read_field`` rejects."""
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, F.grid.d, F.grid.N, F.n, F.j_max)
    path.write_bytes(header + np.ascontiguousarray(F.data, dtype="<c16").tobytes())


def tent_size(atom: TentAtom) -> float:
    """tau((int_{T(Q)} |a|^2 ds deps/eps)^(1/2)) with the dyadic measure."""
    return float(l1l2_sizes(atom.block.reshape(-1, atom.n, atom.n),
                            LOG2 * atom.grid.cell_volume))


def failures(report: ValidationReport) -> list:
    """The clauses of ``report`` that fail."""
    return [c for c in report.clauses if not c.passed]


def box_axes(atom) -> list:
    """Per-axis lattice indices of the periodic box a box-stored atom's block covers."""
    return box_indices(atom.grid, atom.origin, atom.block.shape[:atom.grid.d])


def embed(atom) -> np.ndarray:
    """The block of a box-stored atom embedded on the whole grid."""
    out = np.zeros(atom.grid.shape + (atom.n, atom.n), dtype=np.complex128)
    out[np.ix_(*box_axes(atom))] = atom.block
    return out


def atom_field(atom) -> OperatorField:
    """A stored atom embedded on the whole grid."""
    return OperatorField(atom.grid, embed(atom))


def tent_to_strip(atom: TentAtom, j_max: int) -> StripField:
    """The tent atom on the full strip of scales 1 .. j_max (zeros off T(Q))."""
    data = np.zeros((j_max,) + atom.grid.shape + (atom.n, atom.n), dtype=np.complex128)
    box = np.ix_(*atom.cube.axis_indices())
    data[(slice(atom.j_lo - 1, atom.j_lo - 1 + atom.block.shape[0]),) + box] = atom.block
    return StripField(atom.grid, data)


def project_tent(F, cal: CalderonSystem) -> OperatorField:
    """pi(F)(s) = log2 * sum_j (Psi_j * F(., 2^-j))(s), one full-grid
    multiplier per scale: the symbol-route oracle of the projections.

    For a TentAtom input the output is supported in Q grown by the reach
    R_j of its coarsest scale j (exact stencil support, inside 2Q), has
    exactly vanishing mean, and satisfies the L1(M;L2) size bound with the
    measured constant.
    """
    grid = cal.grid
    if isinstance(F, TentAtom):
        F = tent_to_strip(F, F.j_lo - 1 + F.block.shape[0])
    if not isinstance(F, StripField):
        raise TypeError("project_tent expects a StripField or TentAtom")
    if F.grid != grid:
        raise GridMismatchError("strip grid does not match system grid")
    scales = range(1, min(F.j_max, cal.j_max) + 1)  # scales above cal.j_max are ignored
    _check_mean_zero_levels(cal, scales)
    out = np.zeros(grid.shape + (F.n, F.n), dtype=np.complex128)
    for j in scales:
        out += symbol_on_data(cal.level(j), F.level(j), grid)
    return OperatorField(grid, LOG2 * out)


def identity_defect(cal: CalderonSystem) -> float:
    """max |phi0 + sum_j Psi_j^2 - 1| over the grid."""
    total = np.array(cal.phi0_values, copy=True)
    for v in cal.level_values:
        total = total + v * v
    return float(np.max(np.abs(total - 1.0)))


def scaled_sequence(seq: SymbolSequence, c: float) -> SymbolSequence:
    return SymbolSequence(
        seq.grid,
        tuple(p.scale(c) for p in seq.phi_profiles),
        seq.rho_profiles,
        name=f"{seq.name}*{c}",
        rho_is_dilate_family=seq.rho_is_dilate_family,
    )


# ---------------------------------------------------------------------------
# multiplier certificates with no shared work, the oracle of ovtl.fmult
# ---------------------------------------------------------------------------

def hypothesis_components_reference(seq: SymbolSequence, sigma: float) -> tuple:
    """hypothesis_components with the LP base profile resampled at every
    hsigma_norm_profile evaluation."""
    grid = seq.grid
    W = hypothesis_window(grid)
    base = lp_base_profile()
    sup = 0.0
    for j in range(1, seq.j_max + 1):
        for k in DILATE_SHIFTS:
            prof = seq.phi_profiles[j].dilate(2.0 ** (j + k)) * base
            sup = max(sup, hsigma_norm_profile(prof, grid, sigma, window=W))
    low_prof = seq.phi_profiles[0] * _profile_sum(lp_zero_profile(), base.dilate(0.5))
    return sup, hsigma_norm_profile(low_prof, grid, sigma, window=W)


def phi_two_sigma_reference(profiles, grid: Grid, sigma: float,
                            family_kind: str = "default") -> float:
    """phi_two_sigma with the LP base and zero profiles resampled at every
    hsigma_norm_profile evaluation."""
    W = default_window(grid)
    base = lp_base_profile(family_kind)
    zero = lp_zero_profile(family_kind)

    def l2_norm(dilate_pow):
        total = 0.0
        for prof in profiles:
            p = prof * zero if dilate_pow is None else prof.dilate(2.0**dilate_pow) * base
            total += hsigma_norm_profile(p, grid, sigma, window=W) ** 2
        return math.sqrt(total)

    sup = l2_norm(None)
    for k in range(1, len(profiles) + 3):
        sup = max(sup, l2_norm(k))
    return sup


def certificate_reference(seq: SymbolSequence, spectrum_gen, alpha: float, p: float,
                          trials: int, sigma: float, cone=None,
                          margin: float = 100.0) -> MultiplierCertificate:
    """empirical_square_bound (empirical_conic_bound given a cone) on the
    same trial spectra, with two square functions per trial, both on
    profile-free copies of the levels (no band, so every level takes one
    full ifftn), rho_j resampled from its profile, and the hypothesis
    constant of hypothesis_components_reference."""
    grid = seq.grid
    seq.check_support()
    j_top = seq.j_max if cone is None else min(seq.j_max, cone.j_max)
    rho = [symbol_from_profile(grid, prof) for prof in seq.rho_profiles]
    levels = [[(j, level_weight(j, alpha), Symbol(grid, np.array(symbol(j).values)))
               for j in range(j_top + 1)] for symbol in (seq.product_symbol, rho.__getitem__)]
    ratios = []
    for t in range(trials):
        fhat = to_planes(spectrum_gen(t))
        out, inp = (square_norm(fhat, grid, lv, p, cone) for lv in levels)
        ratios.append(out / inp if inp > 0 else 0.0)
    return MultiplierCertificate(
        name=f"{'square' if cone is None else 'conic'}[{seq.name}]",
        hypothesis_constant=max(hypothesis_components_reference(seq, sigma)),
        empirical_ratio=max(ratios), trials=trials, sigma=sigma, alpha=alpha, p=p,
        margin=margin, window=hypothesis_window(grid), per_trial=ratios)


def ball_measure(cone: ConeIndex, j: int) -> float:
    """Discrete ball measure |B_j| * h^d."""
    return cone.offsets[j].shape[0] * cone.grid.cell_volume


def log_space_root_norm(eigs: np.ndarray, p: float, volume: float) -> float:
    """(sum volume lambda^(p/2))^(1/p) over the eigenvalues ``eigs`` of S,
    summed in long double around the largest log lambda, so that no power
    over- or underflows; zero eigenvalues add nothing."""
    logs = np.log(np.asarray(eigs, dtype=np.longdouble)[eigs > 0])
    top = np.max(logs)
    total = np.sum(np.exp((p / 2) * (logs - top))) * volume
    return float(np.exp(top / 2 + np.log(total) / p))


def hs_norm_sq(f: OperatorField) -> float:
    """Squared L_2 norm  sum_s h^d ||f(s)||_HS^2 (fixed summation order)."""
    return float(np.sum(np.abs(f.data) ** 2)) * f.grid.cell_volume


def pairing(f: OperatorField, g: OperatorField) -> complex:
    """Bilinear pairing tau integral tr(f(s) g(s)*) ds."""
    if f.grid != g.grid or f.n != g.n:
        raise GridMismatchError("fields live on different grids or matrix dimensions")
    val = np.sum(f.data * np.conj(g.data))
    return complex(val) * f.grid.cell_volume


def op_cauchy_schwarz_gap(phi: np.ndarray, f: OperatorField) -> float:
    """Smallest eigenvalue of  (int |phi|^2)(int f*f) - (int phi f)*(int phi f).

    A nonnegative result (up to -1e-9 * scale round-off) certifies the
    operator Cauchy-Schwarz inequality |int phi f|^2 <= int|phi|^2 int|f|^2.
    """
    phi = np.asarray(phi)
    if phi.shape != f.grid.shape:
        raise GridMismatchError("scalar field shape does not match grid")
    h_d = f.grid.cell_volume
    phi_sq = float(np.sum(np.abs(phi) ** 2)) * h_d
    gram_int = np.sum(gram(f.data), axis=f.grid.spatial_axes) * h_d
    conv = np.sum(phi[..., None, None] * f.data, axis=f.grid.spatial_axes) * h_d
    return float(np.min(np.linalg.eigvalsh(phi_sq * gram_int - gram(conv))))


def op_cauchy_schwarz_scale(phi: np.ndarray, f: OperatorField) -> float:
    """Natural scale for the Cauchy-Schwarz gap: ||int|phi|^2 int f*f||_op."""
    h_d = f.grid.cell_volume
    phi_sq = float(np.sum(np.abs(phi) ** 2)) * h_d
    gram_int = np.sum(gram(f.data), axis=f.grid.spatial_axes) * h_d
    return _max_eigenvalue(gram_int) * phi_sq if phi_sq else 0.0


# width (in the transition variable t) of the boundary zone where the exact
# bump value of each eta profile kind lies below the float64 subnormal floor
_POSITIVITY_MARGIN = {"default": 0.002, "poly": 1e-9}


def lp_positivity_margin(kind: str = "default") -> float:
    """Width (in the transition variable) of the boundary zone where the
    exact bump value lies below the float64 subnormal floor."""
    return _POSITIVITY_MARGIN[kind]


def square_sum(family: LPFamily) -> np.ndarray:
    """sum_j phi^(j)(xi)^2 over the members of the family."""
    total = np.zeros(family.grid.shape)
    for s in family.symbols:
        total = total + s.values.real**2
    return total


def sandwich_floor(family: LPFamily) -> float:
    """c_0^2 = min over covered frequencies of sum_j phi^(j)(xi)^2."""
    return float(np.min(square_sum(family)[family.covered_mask()]))


# ---------------------------------------------------------------------------
# the per-atom validator, the oracle of the array one in ovtl.atomics
# ---------------------------------------------------------------------------

def _reference_measure(chunk: list, key: tuple) -> list:
    """(sizes, support, moments) of each atom of ``chunk``, atoms sharing the
    group key ``key``: the sizes of the key's route; the relative L2 energy
    off Q (off 2Q for double-support and smooth atoms; None for tent atoms),
    the larger of the energy cut off when the atom was stored and the energy
    its block holds there, from each atom's own mask; and ({beta: |moment|},
    l1 mass) of the centered discrete moments sum_s h^d s_per^beta a(s) of
    the block, or None, each norm taken on its own."""
    grid, _, (route, arg), L = key[:4]
    first, B, n = chunk[0], len(chunk), chunk[0].n
    blocks = np.stack([a.block for a in chunk])
    idxs = [None if a.kind == "tent_atom" else box_axes(a) for a in chunk]
    if route == "spatial":
        sizes = l1l2_sizes(blocks.reshape(B, -1, n, n), arg)[:, None]
    elif _windowed(grid, blocks.shape[1:grid.d + 1]):
        sizes = _window_sizes(blocks, grid, route, arg)
    else:
        full = np.zeros((B,) + grid.shape + (n, n), dtype=np.complex128)
        for b, idx in enumerate(idxs):
            full[(b,) + np.ix_(*idx)] = blocks[b]
        weights = _bessel_weight(grid, arg) if route == "bessel" else _derivative_weights(grid, arg)
        sizes = _weighted_sizes(fft_data(full, grid), grid, weights)
    if first.kind == "tent_atom":
        return [(s, None, None) for s in sizes.tolist()]
    inside = np.stack([a.cube.box_mask(idx, a.double_support) for a, idx in zip(chunk, idxs)])
    support = np.maximum(_energy_outside(blocks, inside), [a.support_leak for a in chunk])
    if L < 0:
        return [(s, r, None) for s, r in zip(sizes.tolist(), support.tolist())]
    if first.kind == "h_atom":  # the mean
        betas = [(0,) * grid.d]
        moments = [np.sum(blocks, axis=tuple(range(1, grid.d + 1)))]
    else:
        offsets = []  # signed periodic offsets from the cube centers, per axis
        for ax in range(grid.d):
            delta = (np.array([idx[ax] for idx in idxs]) * grid.h
                     - np.array([cube_center(a.cube)[ax] for a in chunk])[:, None])
            shape = (B,) + (1,) * ax + (-1,) + (1,) * (grid.d - ax - 1)
            offsets.append(wrap_half(delta).reshape(shape))
        betas = multi_indices(grid.d, L)
        flat = blocks.reshape(B, -1, n * n)
        moments = [np.matmul(reduce(np.multiply, [x**b for x, b in zip(offsets, beta)])
                             .reshape(B, 1, -1), flat)[:, 0] for beta in betas]
    l1 = np.sum(np.abs(blocks), axis=tuple(range(1, blocks.ndim))) * grid.cell_volume
    return [(s, r, ({beta: float(np.linalg.norm(m[b] * grid.cell_volume))
                     for beta, m in zip(betas, moments)}, l1_b))
            for b, (s, r, l1_b) in enumerate(zip(sizes.tolist(), support.tolist(), l1.tolist()))]


def _reference_box_sums(grid: Grid, box: tuple, term_lists: list, tail: tuple) -> list:
    """sum_k c_k B_k for each list of (c_k, origin_k, B_k) terms over the
    periodic box (origin, side) ``box`` when every block lies in it, else
    over the torus (periodic_block_sum), for all lists alike."""
    (origin, side), N = box, grid.N
    terms = [term for terms in term_lists for term in terms]
    offsets = [[(o - p) % N for o, p in zip(org, origin)] for _, org, _ in terms]
    if side >= N or any(off + s > side for offs, (_, _, block) in zip(offsets, terms)
                        for off, s in zip(offs, block.shape)):
        return [periodic_block_sum(grid, terms, tail) for terms in term_lists]
    sums, offsets = [], iter(offsets)
    for terms in term_lists:
        buf = np.zeros((side,) * grid.d + tail, dtype=np.complex128)
        for (c, _, block), offs in zip(terms, offsets):
            buf[tuple(slice(off, off + s) for off, s in zip(offs, block.shape))] += c * block
        sums.append(buf)
    return sums


def _reference_report(atom, sizes: list, support, moments, sub_reports: list) -> ValidationReport:
    """Clauses of one atom from its measurements and its subatoms' reports."""
    grid, kind = atom.grid, atom.kind
    bound = atom.cube.volume**-0.5 * (1.0 + SIZE_SLACK)
    if kind == "tent_atom":
        in_tent = (atom.j_lo >= max(atom.cube.level, 1)
                   and atom.j_lo + atom.block.shape[0] - 1 <= lp_family_j_max(grid))
        clauses = [Clause("support_in_tent", 0.0 if in_tent else 1.0, 0.5)]
    else:
        clauses = [Clause("support" if kind == "h_atom" else "support_2Q",
                          support, SUPPORT_RTOL)]
    if kind in ("h_atom", "tent_atom"):
        clauses.append(Clause("size", sizes[0], bound))
    elif kind == "alpha_q":
        clauses.append(Clause("bessel_size", sizes[0], bound))
        coef_l2 = math.sqrt(sum(abs(d) ** 2 for d, _ in atom.subatoms))
        clauses.append(Clause("coefficient_l2", coef_l2, bound))
        order_ok = all(subcube_order(sub.cube, atom.cube) for _, sub in atom.subatoms)
        clauses.append(Clause("subcube_order", 0.0 if order_ok else 1.0, 0.5))
        full, recon = _reference_box_sums(grid, atom.cube.box(double=True), [
            [(1.0, atom.origin, atom.block)],
            [(d_c, sub.origin, sub.block) for d_c, sub in atom.subatoms]], (atom.n, atom.n))
        scale = max(float(np.max(np.abs(full))), 1e-300)
        dev = float(np.max(np.abs(recon - full))) / scale
        clauses.append(Clause("subatom_reconstruction", dev, 1e-10))
        for rep in sub_reports:
            clauses.append(Clause("subatoms_valid", 0.0 if rep.passed else 1.0, 0.5))
            if not rep.passed:
                break
    else:
        for gamma, s in zip(multi_indices(grid.d, atom.K), sizes):
            b_gamma = 1.0 + SIZE_SLACK
            if kind == "subatom":
                b_gamma *= atom.cube.volume ** (atom.alpha / grid.d - sum(gamma) / grid.d)
            clauses.append(Clause(f"derivative{gamma}", s, b_gamma))
    if moments is not None:
        devs, l1_mass = moments
        bound_m = MOMENT_RTOL * max(l1_mass, 1e-300)
        for beta, dev in devs.items():
            clauses.append(Clause("moment" if kind == "h_atom" else f"moment{beta}", dev, bound_m))
    return ValidationReport(kind, clauses)


def validate_atoms_reference(atoms) -> list:
    """validate_atoms clause by clause, with every support mask, moment
    norm, subcube order, subatom sum and report made atom by atom (the
    sizes are stacked as in validate_atoms, which makes them batch-free)."""
    atoms = list(atoms)
    entries = atoms + [sub for a in atoms if a.kind == "alpha_q" for _, sub in a.subatoms]
    groups = {}
    for i, atom in enumerate(entries):
        groups.setdefault(_group_key(atom), []).append(i)
    measured = [None] * len(entries)
    for key, idx in groups.items():
        grid, shape, (route, _), _ = key[:4]
        local = route == "spatial" or _windowed(grid, shape[:grid.d])
        item_bytes = math.prod(shape) * 16 if local else _block_bytes(grid.N**grid.d, shape[-1])
        for chunk in _chunks(idx, item_bytes):
            for i, m in zip(chunk, _reference_measure([entries[i] for i in chunk], key)):
                measured[i] = m
    subs = iter([_reference_report(sub, *measured[i], [])
                 for i, sub in enumerate(entries[len(atoms):], len(atoms))])
    return [_reference_report(atom, *measured[i],
                              [next(subs) for _ in atom.subatoms] if atom.kind == "alpha_q" else [])
            for i, atom in enumerate(atoms)]


# ---------------------------------------------------------------------------
# point-major oracles of the planar Gram and root-trace kernels
# ---------------------------------------------------------------------------

def gram_into_reference(out: np.ndarray, x: np.ndarray, weight=None) -> np.ndarray:
    """x* x of each (rows, n, n) block of ``x`` written into ``out`` (weight *
    x* x added with ``weight``), _GRAM_ROWS rows at a time read in (n, n, rows)
    order: entry a <= b sums conj(x_ka) x_kb over k in order (|x_ka|^2 on the
    diagonal), (b, a) takes its conjugate."""
    n = x.shape[-1]
    for rows in (slice(lo, lo + _GRAM_ROWS) for lo in range(0, len(x), _GRAM_ROWS)):
        xb, ob = x[rows].transpose(1, 2, 0), out[rows]
        xb = xb.copy() if n > 2 else xb
        for a, b in itertools.combinations_with_replacement(range(n), 2):
            terms = (xb[k, a].real ** 2 + xb[k, a].imag ** 2 if a == b
                     else np.conj(xb[k, a]) * xb[k, b] for k in range(n))
            total = sum(terms, next(terms))
            if weight is None:
                ob[:, a, b] = total
                if b > a:
                    ob[:, b, a] = np.conj(total)
            else:
                ob[:, a, b] += total * weight
                if b > a:
                    ob[:, b, a] += np.conj(total) * weight
    return out


def root_traces_reference(S: np.ndarray, steps: int = 7) -> tuple:
    """(sum of tr S^(1/2) over the blocks solved, mask of the others) for
    Hermitian PSD blocks S of shape (..., n, n), n = 3 or 4: ``steps``
    Laguerre steps on the quartic in s_1^2, block by block of _GRAM_ROWS
    rows, each rescaled by the power of four that brings its largest diagonal
    entry under 1."""
    shape, n = S.shape[:-2], S.shape[-1]
    S = S.reshape(-1, n, n)
    roots, solved = np.empty(len(S)), np.empty(len(S), dtype=bool)
    for rows in (slice(lo, lo + _GRAM_ROWS) for lo in range(0, len(S), _GRAM_ROWS)):
        blk = S[rows]
        exp = int(_pow2_exponent(np.diagonal(blk, axis1=-2, axis2=-1).real, step=2).item())
        scale = np.ldexp(1.0, -exp)
        a = [[None] * i + [blk[:, i, i].real * scale]
             + [(0.5 * scale) * (blk[:, i, j] + np.conj(blk[:, j, i])) for j in range(i + 1, n)]
             for i in range(n)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            e = _minor_sums(a) + [0.0]
            s4, y = np.sqrt(e[4]), n * e[1]
            for _ in range(steps):
                u = 0.5 * (y - e[1])
                v = u * u - e[2] + 2.0 * s4
                g = v * v - 4.0 * y * (e[3] + 2.0 * u * s4)
                g1 = 2.0 * v * u - 4.0 * e[3] - 8.0 * u * s4 - 4.0 * y * s4
                g2 = 2.0 * u * u + v - 8.0 * s4
                step = 4.0 * g / (g1 + np.sqrt(np.maximum(9.0 * g1 * g1 - 12.0 * g * g2, 0.0)))
                y = y - step
            solved[rows] = ((e[n] >= _COARSE_SQ * e[1] * e[n - 1]) & (e[1] > 0) & (e[n - 1] > 0)
                            & (np.abs(step) <= 1e-14 * y))
            roots[rows] = np.ldexp(np.sqrt(y), exp // 2)
    return float(np.sum(roots[solved])), ~solved.reshape(shape)


def point_major_kernels(monkeypatch) -> None:
    """Route every Gram and root trace of ``ovtl.opfield`` through the
    point-major oracles, on views of the planes the planar kernels get."""

    def gram_into(out, x, weight=None):
        gram_into_reference(np.moveaxis(out, -1, 0), np.moveaxis(x, -1, 0), weight)
        return out

    def root_traces(S):
        return root_traces_reference(np.moveaxis(S, (0, 1), (-2, -1)), opfield._ROOT_STEPS)

    monkeypatch.setattr(opfield, "_gram_into", gram_into)
    monkeypatch.setattr(opfield, "_root_traces", root_traces)
