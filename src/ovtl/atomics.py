"""Atoms, validators, tent-space atomization, and smooth atomic decomposition.

The reproducing system is built from spatial stencils: at each scale j a
radial bump is sampled inside the half-cube of side 2^-j and hit with
discrete Laplacians, giving level kernels that are exactly mean-zero and
exactly supported in the cube of side 2^-j.  The low-frequency symbol is
the exact complement 1 - sum_j Psi_j(xi)^2, so the reconstruction identity
holds to machine precision on every lattice point while projected tent
atoms stay supported in Q grown by the kernel's reach, inside 2Q.

Tent atomization is constructive: the strip cell at scale j is partitioned
by the dyadic cubes at level j-1, each restricted slice is normalized to
saturate the tent size condition, and the coefficient is the removed size
times |Q|^(1/2).  Smooth decompositions push tent atoms through the
projection and, for the smoothness-weighted space, slice each projected
atom into subatoms over the level-j cubes meeting its base cube.

Atoms produced here are normalized so every validator clause passes with
constant 1; all the looseness lands in the recorded coefficient mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import groupby, product as iproduct
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError, ResolutionError, ValidationError
from .lattice import (
    DyadicCube,
    Grid,
    box_indices,
    cube_blocks,
    cube_boxes,
    dyadic_cubes_at_level,
    in_boxes,
    outer_axes,
    periodic_block_sum,
    subcube_orders,
    wrap_half,
)
from .normsuite import hardy_norm, tl_norm_column
from .opfield import OperatorField, StripField, l1l2_sizes, trace_lp_norm
from .spectral import (
    LPFamily,
    apply_symbol_hat,
    bessel_symbol,
    fft_data,
    ifft_data,
    lp_family_j_max,
    make_lp_family,
    multi_derivative_symbol,
)
from .sqfn import LOG2


@lru_cache(maxsize=None)
def multi_indices(d: int, max_order: int) -> tuple[tuple[int, ...], ...]:
    """All gamma in N_0^d with |gamma|_1 <= max_order, by |gamma|_1 and then
    lexicographic; built once per (d, max_order)."""
    return tuple(sorted((g for g in iproduct(range(max_order + 1), repeat=d)
                         if sum(g) <= max_order), key=lambda g: (sum(g), g)))


# ---------------------------------------------------------------------------
# atom types
# ---------------------------------------------------------------------------

class _CubeAtom:
    """Atom data ``block`` (..., n, n) on the dyadic cube ``cube``."""

    @property
    def grid(self) -> Grid:
        return self.cube.grid

    @property
    def n(self) -> int:
        return self.block.shape[-1]


@dataclass
class HAtom(_CubeAtom):
    """Hardy-space atom: supported in Q (or 2Q when ``double_support``),
    size tau((int |a|^2)^(1/2)) <= |Q|^(-1/2), mean-zero when |Q| < 1.

    ``origin`` defaults to 0, the box of a full-grid block.  The h1
    decomposition stores each atom on its projected support, Q grown by the
    reach R_j of its level-j kernel (the whole grid once that covers it), a
    box inside 2Q; ``support_leak`` is the relative L2 energy the cut to that
    box dropped (0 for an atom built on that box alone, the window route).
    """

    kind = "h_atom"
    cube: DyadicCube
    block: np.ndarray
    double_support: bool = False
    origin: tuple = ()
    support_leak: float = 0.0

    def __post_init__(self):
        if not self.origin:
            self.origin = (0,) * self.grid.d


@dataclass
class TentAtom(_CubeAtom):
    """Tent-space atom stored as a dense block over its cube.

    ``block`` has shape (n_scales, *cube_cells, n, n) holding scales
    j = j_lo .. j_lo + n_scales - 1 restricted to the cube's lattice points.
    """

    kind = "tent_atom"
    cube: DyadicCube
    j_lo: int
    block: np.ndarray


@dataclass
class SmoothAtom(_CubeAtom):
    """Smooth atom: kind 'alpha_one', 'subatom', or 'alpha_q'.

    Data is stored as a block over a box inside the double cube 2Q
    (``origin`` is its per-axis start index): the whole grid for 'alpha_one',
    2Q of the level-j cell for a 'subatom', and for 'alpha_q' the projected
    support, Q grown by the reach R_j of its level-j kernel (the whole grid
    once that covers it).  ``support_leak`` is the relative L2 energy of the
    built atom outside its box, which storing the block cut off (0 for an
    atom built on its box alone, the window route); the validator still
    checks support against 2Q.  For 'alpha_q' atoms,
    ``subatoms`` holds (d_coefficient, subatom) pairs with
    sum_l d_l a_l = atom data.
    """

    kind: str
    cube: DyadicCube
    origin: tuple
    block: np.ndarray
    alpha: float = 0.0
    K: int = 1
    L: int = -1
    subatoms: list = field(default_factory=list)
    support_leak: float = 0.0
    double_support = True  # support checked against 2Q


def _energy_outside(data: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Relative L2 energy of each row of (B, *, n, n) data off the points
    where ``inside`` (B, *) holds; 0 for zero data.  The inside is zeroed
    and the rest summed, not subtracted from the total, so a leak of 1e-16
    keeps its digits."""
    parts = np.ascontiguousarray(data).view(np.float64).reshape(len(data), inside[0].size, -1)
    energy = np.einsum("bpk,bpk->bp", parts, parts)
    total = energy.sum(axis=-1)
    energy[inside.reshape(len(data), -1)] = 0.0
    return np.sqrt(energy.sum(axis=-1) / np.where(total > 0, total, 1.0))


def _cube_arrays(cubes: list) -> tuple:
    """(levels (B,), per-axis indices (d, B)) of ``cubes``: the arguments of
    :func:`cube_boxes` for all of them at once."""
    return (np.array([c.level for c in cubes]),
            np.array([c.index for c in cubes]).reshape(len(cubes), -1).T)


def _origins(starts) -> list:
    """The per-axis start indices (d, B) of B boxes as B tuples of ints."""
    return list(zip(*np.asarray(starts).tolist()))


def _box_points(grid: Grid, origins, sides) -> tuple:
    """Index of the points of the periodic box at ``origins[:, b]``
    (per-axis, (d, B)) with ``sides`` in row b of a (B, *grid.shape, ...)
    array, for the (B, *sides) gather or scatter of every box at once."""
    rows = np.arange(len(origins[0])).reshape((-1,) + (1,) * grid.d)
    return (rows,) + tuple(outer_axes(box_indices(grid, origins, sides)))


def _cut_to_support(fulls: np.ndarray, cubes: list, reach: int) -> list:
    """(origin, block, leak) per cube: the block of the full-grid data
    ``fulls[b]`` over ``cubes[b]`` grown by ``reach`` cells on every side,
    and the relative L2 energy outside that box that the cut drops.  The
    cubes share one level, so their boxes share one side.

    Level-j projections of data over a cube stay in the cube grown by the
    kernel's reach R_j (:func:`_reach`), inside 2Q; for a level-j subatom
    cell that box is its 2Q."""
    grid = cubes[0].grid
    starts, sides = cube_boxes(grid, *_cube_arrays(cubes), margin=reach)
    points = _box_points(grid, starts, (int(sides[0]),) * grid.d)
    inside = np.zeros(fulls.shape[:-2], dtype=bool)
    inside[points] = True
    return list(zip(_origins(starts), fulls[points], _energy_outside(fulls, inside).tolist()))


@dataclass
class AtomicDecomposition:
    """Coefficient/atom pairs with reconstruction metadata."""

    grid: Grid
    n: int
    alpha: Optional[float]
    low_pairs: list  # (mu_coefficient, SmoothAtom alpha_one)
    high_pairs: list  # (lambda_coefficient, SmoothAtom)
    residual: float
    mass_ratio: Optional[float]

    @property
    def mass(self) -> float:
        return float(
            sum(abs(c) for c, _ in self.low_pairs)
            + sum(abs(c) for c, _ in self.high_pairs)
        )

    def reconstruct(self) -> OperatorField:
        terms = [(c, atom.origin, atom.block) for c, atom in self.low_pairs + self.high_pairs]
        return OperatorField(self.grid, periodic_block_sum(self.grid, terms, (self.n, self.n)))


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Clause:
    """One validator condition, measured <= bound; a yes/no condition
    measures 0 (yes) or 1 (no) against the bound 0.5."""

    name: str
    measured: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound

    @property
    def slack(self) -> float:
        return self.bound - self.measured


@dataclass
class ValidationReport:
    atom_kind: str
    clauses: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)


SUPPORT_RTOL = 1e-10
SIZE_SLACK = 1e-9
MOMENT_RTOL = 1e-10
# bytes of data stacked into one batched call: full-grid data for a
# transform, window data (each block over its own box) for a window product,
# stored blocks for a spatial size; a few full-grid atoms at the desk scales,
# enough to spread the per-call cost while every temporary stays small
CHUNK_BYTES = 256 * 1024


def _chunks(items: list, item_bytes: int) -> list:
    """Consecutive runs of ``items``, each holding at most CHUNK_BYTES of
    items of ``item_bytes`` bytes and at least one item."""
    step = max(1, CHUNK_BYTES // item_bytes)
    return [items[k:k + step] for k in range(0, len(items), step)]


def _block_bytes(points: int, n: int) -> int:
    """Bytes of complex (n, n)-matrix data over ``points`` lattice points."""
    return points * n * n * 16


@lru_cache(maxsize=16)
def _derivative_weights(grid: Grid, K: int) -> np.ndarray:
    """Rows |m_gamma|^2 of the D^gamma symbols, |gamma|_1 <= K in the order
    of :func:`multi_indices`; shape (rows, points)."""
    rows = np.stack([np.abs(multi_derivative_symbol(grid, g).values.ravel()) ** 2
                     for g in multi_indices(grid.d, K)])
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=16)
def _bessel_weight(grid: Grid, alpha: float) -> np.ndarray:
    """The row |J_alpha|^2 = (1 + |xi|^2)^alpha, shape (1, points)."""
    row = np.abs(bessel_symbol(grid, alpha).values.reshape(1, -1)) ** 2
    row.setflags(write=False)
    return row


def _weighted_sizes(data_hat: np.ndarray, grid: Grid, weights: np.ndarray) -> np.ndarray:
    """tau((int |m_k a|^2)^(1/2)) per row |m_k|^2 of ``weights``, from
    ``data_hat = fft_data(a)`` of shape (*batch, *grid.shape, n, n): by
    Plancherel, the sizes of the transform with volume h^(2d); shape
    (*batch, rows)."""
    n = data_hat.shape[-1]
    return l1l2_sizes(data_hat.reshape(data_hat.shape[:-grid.d - 2] + (-1, n, n)),
                      grid.cell_volume**2, weights)


# a box is sized (and a level projected) on the box alone, with no full-grid
# transform, when it holds at most a quarter of the torus's points (past that
# a dense P x P product costs about as much as the transform) and at most
# _WINDOW_POINTS.  Its factors are built once per process, P^3/6 long-double
# multiply-adds: about 6 ms at P = 144 on a 2-core x86-64 host (30 ms at
# P = 256), which one decomposition repays (a cold tl `decompose` at d=2 N=32
# took 110 ms against 232 ms on the full grid).  144 admits the 12 x 12 finest
# level at d=2 N=32 and keeps the caches of d=1 N=256 and 1024 and of d=2
# N=32 under 0.7 MB in all
_WINDOW_POINTS = 144


def _windowed(grid: Grid, sides) -> bool:
    """Whether a periodic box of ``sides`` (each <= N) takes the window route."""
    points = math.prod(sides)
    return 4 * points <= grid.N**grid.d and points <= _WINDOW_POINTS


def _real_columns(a: np.ndarray) -> np.ndarray:
    """(*batch, *box, n, n) complex data as (*batch, points, 2 n^2) real columns."""
    n = a.shape[-1]
    return np.ascontiguousarray(a).view(np.float64).reshape(a.shape[:-2] + (2 * n * n,))


def _complex_blocks(y: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`_real_columns`: (..., 2 n^2) real as (..., n, n) complex."""
    return np.ascontiguousarray(y).view(np.complex128).reshape(y.shape[:-1] + (n, n))


@lru_cache(maxsize=64)
def _window_factor(grid: Grid, sides: tuple, route: str, arg) -> np.ndarray:
    """Real upper-triangular R (P, P) over the P points of a periodic box of
    ``sides`` with R^T R = E* F* diag(w) F E, where E embeds the box in the
    grid, F is the unnormalized DFT and w is the weight row of the route:
    |J_alpha|^2 for ("bessel", alpha), |2 pi xi|^(2g) for ("derivative", g)
    on a one-dimensional grid.  So sum_xi w |a_hat|^2 = sum_z |R a|^2 for
    data a over the box.

    E* F* diag(w) F E is the real Toeplitz matrix of the transform of w
    (w(-xi) = w(xi)), whose Cholesky factor is taken in long double: the
    rounding of the Gram then stays far below that of R a in double, so the
    sizes are as accurate as the transform route even where w is small on
    the data (smooth data and derivative weights).  This needs a long double
    wider than double, as on x86-64 Linux (64-bit significand)."""
    w = _bessel_weight(grid, arg) if route == "bessel" else _derivative_weights(grid, arg)[-1:]
    taps = np.fft.fftn(w.reshape(grid.shape).astype(np.longdouble)).real
    d, points = grid.d, math.prod(sides)
    # gram[z, z'] = taps[z - z'], with the axes of z before those of z'
    lags = [((np.arange(s)[:, None] - np.arange(s)) % grid.N)
            .reshape((1,) * ax + (s,) + (1,) * (d - 1) + (s,) + (1,) * (d - ax - 1))
            for ax, s in enumerate(sides)]
    L = taps[tuple(lags)].reshape(points, points)
    for k in range(points):  # left-looking Cholesky, in place in the lower triangle
        L[k:, k] -= L[k:, :k] @ L[k, :k]
        L[k:, k] /= np.sqrt(L[k, k])
        L[k, k + 1:] = 0.0
    R = np.ascontiguousarray(L.T, dtype=np.float64)
    R.setflags(write=False)
    return R


def _window_sizes(blocks: np.ndarray, grid: Grid, route: str, arg) -> np.ndarray:
    """The sizes :func:`_weighted_sizes` gives from the transforms of the
    full-grid embeddings of ``blocks`` (B, *sides, n, n), each over a
    periodic box of ``sides``, made on the boxes alone; shape (B, rows).

    Per weight row w, sum_xi w |a_hat|^2 = sum_z |R a|^2 with R from
    :func:`_window_factor`.  A derivative weight |m_gamma|^2 is a product of
    one-dimensional weights, so R is the Kronecker product of per-axis
    factors, applied one axis at a time; an axis with gamma_i = 0 has the
    factor sqrt(N) I, folded into the volume, so gamma = 0 is the spatial
    size.  Each block is multiplied in its own product of fixed shape, so a
    size does not depend on the batch."""
    B, sides, n = len(blocks), blocks.shape[1:-2], blocks.shape[-1]
    x = _real_columns(blocks)
    if route == "bessel":
        y = np.matmul(_window_factor(grid, sides, route, arg), x.reshape(B, -1, 2 * n * n))
        return l1l2_sizes(_complex_blocks(y, n), grid.cell_volume**2)[:, None]
    line = Grid(1, grid.N)
    sizes = []
    for gamma in multi_indices(grid.d, arg):
        y = x
        for ax, g in enumerate(gamma):
            if g:
                R = _window_factor(line, (sides[ax],), route, g)
                y = np.moveaxis(np.matmul(R, np.moveaxis(y, ax + 1, -2)), -2, ax + 1)
        volume = grid.h ** (grid.d + sum(g > 0 for g in gamma))
        sizes.append(l1l2_sizes(_complex_blocks(y, n).reshape(B, -1, n, n), volume))
    return np.stack(sizes, axis=-1)


def _group_key(atom) -> tuple:
    """What atoms validated in one stack share: grid, block shape, size route
    (("spatial", volume) on the stored block, or ("derivative", K) /
    ("bessel", alpha) on the window of the stored block or on the transform
    of its full-grid embedding), the largest |beta|_1 of the moments they must
    cancel (-1 for none) and kind, so that a stack has one list of clauses."""
    grid, kind = atom.grid, atom.kind
    if kind == "h_atom":
        route, order = ("spatial", grid.cell_volume), 0 if atom.cube.level > 0 else -1
    elif kind == "tent_atom":
        route, order = ("spatial", LOG2 * grid.cell_volume), -1
    elif kind == "alpha_q":
        route, order = ("bessel", atom.alpha), -1
    else:
        route, order = ("derivative", atom.K), atom.L if kind == "subatom" else -1
    return grid, atom.block.shape, route, order, kind


def _sizes(blocks: np.ndarray, origins: np.ndarray, key: tuple) -> np.ndarray:
    """Sizes (B, rows) of the key's route of stacked ``blocks`` stored at
    per-axis ``origins`` (d, B): on the blocks (spatial), on their windows,
    or on the transforms of their full-grid embeddings."""
    grid, _, (route, arg), _, _ = key
    B, n = len(blocks), blocks.shape[-1]
    if route == "spatial":
        return l1l2_sizes(blocks.reshape(B, -1, n, n), arg)[:, None]
    sides = blocks.shape[1:grid.d + 1]
    if _windowed(grid, sides):
        return _window_sizes(blocks, grid, route, arg)
    full = np.zeros((B,) + grid.shape + (n, n), dtype=np.complex128)
    full[_box_points(grid, origins, sides)] = blocks
    weights = _bessel_weight(grid, arg) if route == "bessel" else _derivative_weights(grid, arg)
    return _weighted_sizes(fft_data(full, grid), grid, weights)


def _moments(blocks: np.ndarray, axes: list, levels: np.ndarray, indices: np.ndarray,
             key: tuple) -> tuple:
    """(betas, |moment| (B, betas), l1 mass (B,)) of the centered discrete
    moments sum_s h^d s_per^beta a(s), |beta|_1 <= L (the mean of an h_atom),
    of ``blocks`` over the boxes with per-axis indices ``axes`` (B, side),
    about the centers of the cubes (levels (B,), indices (d, B)), each
    offset taken in the half-open cell [-1/2, 1/2)."""
    grid, _, _, L, kind = key
    B, d, n = len(blocks), grid.d, blocks.shape[-1]
    flat = blocks.reshape(B, -1, n * n)
    if kind == "h_atom":
        betas = ((0,) * d,)
        moments = np.sum(blocks, axis=tuple(range(1, d + 1))).reshape(B, 1, n * n)
    else:
        centers = indices * np.ldexp(1.0, -levels)
        offsets = outer_axes([wrap_half(idx * grid.h - center[:, None])
                              for center, idx in zip(centers, axes)])
        betas = multi_indices(d, L)
        moments = np.stack([np.matmul(reduce(np.multiply, [x**b for x, b in zip(offsets, beta)])
                                      .reshape(B, 1, -1), flat)[:, 0] for beta in betas], axis=1)
    moments = moments * grid.cell_volume
    # |m| from the dot products of its real and imaginary parts, as np.linalg.norm
    norms = np.sqrt((moments.real[..., None, :] @ moments.real[..., None])[..., 0, 0]
                    + (moments.imag[..., None, :] @ moments.imag[..., None])[..., 0, 0])
    l1 = np.sum(np.abs(blocks), axis=tuple(range(1, blocks.ndim))) * grid.cell_volume
    return betas, norms, l1


def _reconstruction_devs(chunk: list, starts: list, sides: np.ndarray) -> list:
    """max |sum_l d_l a_l - a| / max |a| of each alpha_q atom of ``chunk``,
    with 2Q boxes (per-axis starts (d, B), sides (B,)).

    An atom whose blocks (its own and its subatoms') all lie in its 2Q, below
    the torus, is summed into two 2Q buffers by basic slices, 1.0 a into one
    and the d_l a_l in the subatoms' order into the other; the others are
    summed on the torus (:func:`periodic_block_sum`)."""
    grid = chunk[0].grid
    N, tail = grid.N, (chunk[0].n,) * 2
    devs = []
    for a, start, side in zip(chunk, _origins(starts), sides.tolist()):
        terms = [(1.0, a.origin, a.block)] + [(d_c, sub.origin, sub.block)
                                               for d_c, sub in a.subatoms]
        boxes = [tuple(slice((o - s) % N, (o - s) % N + w)
                       for o, s, w in zip(org, start, block.shape)) for _, org, block in terms]
        if side < N and all(axis.stop <= side for box in boxes for axis in box):
            full, recon = np.zeros((2,) + (side,) * grid.d + tail, dtype=np.complex128)
            for k, ((c, _, block), box) in enumerate(zip(terms, boxes)):
                (recon if k else full)[box] += c * block
        else:
            full, recon = (periodic_block_sum(grid, part, tail) for part in (terms[:1], terms[1:]))
        devs.append(float(np.max(np.abs(recon - full))) / max(float(np.max(np.abs(full))), 1e-300))
    return devs


def _alpha_q_columns(chunk: list, levels: np.ndarray, indices: np.ndarray,
                     bound: np.ndarray) -> list:
    """The coefficient_l2, subcube_order and subatom_reconstruction clause
    columns of the alpha_q atoms of ``chunk``, on cubes (levels (B,),
    indices (d, B)): the coefficient norms and the subatom sums atom by atom,
    as they are defined, and the subcube orders and the 2Q boxes of all the
    atoms at once."""
    grid = chunk[0].grid
    subs = [sub for a in chunk for _, sub in a.subatoms]
    if any(sub.grid != grid for sub in subs):
        raise ValueError("cubes live on different grids")
    ordered = np.ones(len(chunk), dtype=bool)
    if subs:
        rows = np.array([b for b, a in enumerate(chunk) for _ in a.subatoms])
        ordered[rows[~subcube_orders(grid, *_cube_arrays([sub.cube for sub in subs]),
                                     levels[rows], indices[:, rows])]] = False
    starts, sides = cube_boxes(grid, levels, indices, double=True)
    return [("coefficient_l2", [math.sqrt(sum(abs(d_c) ** 2 for d_c, _ in a.subatoms))
                                for a in chunk], bound),
            ("subcube_order", np.where(ordered, 0.0, 1.0), 0.5),
            ("subatom_reconstruction", _reconstruction_devs(chunk, starts, sides), 1e-10)]


def _clause_rows(chunk: list, key: tuple) -> tuple:
    """(names, measured (B, C), bound (B, C)) of the clauses of the atoms of
    ``chunk``, which share the :func:`_group_key` ``key``, in report order;
    the subatoms_valid clauses of alpha_q atoms are left to the caller.

    The support is the relative L2 energy off Q (off 2Q for double-support
    and smooth atoms), the larger of the energy cut off when the atom was
    stored and the energy its block holds there."""
    grid, shape, (route, arg), L, kind = key
    d, B = grid.d, len(chunk)
    blocks = np.stack([a.block for a in chunk])
    cubes = [a.cube for a in chunk]
    levels, indices = _cube_arrays(cubes)
    # bounds that take a power, once per distinct level, in python floats
    by_level = {c.level: c for c in cubes}
    unit = {lv: c.volume**-0.5 * (1.0 + SIZE_SLACK) for lv, c in by_level.items()}
    size_bound = np.array([unit[lv] for lv in levels.tolist()])
    if kind == "tent_atom":
        j_lo = np.array([a.j_lo for a in chunk])
        in_tent = (j_lo >= np.maximum(levels, 1)) & (j_lo + shape[0] - 1 <= lp_family_j_max(grid))
        columns = [("support_in_tent", np.where(in_tent, 0.0, 1.0), 0.5),
                   ("size", _sizes(blocks, None, key)[:, 0], size_bound)]
        return _table(columns, B)
    origins = np.array([a.origin for a in chunk]).reshape(B, d).T
    sizes = _sizes(blocks, origins, key)
    axes = box_indices(grid, origins, shape[:d])
    inside = in_boxes(grid, *cube_boxes(grid, levels, indices,
                                        np.array([a.double_support for a in chunk])), axes)
    support = np.maximum(_energy_outside(blocks, inside), [a.support_leak for a in chunk])
    columns = [("support" if kind == "h_atom" else "support_2Q", support, SUPPORT_RTOL)]
    if kind == "h_atom":
        columns.append(("size", sizes[:, 0], size_bound))
    elif kind == "alpha_q":
        columns.append(("bessel_size", sizes[:, 0], size_bound))
        columns += _alpha_q_columns(chunk, levels, indices, size_bound)
    else:
        gammas = multi_indices(d, arg)
        if kind == "subatom":
            keys = [(a.cube.level, a.alpha) for a in chunk]
            table = {(lv, al): [(1.0 + SIZE_SLACK) * by_level[lv].volume ** (al / d - sum(g) / d)
                                for g in gammas] for lv, al in set(keys)}
            bounds = np.array([table[k] for k in keys])
        else:
            bounds = np.full((B, len(gammas)), 1.0 + SIZE_SLACK)
        columns += [(f"derivative{g}", sizes[:, r], bounds[:, r]) for r, g in enumerate(gammas)]
    if L >= 0:
        betas, norms, l1 = _moments(blocks, axes, levels, indices, key)
        bound_m = MOMENT_RTOL * np.maximum(l1, 1e-300)
        columns += [("moment" if kind == "h_atom" else f"moment{beta}", norms[:, k], bound_m)
                    for k, beta in enumerate(betas)]
    return _table(columns, B)


def _table(columns: list, B: int) -> tuple:
    """(names, measured (B, C), bound (B, C)) from (name, measured, bound)
    columns, each value a (B,) array or a scalar."""
    measured, bound = np.empty((B, len(columns))), np.empty((B, len(columns)))
    for k, (_, m, b) in enumerate(columns):
        measured[:, k], bound[:, k] = m, b
    return [c[0] for c in columns], measured, bound


def validate_atoms(atoms: Sequence) -> list:
    """Clause-by-clause reports of Hardy, tent and smooth atoms, in order;
    failures are data, not exceptions.

    Every clause is recomputed from the stored blocks.  The atoms and the
    subatoms of alpha_q atoms are grouped by grid, block shape, size route,
    moment order and kind, and each group is validated in chunks of at most
    CHUNK_BYTES.  Each chunk takes a fixed number of array passes whatever
    the number of atoms for the sizes (:func:`_sizes`: derivative and Bessel
    sizes of blocks over windowed boxes come from the window factors on the
    stored blocks, with chunks counted in block bytes; larger boxes are
    embedded in the full grid, in chunks counted in full-grid bytes, for one
    transform per chunk), the support masks from the cubes' boxes
    (:func:`cube_boxes`), the moments and l1 masses, and the subcube orders
    of alpha_q atoms.  Their coefficient norms and subatom sums
    (:func:`_reconstruction_devs`) are made atom by atom, as defined.  Each
    chunk gives one row of measured values and bounds per atom, from which
    the reports are built.  Every stacked size row has its own power-of-two
    rescale and every window product its own fixed shape, so a report does
    not depend on the batch its atom is validated in.
    """
    atoms = list(atoms)
    entries = atoms + [sub for a in atoms if getattr(a, "kind", None) == "alpha_q"
                       for _, sub in a.subatoms]
    groups = {}
    for i, atom in enumerate(entries):
        if not isinstance(atom, (HAtom, TentAtom, SmoothAtom)):
            raise TypeError(f"not an atom: {type(atom)!r}")
        if atom.kind not in ("h_atom", "tent_atom", "alpha_one", "subatom", "alpha_q"):
            raise ValueError(f"unknown smooth atom kind {atom.kind!r}")
        groups.setdefault(_group_key(atom), []).append(i)
    rows = [None] * len(entries)
    passed = np.zeros(len(entries), dtype=bool)
    for key, idx in groups.items():
        grid, shape, (route, _), _, _ = key
        local = route == "spatial" or _windowed(grid, shape[:grid.d])
        item_bytes = math.prod(shape) * 16 if local else _block_bytes(grid.N**grid.d, shape[-1])
        for chunk in _chunks(idx, item_bytes):
            names, measured, bound = _clause_rows([entries[i] for i in chunk], key)
            passed[chunk] = np.all(measured <= bound, axis=1)
            for i, m, b in zip(chunk, measured.tolist(), bound.tolist()):
                rows[i] = (names, m, b)
    passed = passed.tolist()
    reports, start = [], len(atoms)
    for i, atom in enumerate(atoms):
        clauses = [Clause(*c) for c in zip(*rows[i])]
        if atom.kind == "alpha_q":
            ok = passed[start:start + len(atom.subatoms)]
            start += len(atom.subatoms)
            # one clause per subatom, up to the first that fails
            clauses += [Clause("subatoms_valid", 0.0 if p else 1.0, 0.5)
                        for p in (ok[:ok.index(False) + 1] if False in ok else ok)]
        reports.append(ValidationReport(atom.kind, clauses))
    return reports


# ---------------------------------------------------------------------------
# reproducing system (Calderon-type resolution)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CalderonSystem:
    """Level symbols Psi_j (mean-zero, spatial support in the half-cube of
    side 2^-j) plus the exact low-frequency complement phi0.  The level-j
    kernel, whose transform is Psi_j, is ``level_kernels[j - 1]``: the
    normalized stencil over its support |m| <= R_j, centered at index R_j.
    Systems compare and hash by identity."""

    grid: Grid
    j_max: int
    level_values: tuple
    phi0_values: np.ndarray
    level_kernels: tuple

    def level(self, j: int) -> np.ndarray:
        return self.level_values[j - 1]


def _bump(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = u < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui**2))
    return out


def _reach(grid: Grid, j: int) -> int:
    """R_j = N 2^-(j+1): the level-j kernel is supported in |m| <= R_j cells
    per axis, so a level-j projection of data over Q stays in Q grown by R_j
    cells on every side, a quarter of a side of Q at level j - 1."""
    return grid.N >> (j + 1)


def _stencil(grid: Grid, j: int, n_pow: int) -> np.ndarray:
    """Spatial level kernel at scale j embedded on the grid (support in the
    closed cube |m| <= R_j cells, exactly zero mean)."""
    N = grid.N
    R = _reach(grid, j)
    margin = n_pow // 2
    r_cells = R - margin
    if r_cells < 0:
        raise ResolutionError(f"scale j={j} cannot host a stencil with n_pow={n_pow}")
    axis = np.arange(-r_cells, r_cells + 1) if r_cells > 0 else np.array([0])
    mesh = np.meshgrid(*([axis] * grid.d), indexing="ij")
    u = np.sqrt(sum(m.astype(float) ** 2 for m in mesh)) / (r_cells + 1.0)
    rho = (r_cells + 1.0) * grid.h  # continuum support radius of the bump
    kappa = np.exp(-2.0 * u**2) * _bump(u) / rho**grid.d
    # embed and apply the dilated operator (-rho^2 (2 pi)^-2 Delta_h)^(n_pow/2):
    # the rho^2 chain-rule factor keeps the symbol family scale-covariant,
    # Psi_raw_j(xi) ~ Phi_hat(rho_j xi) with O(1) amplitude on its annulus
    full = np.zeros(grid.shape)
    idx = [ax % N for ax in ([axis] * grid.d)]
    full[np.ix_(*idx)] = kappa
    h_sq = grid.h**2
    for _ in range(margin):
        lap = np.zeros_like(full)
        for ax in range(grid.d):
            lap += np.roll(full, 1, axis=ax) + np.roll(full, -1, axis=ax) - 2.0 * full
        full = -lap * rho**2 / ((2.0 * math.pi) ** 2 * h_sq)
    # force an exactly-zero sum (one correction on the center cell)
    s = full.sum()
    full[(0,) * grid.d] -= s
    return full


@lru_cache(maxsize=16)
def calderon_resolution(grid: Grid, n_pow: int = 2) -> CalderonSystem:
    """Build the discrete reproducing system for the grid.

    Returns level symbols with sum_j Psi_j^2 <= 1 (global normalization by
    the sup of the raw square sum) and phi0 = 1 - sum_j Psi_j^2 exactly.
    Raises ResolutionError when the raw square sum vanishes somewhere on a
    needed annulus.
    """
    if n_pow < 2 or n_pow % 2:
        raise ValueError("n_pow must be a positive even integer >= 2")
    top = lp_family_j_max(grid)
    raw, windows = [], []
    for j in range(1, top + 1):
        sten = _stencil(grid, j, n_pow)
        raw.append(np.fft.fftn(sten).real * grid.cell_volume)
        reach = np.arange(-_reach(grid, j), _reach(grid, j) + 1) % grid.N
        windows.append(sten[np.ix_(*[reach] * grid.d)])
    sq = np.zeros(grid.shape)
    for v in raw:
        sq = sq + v * v
    r = grid.freq_norm
    for j in range(1, top + 1):
        annulus = (r >= 2.0 ** (j - 1)) & (r <= 2.0**j)
        if np.any(annulus) and float(np.max(sq[annulus])) <= 0.0:
            raise ResolutionError(f"normalizer vanishes on the annulus of scale j={j}")
    c = float(np.max(sq))
    if c <= 0.0:
        raise ResolutionError("normalizer vanishes identically")
    levels = tuple(np.asarray(v / math.sqrt(c)) for v in raw)
    total = np.zeros(grid.shape)
    for v in levels:
        total = total + v * v
    return CalderonSystem(grid=grid, j_max=top, level_values=levels, phi0_values=1.0 - total,
                          level_kernels=tuple(w * (grid.cell_volume / math.sqrt(c))
                                              for w in windows))


# ---------------------------------------------------------------------------
# projection from the strip
# ---------------------------------------------------------------------------

def _check_mean_zero_levels(cal: CalderonSystem, scales) -> None:
    for j in scales:
        v = cal.level(j)
        scale = float(np.max(np.abs(v)))
        if scale > 0 and abs(float(v[(0,) * cal.grid.d])) > 1e-12 * scale:
            raise ValidationError(f"level kernel {j} has nonzero mean")


@lru_cache(maxsize=64)
def _projection(cal: CalderonSystem, j: int, side: int) -> np.ndarray:
    """The real ((side + 2 R_j)^d, side^d) matrix of the level-j kernel: it
    maps data over a box of ``side`` cells per axis to its convolution with
    the kernel over that box grown by R_j cells on every side, which holds
    the kernel's whole reach, for a grown box below the torus.  Applied to
    real columns (:func:`_real_columns`) it is the multiplier cal.level(j)
    (:func:`apply_symbol_hat`) on the box, with no transform and no cut."""
    d, R = cal.grid.d, _reach(cal.grid, j)
    # per axis: the kernel index R + (z - R) - y of output z from input y
    offset = np.arange(side + 2 * R)[:, None] - np.arange(side)[None, :]
    reached = (offset >= 0) & (offset <= 2 * R)
    offset = np.where(reached, offset, 0)
    axes = [(1,) * 2 * ax + offset.shape + (1,) * 2 * (d - ax - 1) for ax in range(d)]
    P = cal.level_kernels[j - 1][tuple(offset.reshape(shape) for shape in axes)]
    P = P * reduce(np.multiply, [reached.reshape(shape) for shape in axes])
    P = np.ascontiguousarray(P.transpose(list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))))
    P = P.reshape((side + 2 * R) ** d, side**d)
    P.setflags(write=False)
    return P


def _project_boxes(data: np.ndarray, cal: CalderonSystem, j: int) -> np.ndarray:
    """Level-j projections of (*batch, *[side] * d, n, n) data over boxes,
    each over its box grown by R_j: shape (*batch, *[side + 2 R_j] * d, n, n)."""
    d, n = cal.grid.d, data.shape[-1]
    batch, side = data.shape[:-d - 2], data.shape[-3]
    x = _real_columns(data.reshape(batch + (-1, n, n)))
    grown = side + 2 * _reach(cal.grid, j)
    return _complex_blocks(np.matmul(_projection(cal, j, side), x), n) \
        .reshape(batch + (grown,) * d + (n, n))


# ---------------------------------------------------------------------------
# constructive tent atomization
# ---------------------------------------------------------------------------

def tent_atomize(F: StripField) -> list:
    """Exact constructive atomization of a strip field.

    Scale j is partitioned by the dyadic cubes at level j-1; each restricted
    slice of nonzero size is normalized to saturate the tent size condition
    exactly, so the atoms rebuild the strip.  Round-off debris is left to the
    caller: :func:`_decompose` drops it against ||f||_2.
    """
    grid, pairs = F.grid, []
    for j in range(1, F.j_max + 1):
        cubes = dyadic_cubes_at_level(grid, j - 1)
        # cube axes to the front: blocks[i] is the data over cubes[i]
        blocks = np.moveaxis(cube_blocks(F.level(j), grid, j - 1), range(0, 2 * grid.d, 2),
                             range(grid.d))
        blocks = blocks.reshape((len(cubes),) + blocks.shape[grid.d:])
        sizes = l1l2_sizes(blocks.reshape(len(cubes), -1, F.n, F.n), LOG2 * grid.cell_volume)
        for cube, block, size in zip(cubes, blocks, sizes.tolist()):
            if size != 0.0:
                lam = size * math.sqrt(cube.volume)
                pairs.append((lam, TentAtom(cube=cube, j_lo=j, block=block[None] / lam)))
    return pairs


# ---------------------------------------------------------------------------
# smooth decompositions
# ---------------------------------------------------------------------------

def _normalize_alpha_one(low: np.ndarray, grid: Grid, K: int, alpha: float) -> tuple:
    """Normalize phi0 * f into a single (alpha,1)-style unit-cube atom."""
    cube = DyadicCube(grid, 0, (0,) * grid.d)
    mu = float(np.max(_weighted_sizes(fft_data(low, grid), grid, _derivative_weights(grid, K))))
    if mu == 0.0:
        return 0.0, None
    atom = SmoothAtom(kind="alpha_one", cube=cube, origin=(0,) * grid.d, block=low / mu,
                      alpha=alpha, K=K)
    return mu, atom


@lru_cache(maxsize=4096)
def _subatom_cells(cube: DyadicCube) -> tuple:
    """Level-(level+1) cubes meeting ``cube`` (up to 3 per axis; fewer when
    the wraparound identifies 2m-1 with 2m+1 at coarse levels), built once
    per cube."""
    grid = cube.grid
    lvl = cube.level + 1
    modulus = 1 << lvl
    per_axis = []
    for m in cube.index:
        raw = [(2 * m - 1) % modulus, (2 * m) % modulus, (2 * m + 1) % modulus]
        per_axis.append(sorted(set(raw)))
    return tuple(DyadicCube(grid, lvl, combo) for combo in iproduct(*per_axis))


def _piece_transforms(blocks: list, cubes: list, cells: list,
                      symbol: np.ndarray) -> np.ndarray:
    """Transforms fft_data(symbol * piece) of the restrictions of each
    ``blocks[a]`` (data over ``cubes[a]``) to each of ``cells[a]`` (equally
    many cells per cube), made in one batched call; shape
    (len(cubes), len(cells[0]), *grid.shape, n, n).

    When the cells partition a cube, its transforms sum to that of
    symbol * block.
    """
    grid = cubes[0].grid
    masked = np.zeros((len(cubes), len(cells[0])) + grid.shape + blocks[0].shape[-2:],
                      dtype=np.complex128)
    for a, (block, cube) in enumerate(zip(blocks, cubes)):
        idx = cube.axis_indices()
        for c, cell in enumerate(cells[a]):
            masked[(a, c) + np.ix_(*idx)] = block * cell.box_mask(idx)[..., None, None]
    hats = fft_data(masked, grid)
    hats *= symbol[..., None, None]
    return hats


def _grown_window(grid: Grid, j: int) -> int:
    """Side 3 N 2^-j of a level-(j-1) cube grown by R_j when such boxes
    take the window route (:func:`_windowed`), else 0."""
    side = 3 * (grid.N >> j)
    return side if _windowed(grid, (side,) * grid.d) else 0


def _window_pieces(blocks: list, cubes: list, cells: list, j: int, cal: CalderonSystem,
                   alpha: float, K: int) -> tuple:
    """The window route of :func:`_alpha_q_atoms`: (piece cuts, atom cuts,
    piece derivative sizes (cubes, cells, rows), g Bessel sizes), with no
    full-grid array.

    Each cube grown by R_j = c/2 (c the cell side) is split into the 3^d
    level-j cells that meet it; every piece is projected onto its cell's 2Q
    by one (box x cell) product, and the pieces summed give g on the grown
    cube.  Both hold the kernel's whole reach, so nothing is cut."""
    grid, d = cal.grid, cal.grid.d
    B, n, c, R = len(cubes), blocks[0].shape[-1], grid.N >> j, _reach(grid, j)
    grown = np.zeros((B,) + (3 * c,) * d + (n, n), dtype=np.complex128)
    grown[(slice(None),) + (slice(R, R + 2 * c),) * d] = LOG2 * np.stack(blocks)
    # the cells in C order of their per-axis place 0, 1, 2 in the grown cube
    split = grown.reshape((B,) + (3, c) * d + (n, n)).transpose(
        [0] + list(range(1, 2 * d, 2)) + list(range(2, 2 * d + 1, 2)) + [2 * d + 1, 2 * d + 2])
    pieces = _project_boxes(split.reshape((B, 3**d) + (c,) * d + (n, n)), cal, j)
    # the piece of the cell at place p covers [p c - R, p c + 3 c/2) of the grown cube
    total = np.zeros((B,) + (4 * c,) * d + (n, n), dtype=np.complex128)
    for k, place in enumerate(iproduct(range(3), repeat=d)):
        total[(slice(None),) + tuple(slice(p * c, p * c + 2 * c) for p in place)] += pieces[:, k]
    atoms = total[(slice(None),) + (slice(R, R + 3 * c),) * d]
    sizes = _window_sizes(pieces.reshape((-1,) + pieces.shape[2:]), grid, "derivative", K)
    g_sizes = _window_sizes(atoms, grid, "bessel", alpha)[:, 0]
    # each cube's cells in the order of _subatom_cells, by their place
    origins = cube_boxes(grid, *_cube_arrays(cubes), margin=R)[0]
    levels, indices = _cube_arrays([cell for cube_cells in cells for cell in cube_cells])
    starts, homes = (np.array(cube_boxes(grid, levels, indices, double)[0])
                     for double in (False, True))
    places = (starts.reshape(d, B, -1) - np.array(origins)[:, :, None]) % grid.N // c
    order = np.ravel_multi_index(places, (3,) * d)
    homes = iter(_origins(homes))
    piece_cuts = [(next(homes), pieces[b, k], 0.0)
                  for b, ks in enumerate(order.tolist()) for k in ks]
    atom_cuts = [(origin, atom, 0.0) for origin, atom in zip(_origins(origins), atoms)]
    return piece_cuts, atom_cuts, sizes.reshape(B, 3**d, -1)[np.arange(B)[:, None], order], g_sizes


def _alpha_q_atoms(blocks: list, cubes: list, j: int, cal: CalderonSystem, alpha: float,
                   K: int, L: int) -> list:
    """Package the projections g = log2 Psi_j * block of single-scale tent
    data over same-level ``cubes`` as alpha_q atoms with subatoms.

    The pieces are each block restricted to each subatom cell of its cube,
    projected.  When the cube grown by R_j is windowed (:func:`_grown_window`)
    they are made and sized on their boxes alone (:func:`_window_pieces`).
    Otherwise they are transformed in one batched call on the full grid;
    every size comes from those transforms, in one derivative-size call for
    all pieces and one Bessel-size call for the per-atom sums, which are the
    transforms of the g; one batched inverse transform gives the pieces,
    whose per-atom sum is g, and both are cut to their projected supports.
    Writes each atom normalized so every clause passes with constant 1,
    returning one (rescale, SmoothAtom or None) per cube.
    """
    grid = cal.grid
    cells = [_subatom_cells(cube) for cube in cubes]
    if _grown_window(grid, j):
        piece_cuts, atom_cuts, sizes, g_sizes = _window_pieces(blocks, cubes, cells, j, cal,
                                                               alpha, K)
    else:
        hats = _piece_transforms(blocks, cubes, cells, LOG2 * cal.level(j))
        sizes = _weighted_sizes(hats, grid, _derivative_weights(grid, K))
        g_sizes = _weighted_sizes(np.sum(hats, axis=1), grid, _bessel_weight(grid, alpha))[:, 0]
        pieces = ifft_data(hats, grid)
        piece_cuts = _cut_to_support(pieces.reshape((-1,) + pieces.shape[2:]),
                                     [cell for cube_cells in cells for cell in cube_cells],
                                     _reach(grid, j))
        atom_cuts = _cut_to_support(np.sum(pieces, axis=1), cubes, _reach(grid, j))
    orders = np.array([sum(gamma) for gamma in multi_indices(grid.d, K)], dtype=float)
    # every cell lies one level below its cube, so all share one volume
    d_cs = np.max(sizes / cells[0][0].volume ** (alpha / grid.d - orders / grid.d), axis=-1)
    piece_cuts = iter(piece_cuts)
    out = []
    for cube, cube_cells, cube_d, g_size, atom_cut in zip(cubes, cells, d_cs.tolist(),
                                                          g_sizes.tolist(), atom_cuts):
        rho1 = g_size * math.sqrt(cube.volume)
        sub_pairs = []
        for cell, d_c in zip(cube_cells, cube_d):
            origin, block, leak = next(piece_cuts)
            if d_c == 0.0:
                continue
            sub = SmoothAtom(kind="subatom", cube=cell, origin=origin, block=block / d_c,
                             alpha=alpha, K=K, L=L, support_leak=leak)
            sub_pairs.append((d_c, sub))
        # saturation against the atom-level clauses
        rho2 = math.sqrt(sum(d * d for d, _ in sub_pairs)) * math.sqrt(cube.volume)
        rho = max(rho1, rho2)
        if rho <= 1e-250:
            out.append((0.0, None))
            continue
        origin, block, leak = atom_cut
        out.append((rho, SmoothAtom(kind="alpha_q", cube=cube, origin=origin, block=block / rho,
                                    alpha=alpha, K=K, L=L,
                                    subatoms=[(d / rho, s) for d, s in sub_pairs],
                                    support_leak=leak)))
    return out


def _n_pow(alpha: float, L: int) -> int:
    """Default stencil order of the reproducing system for (alpha, L) atoms:
    the least even integer >= max(2, L + 1, ceil(alpha))."""
    return max(2, 2 * ((L + 2) // 2), 2 * ((int(math.ceil(alpha)) + 1) // 2))


def _decompose(f: OperatorField, alpha: Optional[float], K: int, L: int,
               high_atoms) -> AtomicDecomposition:
    """Body of the smooth decompositions at p = 1; ``alpha`` None is the local
    Hardy space, the alpha = 0, L = -1 case whose strip weights 4^0 = 1 are
    exact.

    Split f = phi0*f + sum_j Psi_j*(Psi_j*f): the low part becomes one
    smooth unit-cube atom, the strip part weighted by 2^(j alpha) is
    tent-atomized, and ``high_atoms(tent_pairs, cal)`` packages the tent atoms
    as (coefficient, atom) pairs, dropped where the atom is None.  Tent
    atoms whose coefficient is round-off debris against ||f||_2 (e.g.
    annulus kernels applied to the mean mode) are dropped first, the one
    debris rule of the decomposition.  K and L
    below :func:`required_k_floor` and :func:`required_l_floor` are a
    ParameterError, for h1 (K >= 1) as for the smoothness-alpha space.
    f is scaled by 2^-e into max |f| in [1/2, 1) (``pow2_exponent``) and the
    coefficients by 2^e back: atoms, residual and mass ratio ignore the scale.
    """
    e = f.pow2_exponent()
    f = OperatorField(f.grid, f.data * np.ldexp(1.0, -e))
    grid = f.grid
    weight = 0.0 if alpha is None else alpha
    if K < required_k_floor(weight):
        raise ParameterError(f"K must be >= {required_k_floor(weight)} for alpha={weight}")
    if L < required_l_floor(weight):
        raise ParameterError(f"L must be >= {required_l_floor(weight)} for alpha={weight}")
    cal = calderon_resolution(grid, n_pow=_n_pow(weight, L))
    energy = float(np.sum(np.abs(f.data) ** 2))
    fhat = fft_data(f.data, grid)
    F = StripField(grid, np.stack(
        [4.0 ** (j * weight / 2.0) * apply_symbol_hat(cal.level(j), fhat, grid)
         for j in range(1, cal.j_max + 1)]))
    floor = 1e-14 * math.sqrt(energy * grid.cell_volume)
    tent_pairs = [(lam, t) for lam, t in tent_atomize(F) if abs(lam) > floor]
    low = apply_symbol_hat(cal.phi0_values, fhat, grid)
    mu, low_atom = _normalize_alpha_one(low, grid, K, alpha=weight)
    high_pairs = [(c, atom) for c, atom in high_atoms(tent_pairs, cal) if atom is not None]
    dec = AtomicDecomposition(
        grid=grid, n=f.n, alpha=alpha,
        low_pairs=[] if low_atom is None else [(mu, low_atom)], high_pairs=high_pairs,
        residual=0.0, mass_ratio=None,
    )
    rec = dec.reconstruct()
    denom = math.sqrt(energy)
    dev = math.sqrt(float(np.sum(np.abs(rec.data - f.data) ** 2)))
    dec.residual = dev / denom if denom > 0 else dev
    if denom > 0:
        fam = make_lp_family(grid)
        if alpha is None:
            source_norm = hardy_norm(f, 1.0, fam).value
        else:
            source_norm = tl_norm_column(f, alpha, 1.0, fam).value
        dec.mass_ratio = dec.mass / source_norm if source_norm > 0 else None
    if e:
        dec.low_pairs, dec.high_pairs = ([(float(np.ldexp(c, e)), atom) for c, atom in pairs]
                                         for pairs in (dec.low_pairs, dec.high_pairs))
    return dec


def smooth_decompose_h1(f: OperatorField, K: int = 1) -> AtomicDecomposition:
    """Smooth atomic decomposition of the local Hardy space at p = 1.

    The low part of f becomes one smooth unit-cube atom; each tent atom of
    the strip part is projected to a mean-zero smooth atom supported in 2Q
    and stored on its projected support, Q grown by the kernel's reach.
    """
    def high_atoms(tent_pairs, cal):
        # one level (scale) at a time, in chunks of at most CHUNK_BYTES of
        # projections, each over its window or over the full grid
        for j, run in groupby(tent_pairs, key=lambda pair: pair[1].j_lo):
            _check_mean_zero_levels(cal, [j])
            side, reach = _grown_window(f.grid, j), _reach(f.grid, j)
            for chunk in _chunks(list(run), _block_bytes((side or f.grid.N) ** f.grid.d, f.n)):
                cubes = [atom.cube for _, atom in chunk]
                blocks = [atom.block[0] for _, atom in chunk]
                if side:
                    origins = _origins(cube_boxes(f.grid, *_cube_arrays(cubes), margin=reach)[0])
                    cuts = [(origin, LOG2 * block, 0.0) for origin, block
                            in zip(origins, _project_boxes(np.stack(blocks), cal, j))]
                else:
                    hats = _piece_transforms(blocks, cubes, [[cube] for cube in cubes],
                                             cal.level(j))
                    cuts = _cut_to_support(LOG2 * ifft_data(hats, f.grid)[:, 0], cubes, reach)
                sizes = l1l2_sizes(np.stack([block for _, block, _ in cuts])
                                   .reshape(len(chunk), -1, f.n, f.n), f.grid.cell_volume)
                for (lam, atom), (origin, block, leak), size in zip(chunk, cuts, sizes.tolist()):
                    rho = size / atom.cube.volume**-0.5
                    yield (0.0, None) if rho <= 1e-250 else (lam * rho / LOG2, HAtom(
                        cube=atom.cube, block=block / rho, double_support=True, origin=origin,
                        support_leak=leak))

    return _decompose(f, None, K, -1, high_atoms)


def required_k_floor(alpha: float) -> int:
    return max(int(math.floor(alpha)) + 1, 0)


def required_l_floor(alpha: float) -> int:
    # at alpha = 0 exactly, L = -1 is admitted (h1-compatible degeneration:
    # the projected atoms carry exact zero mean by construction)
    if alpha == 0.0:
        return -1
    return max(int(math.floor(-alpha)), -1)


def smooth_decompose_tl(f: OperatorField, alpha: float, K: int, L: int) -> AtomicDecomposition:
    """Smooth atomic decomposition of the smoothness-alpha space at p = 1,
    with (alpha,1)-atoms for the low part and (alpha,Q)-atoms with subatom
    trees for the strip part."""

    def high_atoms(tent_pairs, cal):
        # one level (scale) at a time, in chunks of at most CHUNK_BYTES of
        # pieces, each over its cell's 2Q or over the full grid
        for j, run in groupby(tent_pairs, key=lambda pair: pair[1].j_lo):
            run = list(run)
            cells = len(_subatom_cells(run[0][1].cube))
            points = (2 * (f.grid.N >> j) if _grown_window(f.grid, j) else f.grid.N) ** f.grid.d
            for chunk in _chunks(run, cells * _block_bytes(points, f.n)):
                packed = _alpha_q_atoms([atom.block[0] * 2.0 ** (-j * alpha) for _, atom in chunk],
                                        [atom.cube for _, atom in chunk], j, cal, alpha, K, L)
                for (lam, _), (rho, atom) in zip(chunk, packed):
                    yield lam / LOG2 * rho, atom

    return _decompose(f, alpha, K, L, high_atoms)


# ---------------------------------------------------------------------------
# pointwise multipliers
# ---------------------------------------------------------------------------

def pointwise_multiply_test(h: OperatorField, f: OperatorField, alpha: float,
                            family: LPFamily) -> dict:
    """Measure ||h f||_{F1^alpha} / ||f||_{F1^alpha} against the derivative
    bound sum_{|gamma|_1 <= 2} sup_s ||D^gamma h(s)||_op, with margin 10."""
    grid = f.grid
    hf = OperatorField(grid, h.data @ f.data)
    num = tl_norm_column(hf, alpha, 1.0, family).value
    den = tl_norm_column(f, alpha, 1.0, family).value
    ratio = num / den if den > 0 else 0.0
    bound = 0.0
    hhat = fft_data(h.data, grid)
    for gamma in multi_indices(grid.d, 2):
        dg = apply_symbol_hat(multi_derivative_symbol(grid, gamma).values, hhat, grid)
        bound += trace_lp_norm(OperatorField(grid, dg), np.inf)
    return {
        "ratio": ratio,
        "derivative_bound": bound,
        "passed": bool(ratio <= 10.0 * bound),
        "alpha": alpha,
    }
