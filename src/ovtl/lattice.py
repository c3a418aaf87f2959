"""Discretization of the periodic unit cube as an N-per-axis lattice.

The torus has volume 1, spatial spacing h = 1/N, and the frequency lattice
is the set of integer vectors in [-N/2, N/2)^d.  Dyadic cubes follow the
centered convention: the cube at level ``mu`` with index ``l`` is centered
at 2^-mu * l and has side length 2^-mu, with half-open membership per axis
and periodic wraparound.  Truncated-cone index sets collect, per dyadic
scale 2^-j, the lattice offsets strictly inside the Euclidean ball of
radius 2^-j.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import ParameterError, ResolutionError


def wrap_half(delta: np.ndarray) -> np.ndarray:
    """Periodic offsets wrapped to a centered cube's half-open [-1/2, 1/2): 1/2 goes to -1/2."""
    return delta - np.floor(delta + 0.5)


@dataclass(frozen=True)
class Grid:
    """Periodic lattice on [0,1)^d with N points per axis (N a power of two)."""

    d: int
    N: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ParameterError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.N < 16 or (self.N & (self.N - 1)) != 0:
            raise ParameterError(f"N must be a power of two >= 16, got {self.N}")

    @property
    def h(self) -> float:
        return 1.0 / self.N

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.d

    @property
    def spatial_axes(self) -> tuple[int, ...]:
        return tuple(range(self.d))

    @property
    def max_cube_level(self) -> int:
        # finest level whose cubes still contain >= 2 lattice points per axis
        return self.N.bit_length() - 2

    @cached_property
    def freq_axis(self) -> np.ndarray:
        """Integer frequencies along one axis in FFT storage order."""
        return np.fft.fftfreq(self.N, d=1.0 / self.N)

    @cached_property
    def freqs(self) -> np.ndarray:
        """Frequency vectors, shape (*shape, d)."""
        axes = np.meshgrid(*([self.freq_axis] * self.d), indexing="ij")
        return np.stack(axes, axis=-1)

    @cached_property
    def freq_norm(self) -> np.ndarray:
        """Euclidean norm |xi| of each lattice frequency, shape ``shape``."""
        return np.sqrt(np.sum(self.freqs**2, axis=-1))

    @cached_property
    def coords(self) -> np.ndarray:
        """Spatial coordinates in [0,1)^d in storage order, shape (*shape, d)."""
        axis = np.arange(self.N) * self.h
        axes = np.meshgrid(*([axis] * self.d), indexing="ij")
        return np.stack(axes, axis=-1)

    def signed_coords_about(self, center: np.ndarray) -> np.ndarray:
        """Signed periodic coordinates s - center wrapped to [-1/2, 1/2)^d."""
        return wrap_half(self.coords - np.asarray(center, dtype=float))


@dataclass(frozen=True)
class DyadicCube:
    """Dyadic cube Q at ``level`` with integer index ``index`` (mod 2^level).

    Center 2^-level * index, side length 2^-level, half-open per axis,
    periodic wraparound on the torus.
    """

    grid: Grid
    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("cube level must be nonnegative")
        if len(self.index) != self.grid.d:
            raise ValueError("cube index dimension mismatch")
        if self.grid.N >> self.level < 2:
            raise ResolutionError(
                f"cube side 2^-{self.level} below two lattice cells (N={self.grid.N})"
            )
        object.__setattr__(
            self, "index", tuple(i % (1 << self.level) for i in self.index)
        )

    @property
    def volume(self) -> float:
        return 2.0 ** (-self.level * self.grid.d)

    def box(self, double: bool = False) -> tuple[tuple[int, ...], int]:
        """(per-axis start index, side in cells) of Q, or of 2Q when
        ``double``; see :func:`cube_boxes`."""
        starts, side = cube_boxes(self.grid, self.level, self.index, double)
        return tuple(starts), side

    def axis_indices(self) -> list[np.ndarray]:
        """Per-axis lattice indices of the points of Q."""
        origin, side = self.box()
        return box_indices(self.grid, origin, (side,) * self.grid.d)

    def box_mask(self, axis_idx, double: bool = False) -> np.ndarray:
        """Membership in Q (in 2Q when ``double``) of the lattice points whose
        per-axis indices are ``axis_idx``; half-open per axis, periodic."""
        return in_boxes(self.grid, *cube_boxes(self.grid, self.level, self.index, double),
                        axis_idx)

    def mask(self, double: bool = False) -> np.ndarray:
        """Membership mask of Q (2Q when ``double``) over the grid."""
        return self.box_mask([np.arange(self.grid.N)] * self.grid.d, double)


def cube_boxes(grid: Grid, levels, index, double=False, margin=0) -> tuple:
    """(per-axis start indices, sides in cells) of the cubes at ``levels``
    with per-axis indices ``index``, each grown by ``margin`` cells on every
    side, or by half its side where ``double`` holds (2Q).  A grown box is
    the whole torus, from index 0, once its side reaches N.  A level-0 Q
    starts at N/2.

    The one box formula: :meth:`DyadicCube.box` and :meth:`DyadicCube.box_mask`
    are this function on one cube's python ints; on (B,) arrays of levels,
    flags and per-axis indices it places B cubes at once (:func:`subcube_orders`,
    the atom stores).  Flags select by integer arithmetic, which both take."""
    N = grid.N
    side = N >> levels
    margin = double * (side // 2) + (1 - double) * margin
    span = side + 2 * margin
    torus = (margin != 0) & (span >= N)
    starts = [(i * side - side // 2 - margin) % N * (1 - torus) for i in index]
    return starts, span + (N - span) * torus


def outer_axes(per_axis) -> list[np.ndarray]:
    """The d per-axis arrays (..., s_ax) reshaped to broadcast together to
    (..., s_0, ..., s_{d-1}): np.ix_ for each leading index."""
    d = len(per_axis)
    return [np.reshape(a, np.shape(a)[:-1] + (1,) * ax + (-1,) + (1,) * (d - ax - 1))
            for ax, a in enumerate(per_axis)]


def box_indices(grid: Grid, origin, sides) -> list[np.ndarray]:
    """Per-axis lattice indices of the periodic box starting at ``origin``;
    an entry of ``origin`` may be an array (...), giving indices (..., side)."""
    return [(np.asarray(o)[..., None] + np.arange(s)) % grid.N for o, s in zip(origin, sides)]


def in_boxes(grid: Grid, starts, sides, axis_idx) -> np.ndarray:
    """Membership in the periodic boxes with per-axis ``starts`` (each a
    scalar or (B,)) and ``sides`` (scalar or (B,)) of the lattice points
    whose per-axis indices are ``axis_idx[ax]`` ((s_ax,) or (B, s_ax));
    shape ([B,] s_0, ..., s_{d-1}), half-open per axis."""
    sides = np.asarray(sides)[..., None]
    return reduce(np.logical_and, outer_axes(
        [(np.asarray(idx) - np.asarray(start)[..., None]) % grid.N < sides
         for start, idx in zip(starts, axis_idx)]))


def periodic_block_sum(grid: Grid, terms, tail: tuple) -> np.ndarray:
    """sum_k c_k B_k on the grid, for terms (c_k, origin_k, B_k): block B_k
    covers the periodic box of side <= N per axis starting at origin_k < N,
    with trailing axes ``tail``.

    Each block is added through basic slices into a buffer of 2N cells per
    axis, which is folded onto the torus once at the end.
    """
    N, d = grid.N, grid.d
    buf = np.zeros((2 * N,) * d + tuple(tail), dtype=np.complex128)
    for c, origin, block in terms:
        buf[tuple([slice(o, o + s) for o, s in zip(origin, block.shape)])] += c * block
    for ax in range(d):
        lead = (slice(None),) * ax
        buf = buf[lead + (slice(0, N),)] + buf[lead + (slice(N, 2 * N),)]
    return buf


def cube_stack(data: np.ndarray, grid: Grid, level: int) -> np.ndarray:
    """(*grid.shape, ...) data gathered by dyadic cube in one contiguous copy:
    entry [i, b_1, ..., b_d] is point b of cube i of
    :func:`dyadic_cubes_at_level` at ``level`` (wraparound cubes included).

    Along an axis, cube l is the half-side blocks 2l - 1 (mod 2^(level+1))
    and 2l, as in :func:`cube_means`: its second half is block 2l, its first
    half block 2l - 1 for l >= 1 and the last block for l = 0.  Those three
    basic-slice pieces per axis are copied straight into place.
    """
    d, count, half = grid.d, 1 << level, grid.N >> (level + 1)
    tail = data.shape[d:]
    out = np.empty((count**d,) + (2 * half,) * d + tail, dtype=data.dtype)
    dst = out.reshape((count,) * d + (2, half) * d + tail)
    src = data.reshape((count, 2, half) * d + tail)  # [l_1, t_1, c_1, ...]: block 2l + t
    src = src.transpose([3 * k for k in range(d)] + [3 * k + t for k in range(d) for t in (1, 2)]
                        + list(range(3 * d, src.ndim)))
    for to, of in _cube_pieces(d):
        np.copyto(dst[to], src[of])
    return out


@lru_cache(maxsize=None)
def _cube_pieces(d: int) -> tuple:
    """The 3^d (destination, source) index pairs of :func:`cube_stack`: per
    axis a cube slice and a half index, cube axes first."""
    axis = (((slice(None), 1), (slice(None), 0)),  # second halves: block 2l
            ((slice(1, None), 0), (slice(None, -1), 1)),  # first halves: block 2l - 1
            ((slice(0, 1), 0), (slice(-1, None), 1)))  # cube 0's first half wraps
    pieces = []
    for combo in itertools.product(axis, repeat=d):
        pieces.append(tuple(tuple(pick[0] for pick in side)
                            + tuple(x for pick in side for x in (pick[1], slice(None)))
                            for side in zip(*combo)))
    return tuple(pieces)


def cube_means(data: np.ndarray, grid: Grid, levels) -> dict:
    """Means of (..., *grid.shape) data over the dyadic cubes at each of
    ``levels``, by level: entry [..., l_1, ..., l_d] of the level's
    (..., *(2^level,)*d) array is the mean over the cube with index l.

    Along an axis, level-L cube l is the half-side blocks 2l - 1 and 2l
    (mod 2^(L+1)); those blocks start at index 0, so they nest.  One
    pyramid of pair sums H_m over 2^m blocks per axis runs down from
    H_(log2 N) = data, and level L is the wrapped pair sums of H_(L+1):
    no roll, and no step allocates more than half its input.
    """
    m, sums, means = grid.N.bit_length() - 1, data, {}
    for level in sorted(set(levels), reverse=True):
        while m > level + 1:
            sums, m = _pair_sums(sums, grid.d, wrapped=False), m - 1
        means[level] = _pair_sums(sums, grid.d, wrapped=True)
        means[level] *= 1.0 / (grid.N >> level) ** grid.d
    return means


def _pair_sums(x: np.ndarray, d: int, wrapped: bool) -> np.ndarray:
    """Sums of the entries 2i and 2i + 1 (with ``wrapped``, 2i - 1 mod the
    length and 2i) along each of the d trailing axes of ``x``, leading axis
    first, in a new array with those axes halved."""
    for axis in range(-d, 0):
        def at(start, stop=None, step=None):  # a basic slice of this axis: a view
            return (..., slice(start, stop, step)) + (slice(None),) * (-1 - axis)

        if wrapped:
            out = np.empty_like(x[at(0, None, 2)])
            np.add(x[at(1, -1, 2)], x[at(2, None, 2)], out=out[at(1)])
            np.add(x[at(-1)], x[at(0, 1)], out=out[at(0, 1)])
        else:
            out = x[at(0, None, 2)] + x[at(1, None, 2)]
        x = out
    return x


def dyadic_cubes_at_level(grid: Grid, level: int) -> list[DyadicCube]:
    """All 2^(level*d) cubes tiling the torus at the given level."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    if grid.N >> level < 2:
        raise ResolutionError(
            f"level {level} too fine: side 2^-{level} < 2h for N={grid.N}"
        )
    return [DyadicCube(grid, level, idx)
            for idx in itertools.product(range(1 << level), repeat=grid.d)]


def subcube_orders(grid: Grid, levels_a, index_a, levels_b, index_b):
    """Partial order (mu,l) <= (mu',l'): mu >= mu' and Q_{mu,l} inside 2Q_{mu',l'},
    of the cubes (levels_a, index_a) against the cubes (levels_b, index_b),
    pair by pair, scalars or (B,) arrays as in :func:`cube_boxes`.  Per axis,
    with periodic wraparound, Q's box starts at most side(2Q') - side(Q)
    cells past the start of 2Q'."""
    (start_a, side_a), (start_b, side_b) = (cube_boxes(grid, levels_a, index_a),
                                            cube_boxes(grid, levels_b, index_b, double=True))
    within = reduce(operator.and_, [(sa - sb) % grid.N + side_a <= side_b
                                    for sa, sb in zip(start_a, start_b)])
    return (levels_a >= levels_b) & ((side_b == grid.N) | within)


@dataclass(frozen=True)
class ConeIndex:
    """Offsets of the truncated cone |t| < 2^-j < 1 per dyadic scale.

    ``offsets[j]`` holds integer lattice offsets m (shape (count, d)) with
    |m * h| < 2^-j, for 1 <= j <= j_max.
    """

    grid: Grid
    j_max: int
    offsets: dict[int, np.ndarray]
    _ball_ffts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def ball_fft(self, j: int) -> np.ndarray:
        """conj(DFT) of the indicator of B_j: the circular correlation
        sum_{t in B_j} P(s + t) has transform P^ times this.  Built once per
        scale, when first asked for, and kept with the cone."""
        if j not in self._ball_ffts:
            ind = np.zeros(self.grid.shape)
            ind[tuple((self.offsets[j] % self.grid.N).T)] = 1.0
            self._ball_ffts[j] = np.conj(np.fft.fftn(ind))
        return self._ball_ffts[j]


def cone_index(grid: Grid, j_max: int) -> ConeIndex:
    """Build the truncated-cone index for scales 1 <= j <= j_max."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    if grid.N >> j_max < 2:
        raise ResolutionError(
            f"scale 2^-{j_max} < 2h: cone not resolvable on N={grid.N}"
        )
    offsets = {}
    for j in range(1, j_max + 1):
        radius_cells = grid.N / 2**j  # |m| < radius_cells
        r_int = int(math.ceil(radius_cells)) - 1
        ax = np.arange(-r_int, r_int + 1)
        mesh = np.meshgrid(*([ax] * grid.d), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        keep = np.sum(pts.astype(float) ** 2, axis=-1) < radius_cells**2
        offsets[j] = pts[keep]
    return ConeIndex(grid=grid, j_max=j_max, offsets=offsets)
