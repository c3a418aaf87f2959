import math

import numpy as np
import pytest

from ovtl.errors import ResolutionError
from ovtl.lattice import (
    Grid,
    DyadicCube,
    box_indices,
    cone_index,
    cube_blocks,
    cube_means,
    dyadic_cubes_at_level,
    wrap_half,
)
from ovtl.opfield import as_blocks
from helpers import ball_measure, block_means, side_cells, subcube_order


def test_wrap_half_is_half_open():
    # 1/2 and -1/2 both land on -1/2, the lower end of a centered cube's cell
    delta = np.array([0.5, -0.5, 1.5, 0.25, -0.75, 0.0, 2.0])
    assert wrap_half(delta).tolist() == [-0.5, -0.5, -0.5, 0.25, 0.25, 0.0, 0.0]
    g = Grid(1, 16)
    assert g.signed_coords_about([0.5])[:, 0].tolist() == [k / 16 - 0.5 for k in range(16)]


def test_grid_invariants():
    g = Grid(1, 64)
    assert g.h == 1.0 / 64
    assert g.cell_volume == 1.0 / 64
    with pytest.raises(ValueError):
        Grid(1, 48)  # not a power of two
    with pytest.raises(ValueError):
        Grid(1, 8)  # too small
    with pytest.raises(ValueError):
        Grid(4, 64)  # unsupported dimension


def test_frequency_lattice_range():
    g = Grid(1, 32)
    freqs = np.sort(g.freq_axis)
    assert freqs[0] == -16 and freqs[-1] == 15
    assert len(freqs) == 32


def test_cubes_level0_whole_torus():
    g = Grid(1, 16)
    cubes = dyadic_cubes_at_level(g, 0)
    assert len(cubes) == 1
    assert cubes[0].mask().sum() == 16


def test_cubes_d2_level1():
    g = Grid(2, 32)
    cubes = dyadic_cubes_at_level(g, 1)
    assert len(cubes) == 4
    assert all(side_cells(c) * g.h == 0.5 for c in cubes)
    assert all(side_cells(c) ** 2 == 256 for c in cubes)
    assert all(int(c.mask().sum()) == 256 for c in cubes)


def test_level_too_fine_errors():
    g = Grid(1, 16)
    with pytest.raises(ResolutionError):
        dyadic_cubes_at_level(g, 4)  # side 1/16 < 2h = 1/8


@pytest.mark.parametrize("d,N", [(1, 64), (2, 16)])
def test_tiling(d, N):
    g = Grid(d, N)
    for level in range(0, g.max_cube_level + 1):
        cubes = dyadic_cubes_at_level(g, level)
        total = sum(int(c.mask().sum()) for c in cubes)
        assert total == g.N**g.d
        # covers every point exactly once
        acc = np.zeros(g.shape, dtype=int)
        for c in cubes:
            acc += c.mask().astype(int)
        assert acc.min() == 1 and acc.max() == 1


def test_subcube_order_trivial_cases():
    g = Grid(1, 64)
    assert subcube_order(DyadicCube(g, 1, (0,)), DyadicCube(g, 0, (0,)))
    assert not subcube_order(DyadicCube(g, 0, (0,)), DyadicCube(g, 1, (0,)))


def brute_force_subcube(g, a, b):
    """Independent interval-inclusion oracle via point membership."""
    if a.level < b.level:
        return False
    return bool(np.all(b.mask(double=True)[a.mask()]))


def test_subcube_order_interval_oracle():
    g = Grid(1, 64)
    a, b = DyadicCube(g, 2, (3,)), DyadicCube(g, 1, (1,))
    assert subcube_order(a, b) == brute_force_subcube(g, a, b)
    rng = np.random.default_rng(0)
    for _ in range(200):
        la, lb = rng.integers(0, 4, size=2)
        a = DyadicCube(g, int(la), (int(rng.integers(0, 2**la)),))
        b = DyadicCube(g, int(lb), (int(rng.integers(0, 2**lb)),))
        assert subcube_order(a, b) == brute_force_subcube(g, a, b)


def test_subcube_order_reflexive_and_transitive_sampled():
    g = Grid(2, 32)
    rng = np.random.default_rng(1)
    cubes = []
    for _ in range(32):
        lv = int(rng.integers(0, 4))
        cubes.append(DyadicCube(g, lv, tuple(int(x) for x in rng.integers(0, 2**lv, 2))))
    for c in cubes:
        assert subcube_order(c, c)
    for a in cubes:
        for b in cubes:
            if not subcube_order(a, b):
                continue
            for c in cubes:
                if subcube_order(b, c):
                    assert subcube_order(a, c)


# every cube of the grid at levels up to max_level (all levels when None)
_PLACEMENT_GRIDS = [(1, 64, None), (2, 16, None), (3, 16, 2)]


def _levels(g, max_level):
    return range((g.max_cube_level if max_level is None else max_level) + 1)


def _all_cubes(g, max_level):
    return [c for level in _levels(g, max_level) for c in dyadic_cubes_at_level(g, level)]


@pytest.mark.parametrize("d,N,max_level", _PLACEMENT_GRIDS)
def test_subcube_order_matches_membership_on_every_pair(d, N, max_level):
    g = Grid(d, N)
    cubes = _all_cubes(g, max_level)
    for a in cubes:
        for b in cubes:
            assert subcube_order(a, b) == brute_force_subcube(g, a, b), (a, b)


@pytest.mark.parametrize("d,N,max_level", _PLACEMENT_GRIDS)
def test_cube_blocks_follow_axis_indices(d, N, max_level):
    # block i of a level is the data over cube i of dyadic_cubes_at_level, in
    # the order of axis_indices: the coupling tent_atomize relies on
    g = Grid(d, N)
    data = np.random.default_rng(d).normal(size=g.shape + (2,))
    for level in _levels(g, max_level):
        cubes = dyadic_cubes_at_level(g, level)
        blocks = np.moveaxis(cube_blocks(data, g, level), range(0, 2 * d, 2), range(d))
        blocks = blocks.reshape((len(cubes),) + blocks.shape[d:])
        for block, cube in zip(blocks, cubes):
            assert np.array_equal(block, data[np.ix_(*cube.axis_indices())])


MEAN_GRIDS = [Grid(1, 64), Grid(2, 32), Grid(3, 16)]


@pytest.mark.parametrize("grid", MEAN_GRIDS, ids=lambda g: f"d{g.d}-N{g.N}")
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cube_mean_pyramid_matches_rolled_blocks(grid, n):
    # every level's means from the pair-sum pyramid against the means of that
    # level's rolled blocks, to round-off of the field's size
    rng = np.random.default_rng(2100 + 10 * grid.d + n)
    planes = rng.normal(size=(n, n) + grid.shape) + 1j * rng.normal(size=(n, n) + grid.shape)
    levels = range(grid.max_cube_level + 1)
    means, scale = cube_means(planes, grid, levels), np.max(np.abs(planes))
    for level in levels:
        ref = block_means(planes, grid, level)
        assert as_blocks(means[level]).shape == ref.shape
        assert np.max(np.abs(as_blocks(means[level]) - ref)) <= 1e-14 * scale, level


@pytest.mark.parametrize("grid", MEAN_GRIDS, ids=lambda g: f"d{g.d}-N{g.N}")
def test_cube_means_of_a_field_on_one_wraparound_cube(grid):
    # the cube with index 0 spans [-side/2, side/2) on every axis, across the
    # seam of the torus: the field A on it has mean A there and 0 on every
    # other cube of its level (cubes from index 0, nested, would split it)
    A = np.array([[2.0, 1.0j], [-1.0j, 0.5]])
    for level in range(1, grid.max_cube_level + 1):
        planes = A.reshape((2, 2) + (1,) * grid.d) * DyadicCube(grid, level, (0,) * grid.d).mask()
        expect = np.zeros((1 << level,) * grid.d + (2, 2), dtype=complex)
        expect[(0,) * grid.d] = A
        means = as_blocks(cube_means(planes, grid, (level,))[level])
        assert np.array_equal(means, expect), level
        assert np.array_equal(block_means(planes, grid, level), expect), level


@pytest.mark.parametrize("d,N,max_level", _PLACEMENT_GRIDS)
def test_box_placement_and_masks(d, N, max_level):
    g = Grid(d, N)
    assert DyadicCube(g, 0, (0,) * d).box() == ((N // 2,) * d, N)
    for cube in _all_cubes(g, max_level):
        for double in (False, True):
            origin, side = cube.box(double)
            if double and 2 * side_cells(cube) >= N:
                assert (origin, side) == ((0,) * d, N)
            points = np.zeros(g.shape, dtype=bool)
            points[np.ix_(*box_indices(g, origin, (side,) * d))] = True
            assert np.array_equal(cube.mask(double), points)


def test_cone_counts_match_lattice_oracle():
    g = Grid(1, 64)
    ci = cone_index(g, 3)
    # |t| < 1/8 at h = 1/64: offsets -7..7
    assert ci.offsets[3].shape[0] == 15
    assert ci.offsets[1].shape[0] == 63
    for j in (1, 2, 3):
        radius = 64 / 2**j
        count = sum(1 for m in range(-64, 65) if m * m < radius**2)
        assert ci.offsets[j].shape[0] == count


def test_cone_ball_monotone_and_ratio():
    g = Grid(2, 32)
    ci = cone_index(g, 3)
    sets = {j: {tuple(x) for x in ci.offsets[j]} for j in ci.offsets}
    assert sets[3] <= sets[2] <= sets[1]
    for j in ci.offsets:
        ratio = ball_measure(ci, j) / (math.pi * 2.0 ** (-j * g.d))
        assert 0.3 < ratio < 2.0  # discrete-to-continuum ball volume factor


def test_cone_too_fine_errors():
    g = Grid(1, 64)
    with pytest.raises(ResolutionError):
        cone_index(g, 6)  # 2^-6 = h < 2h
    ci = cone_index(g, 5)
    assert ci.offsets[5].shape[0] >= 1
