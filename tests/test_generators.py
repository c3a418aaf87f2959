"""The random field and its spectrum: one draw, two sides of one transform."""

import numpy as np
import pytest

from ovtl.cli import main
from ovtl.fieldio import write_field
from ovtl.generators import band_limited_random, band_limited_spectrum
from ovtl.lattice import Grid
from ovtl.spectral import fft_data, ifft_data, lp_family_j_max
from helpers import band_limited_field_reference

GRIDS = [Grid(1, 64), Grid(2, 32), Grid(3, 16)]
# (r_min, r_max): the default band |xi| <= N/4, an annulus, a band past N/4
BANDS = {"default": (0.0, None), "annulus": (2.0, 5.5), "past-quarter": (0.0, 20.0)}


def _band(grid, r_max):
    return int(r_max) if r_max is not None else 2 ** lp_family_j_max(grid)


@pytest.mark.parametrize("band", BANDS.values(), ids=BANDS.keys())
@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"d{g.d}-N{g.N}")
def test_field_is_the_inverse_transform_of_the_spectrum(grid, band):
    for n in (1, 2, 4):
        field = band_limited_random(grid, n, 30 + n, *band).data
        spectrum = band_limited_spectrum(grid, n, 30 + n, *band)
        assert field.tobytes() == ifft_data(spectrum.copy(), grid, _band(grid, band[1])).tobytes()
        assert field.tobytes() == band_limited_field_reference(grid, n, 30 + n, *band).data.tobytes()
        err = np.max(np.abs(fft_data(field, grid) - spectrum))
        assert err <= 1e-15 * np.max(np.abs(spectrum))


@pytest.mark.parametrize("band", BANDS.values(), ids=BANDS.keys())
@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"d{g.d}-N{g.N}")
def test_spectrum_vanishes_off_its_band(grid, band):
    r_min, r_max = band
    r_max = float(_band(grid, r_max)) if r_max is None else r_max
    mask = (grid.freq_norm >= r_min) & (grid.freq_norm <= r_max)
    for n in (1, 2, 4):
        spectrum = band_limited_spectrum(grid, n, 40 + n, *band)
        assert spectrum.shape == grid.shape + (n, n)
        assert not np.any(spectrum[~mask])
        assert np.all(spectrum[mask] != 0)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"d{g.d}-N{g.N}")
def test_gen_writes_the_reference_field(tmp_path, grid):
    for n in (1, 2, 4):
        out, ref = tmp_path / f"gen{n}.ovtl", tmp_path / f"ref{n}.ovtl"
        assert main(["--dim", str(grid.d), "--grid", str(grid.N), "--matrix", str(n),
                     "--seed", "9", "gen", "--kind", "band-limited-random", str(out)]) == 0
        write_field(ref, band_limited_field_reference(grid, n, 9))
        assert out.read_bytes() == ref.read_bytes()
