"""Operator-valued Littlewood-Paley / Triebel-Lizorkin toolkit on periodic lattices."""

from .lattice import Grid, DyadicCube, ConeIndex, dyadic_cubes_at_level, cone_index
from .opfield import (
    OperatorField,
    StripField,
    PSDAccumulator,
    trace_lp_norm,
)
from .spectral import (
    Symbol,
    LPFamily,
    apply_symbol,
    make_lp_family,
    make_hom_lp_family,
    bessel_symbol,
    riesz_symbol,
    derivative_symbol,
    poisson_symbol,
    poisson_dk_symbol,
)

__version__ = "0.1.0"
