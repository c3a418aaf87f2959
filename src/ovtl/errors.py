"""Exception types shared across the library."""


class OvtlError(Exception):
    """Base class for library errors."""


class ResolutionError(OvtlError):
    """A requested scale, cube or dilate is too fine for the grid."""


class GridMismatchError(OvtlError):
    """Operands live on different grids (or different matrix dimensions)."""


class HypothesisError(OvtlError):
    """A theorem hypothesis (support/shape condition) fails, so the
    corresponding bound is not claimed."""


class ConfigError(OvtlError):
    """A configuration file holds a value the program does not accept."""


class FormatError(OvtlError, ValueError):
    """A field file, manifest or blob is truncated, corrupted or does not
    match the grid it claims (a ValueError too, for callers that catch that)."""


class ParameterError(OvtlError, ValueError):
    """A grid size, index or atom order lies outside the range the program
    accepts (a ValueError too, for callers that catch that)."""


class ValidationError(OvtlError):
    """Numerical input violates a structural contract (e.g. a matrix that
    should be Hermitian PSD is not, beyond tolerance)."""
