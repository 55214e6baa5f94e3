"""Typed exceptions shared across the package."""


class TautVerifyError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(TautVerifyError):
    """Matrix or vector dimensions do not match."""


class SpaceMismatchError(TautVerifyError):
    """Classes from different ring spaces (or of the wrong degree) were combined."""


class NonUnitSeriesError(TautVerifyError):
    """Inversion requires a nonzero constant term."""


class DegreeError(TautVerifyError):
    """A graded value has the wrong total degree, or an order bound was exceeded."""


class UnknownLabelError(TautVerifyError):
    """A basis, product or special label is not defined for the target space."""


class MissingImageError(TautVerifyError):
    """A homomorphism has no stored image for a required label (configuration error)."""


class UnknownNameError(TautVerifyError):
    """A registry lookup (catalog class, surface, check id, named constant) failed."""


class DataError(TautVerifyError):
    """Embedded or user-supplied definition data failed validation at load."""
