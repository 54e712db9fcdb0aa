"""Exception types shared across the package."""


class QlcstError(Exception):
    """Base class for all library errors."""


class BasisAxisError(QlcstError):
    """Axis of a phase exponential is not mu1 or mu2."""


class DeterminantError(QlcstError):
    """Parameter matrix determinant differs from 1."""


class ZeroBError(QlcstError):
    """Parameter matrix has B = 0 (chirp-multiplication branch, unsupported)."""


class GridMismatch(QlcstError):
    """Grids of two operands are inconsistent or degenerate."""


class SpacingError(QlcstError):
    """Grid spacings violate the FFT compatibility relation."""


class ZeroSignal(QlcstError):
    """Operation undefined for an identically-zero signal."""


class ZeroFrequency(QlcstError):
    """Adaptive window evaluated at zero frequency."""


class ZeroWindow(QlcstError):
    """Window is identically zero on its grid."""


class AdmissibilityError(QlcstError):
    """Window has no finite, frequency-independent admissibility constant."""


class DegenerateAngle(QlcstError):
    """Fractional-case angle is a multiple of pi."""


class BadParameter(QlcstError):
    """Invalid generator or CLI parameter."""


class BadMagic(QlcstError):
    """Signal/coefficient file has an unknown magic tag."""


class TruncatedFile(QlcstError):
    """Signal/coefficient file ends before its payload does."""


class TrailingBytes(QlcstError):
    """Signal/coefficient file has bytes after its payload."""


class VersionMismatch(QlcstError):
    """Signal/coefficient file has an unsupported format version."""


class NonFinite(QlcstError):
    """A quadrature produced a non-finite value."""


class TooLarge(QlcstError):
    """Coefficient planes would not fit in the memory limit."""


class Undersampled(QlcstError):
    """The window reaches some x from no u: the frame sum is zero there."""
