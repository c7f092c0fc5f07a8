"""Exception hierarchy shared by all modules."""


class QsecfanError(Exception):
    """Base class for all package-specific errors."""


class MixedFieldError(QsecfanError, ValueError):
    """Two scalars from distinct quadratic fields met in one operation."""


class DegenerateInputError(QsecfanError, ZeroDivisionError):
    """Inversion of zero or an otherwise degenerate numeric input."""


class InvalidCalibrationError(QsecfanError, ValueError):
    """The matrix h is not an epimorphism or violates a calibration flag."""


class DimensionMismatchError(QsecfanError, ValueError):
    """Incompatible shapes in a linear-algebra operation."""


class NotAdmissibleError(QsecfanError, ValueError):
    """P_b is empty, lower-dimensional or unbounded where a complete fan is needed."""


class OnWallError(QsecfanError, ValueError):
    """A chamber was requested at a non-generic point; equalities carries the
    normals of the deficient-span cones holding the point."""

    def __init__(self, message, equalities=()):
        super().__init__(message)
        self.equalities = tuple(equalities)


class DegeneratePathError(QsecfanError, ValueError):
    """An affine path has an endpoint on a wall or hits a codimension-2 face."""


class UnsupportedDimensionError(QsecfanError, ValueError):
    """Operation only implemented for small ambient dimension."""
