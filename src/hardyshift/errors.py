"""Exception types shared across the package."""


class HardyShiftError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(HardyShiftError):
    """Operands have incompatible dimensions or block parameters."""


class RankAmbiguityError(HardyShiftError):
    """A floating-point rank decision has a singular value too close to the
    tolerance to call either way.  Exact mode never raises this."""


class InvarianceError(HardyShiftError):
    """A restriction was requested onto a coordinate subspace that the
    operator does not leave invariant."""


class CapError(HardyShiftError):
    """An exhaustive enumeration would exceed the fixed size limit."""
