"""Exception types, and the read-only value base of the model's records,
shared across the package."""


class Record:
    """A read-only value: the fields named in ``_fields``, set once by the
    constructor.  Assignment and deletion are refused; two records are
    equal when one is an instance of the other's type and their fields are
    equal; ``repr`` lists the fields.  A record does not hash unless its
    class says how."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        vars(self).update(zip(self._fields, values))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class HardyShiftError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(HardyShiftError):
    """Operands have incompatible dimensions or block parameters."""


class RankAmbiguityError(HardyShiftError):
    """A floating-point rank decision has a singular value too close to the
    tolerance to call either way.  Exact mode never raises this."""


class CapError(HardyShiftError):
    """An exhaustive enumeration would exceed the fixed size limit."""
