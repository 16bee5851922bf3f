"""Scalar arithmetic for the truncated Hardy-space models.

Two scalar kinds are supported, selected by a mode string passed to the
constructors that need one:

* ``"exact"``: Gaussian rationals, complex numbers whose real and imaginary
  parts are :class:`fractions.Fraction`.  Every identity checked downstream
  is then decided with zero tolerance.
* ``"float"``: plain Python ``complex``.  Comparisons carry an explicit
  tolerance, and rank decisions can refuse to answer (RankAmbiguityError)
  when a singular value sits too close to it.

Exact mode never silently absorbs a float: constructing a Gaussian rational
from a float raises TypeError rather than laundering binary roundoff into a
"rational" value.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Literal, Union

Mode = Literal["exact", "float"]

MODES = ("exact", "float")

Scalar = Union["GaussianRational", complex]


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("float is not exact; use mode='float' instead")
    return Fraction(value)


class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = other.abs2()
        if not den:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> float:
        return math.sqrt(float(self.abs2()))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # Fraction hashes agree with int hashes, so a real Gaussian rational
        # hashes like its underlying rational.
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({str(self.re)!r}, {str(self.im)!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def zero(mode: Mode) -> Scalar:
    return GR_ZERO if mode == "exact" else 0j


def one(mode: Mode) -> Scalar:
    return GR_ONE if mode == "exact" else complex(1.0)


def as_scalar(value, mode: Mode) -> Scalar:
    """Coerce a number into the scalar type of the given mode."""
    if mode == "exact":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(
            f"cannot use {type(value).__name__} in exact mode; "
            "pass int, Fraction or GaussianRational"
        )
    if mode == "float":
        if isinstance(value, GaussianRational):
            return complex(value)
        if isinstance(value, Fraction):
            return complex(float(value))
        return complex(value)
    raise ValueError(f"unknown mode {mode!r}")


def scalar_is_zero(s: Scalar, tol: float | None = None) -> bool:
    if tol is None:
        return not s
    return abs(s) <= tol


def scalars_close(a: Scalar, b: Scalar, tol: float | None = None) -> bool:
    if tol is None:
        return a == b
    return abs(a - b) <= tol


def scalar_from_json(obj, mode: Mode) -> Scalar:
    """Parse ``{"re": ..., "im": ...}``, or a bare real part, into a scalar.

    Parts may be ints or rational strings ("2/3", "-1").  Float parts are
    accepted only in float mode; in exact mode they are rejected so that a
    config cannot quietly downgrade exactness.  Booleans are refused, and
    so is a float-mode scalar that is not finite (NaN, an infinity, or a
    rational too large for a float).
    """
    if isinstance(obj, (int, float, str)) and not isinstance(obj, bool):
        obj = {"re": obj}
    if not isinstance(obj, dict) or not set(obj) <= {"re", "im"}:
        raise ValueError(
            "scalar must be a number, a rational string or an object with "
            f"'re'/'im' fields, got {obj!r}"
        )

    def part(x):
        if isinstance(x, bool):
            raise ValueError("scalar parts must be numbers or rational strings")
        if isinstance(x, (int, str)):
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad rational literal {x!r}") from exc
        if isinstance(x, float):
            if mode != "float":
                raise ValueError(
                    f"float coefficient {x!r} requires float mode; "
                    "use a rational string in exact mode"
                )
            return x
        raise ValueError(f"scalar parts must be numbers or rational strings, got {x!r}")

    re = part(obj.get("re", 0))
    im = part(obj.get("im", 0))
    if mode == "exact":
        return GaussianRational(re, im)
    try:
        value = complex(float(re), float(im))
    except OverflowError as exc:
        raise ValueError(f"scalar {obj!r} is too large for a float") from exc
    if not cmath.isfinite(value):
        raise ValueError(f"scalar {obj!r} is not finite")
    return value


def scalar_to_json(s: Scalar):
    """Emit a scalar as ``{"re": ..., "im": ...}``, rational strings in exact mode."""
    if isinstance(s, GaussianRational):
        return {"re": str(s.re), "im": str(s.im)}
    s = complex(s)
    return {"re": s.real, "im": s.imag}
