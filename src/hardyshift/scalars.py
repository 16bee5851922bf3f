"""Scalar arithmetic for the truncated Hardy-space models.

Two scalar kinds are supported, selected by a mode string passed to the
constructors that need one:

* ``"exact"``: Gaussian rationals, complex numbers (a + b i) / q held as
  one reduced triple of Python ints.  Every identity checked downstream
  is then decided with zero tolerance.
* ``"float"``: plain Python ``complex``.  Comparisons carry an explicit
  tolerance, and rank decisions can refuse to answer (RankAmbiguityError)
  when a singular value sits too close to it.

Exact mode never silently absorbs a float: constructing a Gaussian rational
from a float raises TypeError rather than laundering binary roundoff into a
"rational" value.  ``fractions`` is imported only where a ``Fraction`` is
asked for or a rational literal is parsed, so a run that computes with
none never loads it.
"""

from __future__ import annotations

import math
import re
import sys
from math import gcd
from typing import Literal, Union

Mode = Literal["exact", "float"]

Scalar = Union["GaussianRational", complex]


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an exact real part: any value that has
    them (int, bool, Fraction), or a rational literal (``_rational``)."""
    if isinstance(value, float):
        raise TypeError("float is not exact; use mode='float' instead")
    if isinstance(value, str):
        value = _rational(value)
    try:
        return int(value.numerator), int(value.denominator)
    except AttributeError:
        raise TypeError(f"{type(value).__name__} is not an exact rational") from None


def _part(n: int, q: int) -> str:
    """``str(Fraction(n, q))``, q > 0, without forming the Fraction."""
    if q == 1:
        return str(n)
    g = gcd(n, q)
    return str(n // g) if q == g else f"{n // g}/{q // g}"


def _fraction_hash(n: int, q: int) -> int:
    """``hash(Fraction(n, q))``, q > 0, by the algorithm ``Fraction`` uses:
    equal to ``hash(n // q)`` when q divides n."""
    g = gcd(n, q)
    n, q = n // g, q // g
    try:
        h = hash(hash(abs(n)) * pow(q, -1, sys.hash_info.modulus))
    except ValueError:
        h = sys.hash_info.inf
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


_new = object.__new__


def _gr(a: int, b: int, q: int) -> "GaussianRational":
    """(a + b i) / q, q > 0, reduced by one gcd."""
    g = gcd(a, b, q)
    if g != 1:
        a, b, q = a // g, b // g, q // g
    x = _new(GaussianRational)
    x._a, x._b, x._q = a, b, q
    return x


def _coerce(value):
    """``value`` as a Gaussian rational, or None when it has no exact
    rational value (a float, a complex)."""
    if isinstance(value, GaussianRational):
        return value
    try:
        n, q = value.numerator, value.denominator
    except AttributeError:
        return None
    return _gr(int(n), 0, int(q))


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    It is held as (a + b i) / q with Python ints, q > 0 and
    gcd(a, b, q) = 1, so each value has one triple: equality compares
    triples, and each of + - * / forms its integer products and divides
    out one ``math.gcd``.  ``re``, ``im`` and ``abs2`` give ``Fraction``s;
    ``real`` and ``imag`` give the parts as real Gaussian rationals.
    """

    __slots__ = ("_a", "_b", "_q")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._q = re, im, 1
            return
        (rn, rq), (im_n, im_q) = _ratio(re), _ratio(im)
        a, b, q = rn * im_q, im_n * rq, rq * im_q
        g = gcd(a, b, q)
        self._a, self._b, self._q = a // g, b // g, q // g

    @property
    def re(self):
        """The real part, a ``Fraction``."""
        from fractions import Fraction

        return Fraction(self._a, self._q)

    @property
    def im(self):
        """The imaginary part, a ``Fraction``."""
        from fractions import Fraction

        return Fraction(self._b, self._q)

    @property
    def real(self) -> "GaussianRational":
        return _gr(self._a, 0, self._q)

    @property
    def imag(self) -> "GaussianRational":
        return _gr(self._b, 0, self._q)

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        q, r = self._q, other._q
        if q == r:
            return _gr(self._a + other._a, self._b + other._b, q)
        return _gr(self._a * r + other._a * q, self._b * r + other._b * q, q * r)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        q, r = self._q, other._q
        if q == r:
            return _gr(self._a - other._a, self._b - other._b, q)
        return _gr(self._a * r - other._a * q, self._b * r - other._b * q, q * r)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is int:
            return _gr(self._a * other, self._b * other, self._q)
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _gr(a * c - b * e, a * e + b * c, self._q * other._q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + b i)/q / ((c + e i)/r) = (a + b i)(c - e i) r / (q (c^2 + e^2))
        r = other._q
        return _gr((a * c + b * e) * r, (b * c - a * e) * r, self._q * n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _gr(-self._a, -self._b, self._q)

    def __pos__(self):
        return self

    def conjugate(self) -> "GaussianRational":
        return _gr(self._a, -self._b, self._q)

    def abs2(self):
        """Exact squared modulus, a ``Fraction``."""
        from fractions import Fraction

        return Fraction(self._a * self._a + self._b * self._b, self._q * self._q)

    def __abs__(self) -> float:
        # int true division rounds once, as float(self.abs2()) does
        return math.sqrt((self._a * self._a + self._b * self._b) / (self._q * self._q))

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._q == other._q
        try:
            n, q = other.numerator, other.denominator
        except AttributeError:
            return NotImplemented
        return self._b == 0 and self._a == n and self._q == q

    def __hash__(self):
        # a real Gaussian rational hashes like its rational, as an int or a
        # Fraction does; any other like the pair of its parts
        re = _fraction_hash(self._a, self._q)
        if not self._b:
            return re
        return hash((re, _fraction_hash(self._b, self._q)))

    def __complex__(self) -> complex:
        return complex(self._a / self._q, self._b / self._q)

    def __repr__(self):
        return f"GaussianRational({_part(self._a, self._q)!r}, {_part(self._b, self._q)!r})"

    def __str__(self):
        a, b, q = self._a, self._b, self._q
        if not b:
            return _part(a, q)
        if not a:
            return f"{_part(b, q)}i"
        sign = "+" if b > 0 else "-"
        return f"{_part(a, q)}{sign}{_part(abs(b), q)}i"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


def zero(mode: Mode) -> Scalar:
    return GR_ZERO if mode == "exact" else 0j


def one(mode: Mode) -> Scalar:
    return GR_ONE if mode == "exact" else complex(1.0)


def as_scalar(value, mode: Mode) -> Scalar:
    """Coerce a number into the scalar type of the given mode."""
    if mode == "exact":
        exact = _coerce(value)
        if exact is not None:
            return exact
        raise TypeError(
            f"cannot use {type(value).__name__} in exact mode; "
            "pass int, Fraction or GaussianRational"
        )
    if mode == "float":
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


def _rational(x: int | str):
    """``Fraction(x)``, refusing a numerator or denominator with more digits
    than ``str`` prints (``sys.get_int_max_str_digits()``).  ``int`` refuses
    a longer run of digits, so a nonzero literal whose exponent is beyond
    twice the limit has such a part: it is refused before ``Fraction``
    forms 10**exponent."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    # the exponent of a decimal literal, as Fraction reads it
    match = re.search(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", x, re.I) if isinstance(x, str) else None
    e = match[1].replace("_", "").lstrip("0") if match else ""
    if len(e) > len(str(2 * limit)) or int(e or 0) > 2 * limit:
        raise ValueError(f"rational literal {x!r} has an exponent beyond {2 * limit}")
    from fractions import Fraction

    try:
        q = Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {x!r}") from exc
    big = max(abs(q.numerator), q.denominator)
    # below 2**(3 * limit) < 10**limit, no power of ten is formed
    if big.bit_length() > 3 * limit and big >= 10 ** limit:
        raise ValueError(f"rational literal {x!r} has a part of more than {limit} digits")
    return q


def scalar_from_json(obj, mode: Mode) -> Scalar:
    """Parse ``{"re": ..., "im": ...}``, or a bare real part, into a scalar.

    Parts may be ints or rational strings ("2/3", "-1").  Float parts are
    accepted only in float mode; in exact mode they are rejected so that a
    config cannot quietly downgrade exactness.  Booleans are refused, and
    so are a part too long to print (``_rational``) and a float-mode
    scalar that is not finite (NaN, an infinity, or a rational too large
    for a float).
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
            return _rational(x)
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
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"scalar {obj!r} is not finite")
    return value


def scalar_to_json(s: Scalar):
    """Emit a scalar as ``{"re": ..., "im": ...}``, rational strings in exact mode."""
    if isinstance(s, GaussianRational):
        return {"re": _part(s._a, s._q), "im": _part(s._b, s._q)}
    s = complex(s)
    return {"re": s.real, "im": s.imag}
