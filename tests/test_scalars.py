import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardyshift import GaussianRational
from hardyshift.scalars import (
    as_scalar,
    one,
    scalar_from_json,
    scalar_is_zero,
    scalar_to_json,
    scalars_close,
    zero,
)


def gr(re, im=0):
    return GaussianRational(re, im)


def test_basic_arithmetic():
    a = gr(Fraction(1, 2), Fraction(1, 3))
    b = gr(2, -1)
    assert a + b == gr(Fraction(5, 2), Fraction(-2, 3))
    assert a - b == gr(Fraction(-3, 2), Fraction(4, 3))
    assert a * b == gr(Fraction(4, 3), Fraction(1, 6))
    assert -a == gr(Fraction(-1, 2), Fraction(-1, 3))
    assert (a * b) / b == a
    assert a.conjugate() == gr(Fraction(1, 2), Fraction(-1, 3))


def test_multiplicative_structure():
    i = gr(0, 1)
    assert i * i == gr(-1)
    assert i * i.conjugate() == gr(1)
    assert gr(3) * gr(0, 2) == gr(0, 6)


def test_mixed_int_fraction_arithmetic():
    a = gr(1, 1)
    assert a + 1 == gr(2, 1)
    assert 1 + a == gr(2, 1)
    assert 2 * a == gr(2, 2)
    assert a - Fraction(1, 2) == gr(Fraction(1, 2), 1)
    assert a / 2 == gr(Fraction(1, 2), Fraction(1, 2))
    assert 1 / gr(0, 1) == gr(0, -1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


def test_abs2_exact():
    a = gr(Fraction(3, 5), Fraction(4, 5))
    assert a.abs2() == Fraction(1)
    assert abs(a) == pytest.approx(1.0)


def test_float_rejected_in_exact_constructor():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        as_scalar(0.5, "exact")
    with pytest.raises(TypeError):
        as_scalar(1 + 2j, "exact")


def test_as_scalar_modes():
    assert as_scalar(3, "exact") == gr(3)
    assert as_scalar(Fraction(1, 2), "exact") == gr(Fraction(1, 2))
    assert as_scalar(gr(1, 2), "float") == 1 + 2j
    assert as_scalar(0.5, "float") == 0.5 + 0j
    with pytest.raises(ValueError):
        as_scalar(1, "symbolic")


def test_zero_one_and_predicates():
    assert not zero("exact")
    assert one("exact") == 1
    assert zero("float") == 0j
    assert scalar_is_zero(gr(0))
    assert not scalar_is_zero(gr(0, Fraction(1, 10**12)))
    assert scalar_is_zero(1e-12 + 0j, tol=1e-9)
    assert scalars_close(gr(1), gr(1))
    assert scalars_close(1.0 + 0j, 1.0 + 1e-12j, tol=1e-9)
    assert not scalars_close(1.0 + 0j, 1.0 + 1e-6j, tol=1e-9)


def test_hash_consistency_with_equality():
    assert gr(3) == 3
    assert hash(gr(3)) == hash(3)
    assert hash(gr(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_json_round_trip_exact():
    a = gr(Fraction(-7, 3), Fraction(2, 5))
    obj = scalar_to_json(a)
    assert obj == {"re": "-7/3", "im": "2/5"}
    assert scalar_from_json(obj, "exact") == a


def test_json_accepts_ints_and_defaults():
    assert scalar_from_json({"re": 2}, "exact") == gr(2)
    assert scalar_from_json({"im": "1/2"}, "exact") == gr(0, Fraction(1, 2))
    assert scalar_from_json({}, "exact") == gr(0)


def test_json_accepts_bare_real_scalars():
    assert scalar_from_json(3, "exact") == gr(3)
    assert scalar_from_json("-1/2", "exact") == gr(Fraction(-1, 2))
    assert scalar_from_json("1/2", "float") == 0.5 + 0j
    assert scalar_from_json(0.25, "float") == 0.25 + 0j
    with pytest.raises(ValueError):
        scalar_from_json(0.25, "exact")
    with pytest.raises(ValueError):
        scalar_from_json(True, "exact")
    with pytest.raises(ValueError):
        scalar_from_json("half", "exact")


def test_json_float_parts_gated_by_mode():
    with pytest.raises(ValueError):
        scalar_from_json({"re": 0.5, "im": 0}, "exact")
    assert scalar_from_json({"re": 0.5, "im": 0}, "float") == 0.5 + 0j
    assert scalar_from_json({"re": "1/2", "im": 1}, "float") == 0.5 + 1j


def test_json_rejects_junk():
    with pytest.raises(ValueError):
        scalar_from_json({"re": "one"}, "exact")
    with pytest.raises(ValueError):
        scalar_from_json({"real": 1}, "exact")
    with pytest.raises(ValueError):
        scalar_from_json([1, 2], "exact")
    with pytest.raises(ValueError):
        scalar_from_json({"re": True}, "exact")
    with pytest.raises(ValueError):
        scalar_from_json({"re": "1/0"}, "exact")


fractions_st = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
gaussians = st.builds(GaussianRational, fractions_st, fractions_st)


@given(gaussians, gaussians, gaussians)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a


@given(gaussians, gaussians)
def test_division_inverts_multiplication(a, b):
    if b:
        assert (a * b) / b == a


@given(gaussians, gaussians)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(gaussians)
def test_matches_complex_arithmetic(a):
    c = complex(a)
    assert math.isclose(abs(a), abs(c), abs_tol=1e-9)
    assert complex(a.conjugate()) == c.conjugate()
