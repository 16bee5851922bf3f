import json
import math
import operator
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import FractionGaussianRational
from hypothesis import example, given
from hypothesis import strategies as st

from hardyshift import GaussianRational, TruncationParams, linalg
from hardyshift.commutant import _commutation_rows
from hardyshift.operators import symbol_from_json, toeplitz_matrix
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


@pytest.mark.parametrize(
    "obj",
    [float("nan"), {"im": float("inf")}, {"re": -float("inf")}, "1e400", {"im": 10**400}],
)
def test_json_float_mode_rejects_non_finite(obj):
    with pytest.raises(ValueError):
        scalar_from_json(obj, "float")


def test_json_parts_end_where_str_stops_printing():
    # a part of exactly the limit's digits prints; one more digit is refused
    limit = sys.get_int_max_str_digits()
    for literal in (f"1e{limit - 1}", f"1e-{limit - 1}", "1e1_0_0", "1e000000000000000000003"):
        assert str(scalar_from_json(literal, "exact").re) == str(Fraction(literal))
    for literal in (f"1e{limit}", f"1e-{limit}", f"1e{2 * limit + 1}", f"-1e-{10**9}"):
        with pytest.raises(ValueError):
            scalar_from_json(literal, "exact")


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


# The package's reduced int triples against the Fraction-pair reference
# (``helpers.FractionGaussianRational``): every operation on the same
# values must give the same value, hash and text, and every result must be
# in canonical form.
wide_parts = st.fractions(max_denominator=10**6) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4)
pairs = st.tuples(wide_parts, wide_parts)
# a Gaussian rational (a pair of parts), or an int or a Fraction operand
operands = pairs | st.integers(-10**6, 10**6) | wide_parts
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def both(value):
    """The package's and the reference's form of one operand."""
    if isinstance(value, tuple):
        return GaussianRational(*value), FractionGaussianRational(*value)
    return value, value


def assert_canonical(g):
    assert type(g) is GaussianRational
    a, b, q = g._a, g._b, g._q
    assert type(a) is type(b) is type(q) is int
    assert q > 0 and math.gcd(a, b, q) == 1


def assert_same(g, ref):
    """g is the reference's value, with its hash and its text."""
    assert_canonical(g)
    assert (g.re, g.im) == (ref.re, ref.im)
    assert type(g.re) is type(g.im) is Fraction
    assert hash(g) == hash(ref)
    assert (str(g), repr(g)) == (str(ref), repr(ref))
    assert complex(g) == complex(ref)
    assert bool(g) == bool(ref)


def outcome(op, x, y):
    try:
        return op(x, y)
    except ZeroDivisionError:
        return ZeroDivisionError


@given(pairs, operands, st.sampled_from(sorted(BINARY)))
@example((Fraction(1, 2), 3), (0, 0), "/")
@example((0, 0), (Fraction(1, 2), 3), "/")
@example((1, 0), 0, "/")
def test_arithmetic_matches_the_fraction_pair_reference(x, y, name):
    op = BINARY[name]
    (gx, rx), (gy, ry) = both(x), both(y)
    for g, ref in ((outcome(op, gx, gy), outcome(op, rx, ry)),
                   (outcome(op, gy, gx), outcome(op, ry, rx))):
        if ref is ZeroDivisionError:
            assert g is ZeroDivisionError
        else:
            assert_same(g, ref)


@given(pairs, operands)
@example((1, 0), 1)
@example((Fraction(1, 2), 0), Fraction(1, 2))
@example((0, 0), 0)
def test_unary_and_comparison_match_the_fraction_pair_reference(x, y):
    (gx, rx), (gy, ry) = both(x), both(y)
    assert_same(gx, rx)
    assert_same(-gx, -rx)
    assert_same(gx.conjugate(), rx.conjugate())
    assert_same(gx.real, FractionGaussianRational(rx.re))
    assert_same(gx.imag, FractionGaussianRational(rx.im))
    assert gx.abs2() == rx.abs2() and type(gx.abs2()) is Fraction
    assert abs(gx) == abs(rx)
    assert eval(repr(gx), {"GaussianRational": GaussianRational}) == gx
    for other in (gy, 0.5, 1.0, 1j, "1"):
        assert (gx == other) == (rx == (ry if other is gy else other))
        assert (other == gx) == ((ry if other is gy else other) == rx)
    if gx == gy:
        assert hash(gx) == hash(gy)


def test_kernel_basis_of_a_symbol_matches_under_the_fraction_pair_reference():
    # the commutation rows of symbol_F at (2,1,4), eliminated once over each
    # class: the same kernel vectors, entry for entry
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "symbol_F.json"
    A = toeplitz_matrix(symbol_from_json(json.loads(path.read_text())), TruncationParams(2, 1, 4))
    rows = _commutation_rows(A)
    ref_rows = [{c: FractionGaussianRational(v.re, v.im) for c, v in row.items()} for row in rows]
    ncols = A.rows * A.cols
    kernel = linalg.kernel_basis(rows, ncols, "exact")
    ref_kernel = linalg.kernel_basis(ref_rows, ncols, "exact")
    assert len(kernel) == 16
    assert all(type(v) is FractionGaussianRational for vec in ref_kernel for v in vec.values())
    assert [{c: (v.re, v.im) for c, v in vec.items()} for vec in kernel] == \
        [{c: (v.re, v.im) for c, v in vec.items()} for vec in ref_kernel]
