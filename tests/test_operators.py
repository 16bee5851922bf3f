import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyshift import (
    DenseMatrix,
    GaussianRational,
    MatrixSymbol,
    TruncationParams,
    monomial_symbol,
    power_symbol,
    scalar_shift,
    symbol_from_json,
    symbol_to_json,
    toeplitz_matrix,
    vector_shift,
)
from hardyshift.errors import ShapeError
from hardyshift.scalars import GR_ZERO

from helpers import (
    SWEEP,
    apply,
    basis_vector,
    poly_multiply_truncate,
    rand_gaussian_rational,
    rand_vector,
)


def test_scalar_shift_entries():
    j1 = scalar_shift(1).to_dense()
    assert j1.is_zero()
    j3 = scalar_shift(3).to_dense()
    assert [(u, v) for u, v, s in j3.nonzero_items()] == [(1, 0), (2, 1)]
    assert (j3 ** 3).is_zero()
    assert not (j3 ** 2).is_zero()


def test_scalar_shift_validation():
    with pytest.raises(ShapeError):
        scalar_shift(0)


def test_vector_shift_positions():
    p = TruncationParams(2, 1, 2)  # N = 2, d = 4
    s = vector_shift(p)
    assert [(u, v) for u, v, e in s.nonzero_items()] == [(2, 0), (3, 1)]


def test_vector_shift_equals_toeplitz_of_z():
    for p in SWEEP:
        assert vector_shift(p) == toeplitz_matrix(monomial_symbol(p.m, 1), p)


def test_vector_shift_scalar_case_and_nilpotency():
    # with a single component the vector shift is the plain Jordan shift
    p = TruncationParams(1, 2, 3)  # N = 6
    assert vector_shift(p) == scalar_shift(p.N)
    for q in SWEEP:
        s = vector_shift(q).to_dense()
        assert (s ** q.N).is_zero()
        assert not (s ** (q.N - 1)).is_zero()


def test_power_symbol_equals_both_routes():
    for p in SWEEP:
        direct = power_symbol(p)
        assert direct == toeplitz_matrix(monomial_symbol(p.m, p.n), p)
        assert direct.to_dense() == vector_shift(p).to_dense() ** p.n


def test_power_symbol_positions_small():
    p = TruncationParams(1, 2, 2)  # N = 4
    t = power_symbol(p)
    assert [(u, v) for u, v, e in t.nonzero_items()] == [(2, 0), (3, 1)]


def test_power_symbol_rank():
    for p in SWEEP:
        assert power_symbol(p).to_dense().rank() == p.m * (p.N - p.n)


def test_power_symbol_nilpotent():
    p = TruncationParams(2, 2, 3)
    t = power_symbol(p).to_dense()
    assert not (t ** (p.K - 1)).is_zero()
    assert (t ** p.K).is_zero()


def test_toeplitz_constant_symbol_is_block_diagonal():
    c = DenseMatrix([[1, 2], [3, 4]])
    sym = MatrixSymbol(2, ((0, c),))
    p = TruncationParams(2, 1, 2)
    t = toeplitz_matrix(sym, p).to_dense()
    # each degree gets a copy of c
    for blk in range(p.N):
        for a in range(2):
            for b in range(2):
                assert t[2 * blk + a][2 * blk + b] == c[a][b]
    assert t.nnz() == 4 * p.N


def test_toeplitz_truncation_drops_high_degrees():
    p = TruncationParams(1, 1, 2)  # N = 2
    sym = monomial_symbol(1, 5)
    assert toeplitz_matrix(sym, p).to_dense().is_zero()


def test_toeplitz_multiplicativity_of_monomials():
    p = TruncationParams(2, 2, 3)
    for a in range(4):
        for b in range(4):
            lhs = toeplitz_matrix(monomial_symbol(p.m, a), p).to_dense() @ toeplitz_matrix(
                monomial_symbol(p.m, b), p
            ).to_dense()
            rhs = toeplitz_matrix(monomial_symbol(p.m, a + b), p).to_dense()
            assert lhs == rhs


def test_toeplitz_commutes_with_vector_shift():
    rng = random.Random(13)
    p = TruncationParams(2, 2, 2)
    coeffs = []
    for t in range(3):
        coeffs.append(
            (t, DenseMatrix([[rand_gaussian_rational(rng) for _ in range(2)] for _ in range(2)]))
        )
    sym = MatrixSymbol(2, tuple(coeffs))
    T = toeplitz_matrix(sym, p).to_dense()
    S = vector_shift(p).to_dense()
    assert T @ S == S @ T


def test_apply_on_basis_vector():
    p = TruncationParams(2, 2, 2)
    t = power_symbol(p).to_dense()
    assert apply(t, basis_vector(1, 1, p)) == basis_vector(1, 3, p)
    # degrees pushed past the horizon are annihilated
    for i, q in ((1, 2), (2, 2), (1, 3), (2, 3)):
        assert all(not e for e in apply(t, basis_vector(i, q, p)).entries)


def test_symbol_validation():
    with pytest.raises(ShapeError):
        MatrixSymbol(2, ((0, DenseMatrix([[1]])),))
    with pytest.raises(ShapeError):
        MatrixSymbol(1, ((0, DenseMatrix([[1]])), (0, DenseMatrix([[2]]))))
    with pytest.raises(ShapeError):
        MatrixSymbol(1, ((-1, DenseMatrix([[1]])),))
    with pytest.raises(ShapeError):
        toeplitz_matrix(monomial_symbol(2, 0), TruncationParams(3, 1, 1))


def test_toeplitz_mode_of_a_symbol_without_coefficients():
    params = TruncationParams(1, 1, 2)
    empty = MatrixSymbol(1, ())
    assert toeplitz_matrix(empty, params).mode == "exact"
    assert toeplitz_matrix(empty, params, "float").to_dense() == DenseMatrix.zeros(2, 2, "float")
    assert toeplitz_matrix(monomial_symbol(1, 1), params, "exact") == scalar_shift(2)
    with pytest.raises(TypeError):
        toeplitz_matrix(monomial_symbol(1, 1), params, "float")


def test_float_toeplitz_entries_have_no_negative_zero_parts():
    # a report prints a part of -0.0 as "-0.0"; the builder stores a float
    # entry as 0j + e, whose zero parts are +0.0
    sym = symbol_from_json(
        {"m": 1, "coeffs": [{"t": 0, "matrix": [[{"re": -0.0, "im": 1.0}]]},
                            {"t": 1, "matrix": [[{"re": 2.0, "im": -0.0}]]}]},
        "float",
    )
    T = toeplitz_matrix(sym, TruncationParams(1, 1, 3))
    parts = [x for s in T.entries.values() for x in (s.real, s.imag)]
    assert len(parts) == 10
    assert all(math.copysign(1.0, x) == 1.0 for x in parts)


def test_symbol_coeffs_sorted():
    sym = MatrixSymbol(
        1, ((2, DenseMatrix([[1]])), (0, DenseMatrix([[3]])))
    )
    assert [t for t, _ in sym.coeffs] == [0, 2]
    assert sym.degree == 2


def test_symbol_json_round_trip():
    sym = MatrixSymbol(
        2,
        (
            (0, DenseMatrix([[1, GaussianRational(0, 1)], [0, Fraction(1, 2)]])),
            (3, DenseMatrix([[0, 0], [1, 0]])),
        ),
    )
    obj = symbol_to_json(sym)
    back = symbol_from_json(obj, "exact")
    assert back == sym


def test_symbol_json_validation():
    with pytest.raises(ValueError):
        symbol_from_json({"coeffs": []}, "exact")
    with pytest.raises(ValueError):
        symbol_from_json({"m": 1, "coeffs": [{"t": 0}]}, "exact")
    with pytest.raises(ValueError):
        symbol_from_json(
            {"m": 2, "coeffs": [{"t": 0, "matrix": [[{"re": 1}]]}]}, "exact"
        )
    with pytest.raises(ValueError):
        symbol_from_json(
            {"m": 1, "coeffs": [{"t": 0, "matrix": [[{"re": 0.5}]]}]}, "exact"
        )
    # same file parses once floats are allowed
    sym = symbol_from_json(
        {"m": 1, "coeffs": [{"t": 0, "matrix": [[{"re": 0.5}]]}]}, "float"
    )
    assert sym.coeffs[0][1][0][0] == 0.5 + 0j


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_scalars = st.builds(GaussianRational, small_fractions, small_fractions)


@st.composite
def symbol_and_params(draw):
    m = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=1, max_value=2))
    K = draw(st.integers(min_value=1, max_value=3))
    npow = draw(st.integers(min_value=0, max_value=3))
    powers = draw(
        st.lists(
            st.integers(min_value=0, max_value=4),
            min_size=0,
            max_size=npow,
            unique=True,
        )
    )
    coeffs = []
    for t in powers:
        rows = [[draw(small_scalars) for _ in range(m)] for _ in range(m)]
        coeffs.append((t, DenseMatrix(rows)))
    params = TruncationParams(m, n, K)
    return MatrixSymbol(m, tuple(coeffs)), params


@settings(max_examples=40, deadline=None)
@given(symbol_and_params(), st.randoms(use_true_random=False))
def test_toeplitz_action_matches_polynomial_oracle(sym_params, pyrng):
    sym, params = sym_params
    vec = rand_vector(pyrng, params, span=3, den=2)
    S = toeplitz_matrix(sym, params)
    T = S.to_dense()
    # the sparse scan is the dense one: the same entries, in row-major order
    assert list(S.nonzero_items()) == list(T.nonzero_items())
    got = apply(T, vec)
    raw_coeffs = [
        (t, [list(row) for row in mat.entries]) for t, mat in sym.coeffs
    ]
    want = poly_multiply_truncate(raw_coeffs, vec, params, GR_ZERO)
    assert got == want
