import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyshift import DenseMatrix, GaussianRational, SparseMatrix
from hardyshift.commutant import operator_rank
from hardyshift.errors import ShapeError

# The package's DenseMatrix keeps its validating constructor and identity,
# and commutant.operator_rank is SparseMatrix's rank; the algebra checked
# here is the tests' reference, helpers.DenseMatrix.
import helpers
from helpers import (
    commutator,
    direct_sum,
    is_permutation,
    matrices_close,
    rand_gaussian_rational,
    sparse,
)


def rand_matrix(rng, rows, cols):
    return helpers.DenseMatrix(
        [[rand_gaussian_rational(rng) for _ in range(cols)] for _ in range(rows)]
    )


def test_constructor_normalizes_and_validates():
    m = DenseMatrix([[1, Fraction(1, 2)], [0, GaussianRational(0, 1)]])
    assert m.shape == (2, 2)
    assert m.entries[0][1] == GaussianRational(Fraction(1, 2))
    with pytest.raises(ShapeError):
        DenseMatrix([[1, 2], [3]])
    with pytest.raises(ShapeError):
        DenseMatrix([])
    with pytest.raises(TypeError):
        DenseMatrix([[0.5]])  # float needs float mode


def test_identity_zeros_diagonal():
    assert DenseMatrix.identity(3).entries[1][1] == 1
    assert helpers.DenseMatrix.zeros(2, 3).is_zero()
    d = helpers.DenseMatrix.diagonal([1, 0, 2])
    assert d[0][0] == 1 and d[1][1] == 0 and d[2][2] == 2
    assert d.nnz() == 2


def test_matmul_against_numpy():
    rng = random.Random(7)
    for _ in range(10):
        a = rand_matrix(rng, 4, 3)
        b = rand_matrix(rng, 3, 5)
        got = (a @ b).to_numpy()
        want = a.to_numpy() @ b.to_numpy()
        assert np.allclose(got, want, atol=1e-9)


def test_matmul_against_naive_loop():
    # independent triple loop with no zero-skipping
    rng = random.Random(11)
    a = rand_matrix(rng, 5, 4)
    b = rand_matrix(rng, 4, 3)
    prod = a @ b
    for u in range(5):
        for v in range(3):
            acc = GaussianRational(0)
            for w in range(4):
                acc = acc + a[u][w] * b[w][v]
            assert prod[u][v] == acc


def test_shape_and_mode_guards():
    a = helpers.DenseMatrix([[1, 2]])
    b = helpers.DenseMatrix([[1, 2]])
    with pytest.raises(ShapeError):
        a @ b
    with pytest.raises(TypeError):
        a @ DenseMatrix([[1.0], [2.0]], mode="float")
    with pytest.raises(ShapeError):
        a + DenseMatrix([[1], [2]])


def test_adjoint_properties():
    rng = random.Random(3)
    a = rand_matrix(rng, 3, 4)
    b = rand_matrix(rng, 4, 2)
    assert a.adjoint().adjoint() == a
    assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()
    assert a.adjoint()[1][2] == a[2][1].conjugate()


def test_pow():
    j = helpers.DenseMatrix([[0, 0], [1, 0]])
    assert j ** 0 == DenseMatrix.identity(2)
    assert j ** 1 == j
    assert (j ** 2).is_zero()
    with pytest.raises(ValueError):
        j ** -1


def test_matvec():
    m = helpers.DenseMatrix([[1, 2], [3, 4]])
    assert m.matvec((1, 1)) == (GaussianRational(3), GaussianRational(7))
    with pytest.raises(ShapeError):
        m.matvec((1,))


def test_direct_sum():
    a = DenseMatrix([[1]])
    b = DenseMatrix([[2, 0], [0, 3]])
    s = direct_sum([a, b])
    assert s.shape == (3, 3)
    assert s[0][0] == 1 and s[1][1] == 2 and s[2][2] == 3
    assert s[0][1] == 0 and s[2][0] == 0
    with pytest.raises(ShapeError):
        direct_sum([])


def test_commutator():
    a = helpers.DenseMatrix([[0, 1], [0, 0]])
    b = helpers.DenseMatrix([[0, 0], [1, 0]])
    c = commutator(a, b)
    assert c == DenseMatrix([[1, 0], [0, -1]])
    assert commutator(a, a).is_zero()


def test_exact_rank():
    assert operator_rank(sparse(DenseMatrix.identity(4))) == 4
    assert operator_rank(sparse(helpers.DenseMatrix.zeros(3, 3))) == 0
    assert operator_rank(sparse([[1, 2], [2, 4]])) == 1
    assert operator_rank(sparse(
        [[1, 0, 1], [0, 1, 1], [1, 1, 2]]
    )) == 2


def test_float_rank_requires_tol():
    # refused even for the identity, whose rank is read off its scan
    m = sparse([[1.0, 0.0], [0.0, 1.0]], "float")
    assert operator_rank(m, tol=1e-9) == 2
    for tol in (None, 0.0, 1.0):
        with pytest.raises(ValueError):
            operator_rank(m, tol)


small_integer_matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-3, 3), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@settings(max_examples=80, deadline=None)
@given(small_integer_matrices)
def test_exact_rank_matches_numpy(rows):
    assert operator_rank(sparse(rows)) == np.linalg.matrix_rank(np.array(rows, dtype=float))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_float_rank_matches_numpy_on_well_separated_spectra(n, m, data):
    # singular values are 0 or in [0.5, 2], far from the cut-off on both sides
    k = min(n, m)
    svals = data.draw(
        st.lists(st.sampled_from([0.0]) | st.floats(0.5, 2.0), min_size=k, max_size=k)
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    left = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :k]
    right = np.linalg.qr(rng.standard_normal((m, m)))[0][:k, :]
    mat = left @ np.diag(svals) @ right
    expected = np.linalg.matrix_rank(mat)
    assert expected == sum(1 for s in svals if s)
    assert operator_rank(sparse(mat.tolist(), "float"), tol=1e-9) == expected


def test_is_permutation():
    assert is_permutation(DenseMatrix.identity(3))
    p = DenseMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert is_permutation(p)
    assert not is_permutation(DenseMatrix([[1, 0], [1, 0]]))
    assert not is_permutation(DenseMatrix([[2, 0], [0, 1]]))
    assert not is_permutation(DenseMatrix([[1, 0, 0], [0, 1, 0]]))
    fuzz = DenseMatrix([[1.0 + 1e-12, 0.0], [0.0, 1.0]], mode="float")
    assert is_permutation(fuzz, tol=1e-9)


def test_matrices_close():
    a = DenseMatrix([[1.0]], mode="float")
    b = DenseMatrix([[1.0 + 1e-12]], mode="float")
    assert matrices_close(a, b, tol=1e-9)
    assert not matrices_close(a, b)
    assert not matrices_close(a, DenseMatrix([[1]]), tol=1e-9)  # mode mismatch


def test_scaled_and_neg():
    m = helpers.DenseMatrix([[1, 2], [3, 4]])
    assert m.scaled(Fraction(1, 2))[1][1] == GaussianRational(2)
    assert (m - m).is_zero()
