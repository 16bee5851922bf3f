from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardyshift import (
    TruncationParams,
    check_minimal,
    commutant_basis,
    enumerate_lattice,
    power_symbol,
    scalar_shift,
    selfadjoint_commutant_dim,
    vector_shift,
    verify_equivalence,
)
from hardyshift.commutant import operator_rank
from hardyshift.errors import RankAmbiguityError
from hardyshift.floatsolve import float_blocks, float_terms
from hardyshift.linalg import components
from hardyshift.matrices import SparseMatrix

from helpers import (
    DenseMatrix,
    blocks_as_components,
    build_intertwiner,
    commutation_rows_reference,
    dense,
    dense_basis,
    direct_sum,
    is_projection,
    matrices_close,
    rows_of_terms,
    sparse,
)

TOL = 1e-9


def test_float_builders_match_exact():
    p = TruncationParams(2, 2, 2)
    builds = (
        lambda mode: dense(power_symbol(p, mode)),
        lambda mode: dense(vector_shift(p, mode)),
        lambda mode: build_intertwiner(p, mode),
    )
    for build in builds:
        exact = build("exact").to_numpy()
        float_ = build("float").to_numpy()
        assert np.array_equal(exact, float_)


def test_float_equivalence():
    for p in [TruncationParams(2, 2, 2), TruncationParams(1, 3, 2)]:
        rep = verify_equivalence(power_symbol(p, "float"), p, TOL)
        assert rep.ok


def test_float_commutant_dims():
    J = dense(scalar_shift(3, mode="float"))
    cb = commutant_basis(sparse(J), tol=TOL)
    assert cb.dim == 3
    for b in dense_basis(cb):
        assert matrices_close(J @ b, b @ J, tol=1e-7)
    assert selfadjoint_commutant_dim(sparse(J), tol=TOL) == 1
    D = direct_sum([dense(scalar_shift(2, mode="float"))] * 2)
    assert selfadjoint_commutant_dim(sparse(D), tol=TOL) == 4


def test_float_mode_requires_tol():
    J = scalar_shift(3, mode="float")
    with pytest.raises(ValueError):
        commutant_basis(J)
    with pytest.raises(ValueError):
        selfadjoint_commutant_dim(J)
    with pytest.raises(ValueError):
        commutant_basis(J, tol=-1.0)


def test_float_lattice():
    p = TruncationParams(2, 2, 2)
    T = power_symbol(p, "float")
    rep = enumerate_lattice(T, p, TOL)
    assert rep.counts.reducing_count == 16
    assert all(mc.is_minimal for mc in check_minimal(T, p, TOL))
    assert selfadjoint_commutant_dim(T, tol=TOL) == p.r ** 2


def test_rank_ambiguity_raised_near_tol():
    # singular values of the commutation system of diag(0, s) sit at 0 and s;
    # s equal to tol is exactly the undecidable band
    A = sparse([[0.0, 0.0], [0.0, 1e-9]], "float")
    with pytest.raises(RankAmbiguityError):
        commutant_basis(A, tol=TOL)
    with pytest.raises(RankAmbiguityError):
        selfadjoint_commutant_dim(A, tol=TOL)


def test_rank_ambiguity_band_edges():
    # an order of magnitude away on either side is decidable again
    for s in (1e-12, 1e-6):
        A = sparse([[0.0, 0.0], [0.0, s]], "float")
        commutant_basis(A, tol=TOL)  # must not raise
    clean = sparse([[0.0, 0.0], [0.0, 1.0]], "float")
    assert commutant_basis(clean, tol=TOL).dim == 2


def test_float_rank_of_power_operator():
    p = TruncationParams(2, 2, 3)
    T = power_symbol(p, mode="float")
    assert T.rank(tol=TOL) == p.m * (p.N - p.n)
    # read off the partial-permutation scan, and by SVD once T is scaled
    assert operator_rank(T, TOL) == T.rank(tol=TOL)
    doubled = SparseMatrix({k: 2 * s for k, s in T.entries.items()}, p.d, p.d, "float")
    assert operator_rank(doubled, TOL) == T.rank(tol=TOL)


def test_float_projection_predicate():
    P = DenseMatrix([[1.0 + 1e-12, 0.0], [0.0, 0.0]], mode="float")
    assert is_projection(P, tol=1e-9)
    assert not is_projection(P)


def test_float_commutant_basis_echelon_deterministic():
    J = scalar_shift(3, mode="float")
    a = commutant_basis(J, tol=TOL)
    b = commutant_basis(J, tol=TOL)
    for x, y in zip(dense_basis(a), dense_basis(b)):
        assert np.array_equal(x.to_numpy(), y.to_numpy())


def test_float_commutant_spans_the_exact_commutant():
    # the two canonical forms differ, so compare spans: stacking both bases
    # adds no dimension
    p = TruncationParams(2, 2, 3)
    exact = commutant_basis(power_symbol(p))
    float_ = commutant_basis(power_symbol(p, mode="float"), tol=TOL)
    dim = p.r * p.r * p.K
    assert exact.dim == float_.dim == dim
    stacked = np.array(
        [b.to_numpy().ravel() for b in dense_basis(exact) + dense_basis(float_)]
    )
    assert np.linalg.matrix_rank(stacked, tol=1e-8) == dim


def test_float_blocks_of_one_shape_share_one_svd(monkeypatch):
    # 2 z^n: the blocks of z^n, scaled, where z^n itself takes the chain path
    p = TruncationParams(2, 2, 7)
    T = power_symbol(p, mode="float")
    T = SparseMatrix({k: 2 * s for k, s in T.entries.items()}, p.d, p.d, "float")
    rows = commutation_rows_reference(T)
    # each block with rows as a dense array, grouped by shape; equal
    # contents give one distinct block
    distinct: dict[tuple[int, int], set[bytes]] = {}
    for cols, block in components(rows, p.d * p.d):
        if block:
            dense = np.zeros((len(block), len(cols)), dtype=complex)
            for i, row in enumerate(block):
                for c, v in row.items():
                    dense[i, c] = v
            distinct.setdefault(dense.shape, set()).add(dense.tobytes())
    assert len(distinct) == 12
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    commutant_basis(T, tol=TOL)
    assert 0 < len(calls) <= 12
    # one stack per shape, holding each distinct block of that shape once
    assert Counter(calls) == Counter(
        (len(found), height, width) for (height, width), found in distinct.items()
    )


PARTS = st.floats(-3, 3, allow_nan=False).filter(lambda x: x == 0 or abs(x) > 1e-3)


@st.composite
def sparse_float_operators(draw):
    """A float matrix of size 1 to 5, mostly zeros, with complex entries.
    Diagonal entries come from a short list, so that A[a][a] - A[b][b]
    often cancels, and empty rows and columns leave unknowns P[u][v] (with
    column u and row v of A zero) in no equation."""
    d = draw(st.integers(1, 5))
    diagonal = st.sampled_from([0j, 0j, 1 + 0j, 0.5 - 2j])
    entry = st.one_of(st.just(0j), st.just(0j), st.builds(complex, PARTS, PARTS))
    return sparse(
        [[draw(diagonal if u == v else entry) for v in range(d)] for u in range(d)], "float"
    )


@settings(max_examples=120, deadline=None)
@given(sparse_float_operators())
@example(sparse([[0, 0], [1j, 0]], "float"))  # P[1][0] is in no equation
@example(sparse([[2, 0], [0, 2]], "float"))  # every equation cancels
def test_float_systems_match_the_dict_rows(A):
    ncols = A.rows * A.rows
    terms = float_terms(A)
    rows = commutation_rows_reference(A)
    assert rows_of_terms(terms) == rows
    assert blocks_as_components(float_blocks(terms, ncols)) == components(rows, ncols)
