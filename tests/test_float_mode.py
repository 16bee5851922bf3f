import numpy as np
import pytest

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
from hardyshift.linalg import components
from hardyshift.matrices import SparseMatrix

from helpers import (
    DenseMatrix,
    build_intertwiner,
    commutation_rows_reference,
    dense,
    dense_basis,
    direct_sum,
    is_projection,
    matrices_close,
    rank_reference,
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
    assert rank_reference(T, TOL) == p.m * (p.N - p.n)
    # read off the partial-permutation scan, and by SVD once T is scaled
    assert operator_rank(T, TOL) == rank_reference(T, TOL)
    doubled = SparseMatrix({k: 2 * s for k, s in T.entries.items()}, p.d, p.d, "float")
    assert operator_rank(doubled, TOL) == rank_reference(T, TOL)


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


def test_float_blocks_take_one_svd_each_in_component_order(monkeypatch):
    # 2 z^n: the blocks of z^n, scaled, where z^n itself takes the chain path
    p = TruncationParams(2, 2, 7)
    T = power_symbol(p, mode="float")
    T = SparseMatrix({k: 2 * s for k, s in T.entries.items()}, p.d, p.d, "float")
    rows = commutation_rows_reference(T)
    # the shape of each block with rows, in component order
    shapes = [(len(block), len(cols)) for cols, block in components(rows, p.d * p.d) if block]
    assert len(set(shapes)) == 12
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    commutant_basis(T, tol=TOL)
    # one SVD per block with rows, of that block's shape, in component
    # order: blocks of one shape are not batched into one call
    assert calls == shapes

