import numpy as np
import pytest

from hardyshift import (
    DenseMatrix,
    TruncationParams,
    commutant_basis,
    enumerate_lattice,
    power_symbol,
    scalar_shift,
    selfadjoint_commutant_dim,
    vector_shift,
    verify_equivalence,
)
from hardyshift.errors import RankAmbiguityError
from hardyshift.matrices import matrices_close

from helpers import build_intertwiner, direct_sum, is_projection

TOL = 1e-9


def test_float_builders_match_exact():
    p = TruncationParams(2, 2, 2)
    builds = (
        lambda mode: power_symbol(p, mode).to_dense(),
        lambda mode: vector_shift(p, mode).to_dense(),
        lambda mode: build_intertwiner(p, mode),
    )
    for build in builds:
        exact = build("exact").to_numpy()
        float_ = build("float").to_numpy()
        assert np.array_equal(exact, float_)


def test_float_equivalence():
    for p in [TruncationParams(2, 2, 2), TruncationParams(1, 3, 2)]:
        rep = verify_equivalence(p, mode="float", tol=TOL)
        assert rep.ok


def test_float_commutant_dims():
    J = scalar_shift(3, mode="float").to_dense()
    cb = commutant_basis(J, tol=TOL)
    assert cb.dim == 3
    for b in cb.basis:
        assert matrices_close(J @ b, b @ J, tol=1e-7)
    assert selfadjoint_commutant_dim(J, tol=TOL) == 1
    D = direct_sum([scalar_shift(2, mode="float").to_dense()] * 2)
    assert selfadjoint_commutant_dim(D, tol=TOL) == 4


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
    rep = enumerate_lattice(p, mode="float", tol=TOL)
    assert rep.counts.reducing_count == 16
    assert all(mc.is_minimal for mc in rep.minimal_channels)
    assert rep.full_selfadjoint_commutant_dim == p.r ** 2


def test_rank_ambiguity_raised_near_tol():
    # singular values of the commutation system of diag(0, s) sit at 0 and s;
    # s equal to tol is exactly the undecidable band
    A = DenseMatrix([[0.0, 0.0], [0.0, 1e-9]], mode="float")
    with pytest.raises(RankAmbiguityError):
        commutant_basis(A, tol=TOL)
    with pytest.raises(RankAmbiguityError):
        selfadjoint_commutant_dim(A, tol=TOL)


def test_rank_ambiguity_band_edges():
    # an order of magnitude away on either side is decidable again
    for s in (1e-12, 1e-6):
        A = DenseMatrix([[0.0, 0.0], [0.0, s]], mode="float")
        commutant_basis(A, tol=TOL)  # must not raise
    clean = DenseMatrix([[0.0, 0.0], [0.0, 1.0]], mode="float")
    assert commutant_basis(clean, tol=TOL).dim == 2


def test_float_rank_of_power_operator():
    p = TruncationParams(2, 2, 3)
    T = power_symbol(p, mode="float")
    assert T.to_dense().rank(tol=TOL) == p.m * (p.N - p.n)


def test_float_projection_predicate():
    P = DenseMatrix([[1.0 + 1e-12, 0.0], [0.0, 0.0]], mode="float")
    assert is_projection(P, tol=1e-9)
    assert not is_projection(P)


def test_float_commutant_basis_echelon_deterministic():
    J = scalar_shift(3, mode="float")
    a = commutant_basis(J, tol=TOL)
    b = commutant_basis(J, tol=TOL)
    for x, y in zip(a.basis, b.basis):
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
        [b.to_numpy().ravel() for b in exact.basis + float_.basis]
    )
    assert np.linalg.matrix_rank(stacked, tol=1e-8) == dim
