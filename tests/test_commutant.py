import dataclasses
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyshift import (
    DenseMatrix,
    GaussianRational,
    TruncationParams,
    build_intertwiner,
    channel_basis,
    commutant_basis,
    direct_sum,
    is_block_lower_toeplitz,
    is_lower_toeplitz,
    is_projection,
    power_symbol,
    restrict,
    scalar_shift,
    selfadjoint_commutant_dim,
)
from hardyshift.commutant import _selfadjoint_rows, _sym_var_ids
from hardyshift.decomposition import channel_order
from hardyshift.errors import InvarianceError, ShapeError
from hardyshift.operators import symbol_from_json, toeplitz_matrix

from helpers import in_span, rand_gaussian_rational


def test_shift_commutant_is_lower_toeplitz_span():
    J = scalar_shift(3)
    cb = commutant_basis(J)
    assert cb.dim == 3
    for b in cb.basis:
        assert is_lower_toeplitz(b)
        assert (J @ b - b @ J).is_zero()
    # the powers of the shift generate it
    for k in range(3):
        assert in_span(cb.basis, J ** k)


def test_commutant_dims_of_reference_matrices():
    assert commutant_basis(DenseMatrix.identity(3)).dim == 9
    assert commutant_basis(DenseMatrix.zeros(2, 2)).dim == 4
    assert commutant_basis(DenseMatrix.diagonal([1, 2])).dim == 2
    assert commutant_basis(scalar_shift(5)).dim == 5


def test_commutant_requires_square():
    with pytest.raises(ShapeError):
        commutant_basis(DenseMatrix.zeros(2, 3))


def test_commutant_of_shift_sum():
    # r equal shift blocks of size K: dimension r^2 * K
    for r, K in [(2, 2), (2, 3), (3, 2)]:
        A = direct_sum([scalar_shift(K)] * r)
        cb = commutant_basis(A)
        assert cb.dim == r * r * K
        for b in cb.basis:
            assert (A @ b - b @ A).is_zero()
            assert is_block_lower_toeplitz(b, K)


def test_commutant_basis_is_independent():
    cb = commutant_basis(scalar_shift(4))
    from helpers import span_rank

    assert span_rank(list(cb.basis)) == cb.dim


def test_power_operator_commutant_via_intertwiner():
    p = TruncationParams(2, 2, 2)
    T = power_symbol(p)
    cb = commutant_basis(T)
    assert cb.dim == p.r ** 2 * p.K
    X = build_intertwiner(p)
    Xh = X.adjoint()
    for b in cb.basis:
        assert is_block_lower_toeplitz(Xh @ b @ X, p.K)


def test_relabeled_block_check_matches_dense_conjugation():
    # reading through the channel order is X* P X without the products;
    # one changed entry must break it either way
    p = TruncationParams(2, 2, 2)
    order = channel_order(p)
    X = build_intertwiner(p)
    Xh = X.adjoint()
    P = commutant_basis(power_symbol(p)).basis[0]
    assert is_block_lower_toeplitz(P, p.K, order=order)
    one = GaussianRational(1)
    for a, b in ((0, 1), (1, 1), (p.K + 1, 1)):
        rows = [list(r) for r in P.entries]
        rows[order[a]][order[b]] = rows[order[a]][order[b]] + one
        Q = DenseMatrix(rows)
        assert not is_block_lower_toeplitz(Q, p.K, order=order)
        assert not is_block_lower_toeplitz(Xh @ Q @ X, p.K)


def test_cli_lemma3_audit_fails_on_a_changed_basis_element(tmp_path, monkeypatch):
    import hardyshift.cli as cli

    real = cli.commutant_basis

    def doctored(A, tol=None):
        cb = real(A, tol)
        order = channel_order(TruncationParams(2, 2, 2))
        rows = [list(r) for r in cb.basis[3].entries]
        rows[order[0]][order[1]] = GaussianRational(5)
        basis = list(cb.basis)
        basis[3] = DenseMatrix(rows)
        return dataclasses.replace(cb, basis=tuple(basis))

    monkeypatch.setattr(cli, "commutant_basis", doctored)
    out = tmp_path / "report.json"
    code = cli.main([
        "commutant", "--m", "2", "--n", "2", "--blocks", "2", "--out", str(out),
    ])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["commutant"]["lemma3_structure_ok"] is False
    assert report["checks"]["lemma3_structure_ok"] is False


def test_lower_toeplitz_predicate():
    assert is_lower_toeplitz(DenseMatrix.identity(3))
    assert is_lower_toeplitz(scalar_shift(4))
    good = DenseMatrix([[1, 0, 0], [2, 1, 0], [3, 2, 1]])
    assert is_lower_toeplitz(good)
    assert not is_lower_toeplitz(DenseMatrix([[1, 1], [0, 1]]))
    assert not is_lower_toeplitz(DenseMatrix([[1, 0], [2, 3]]))
    assert not is_lower_toeplitz(DenseMatrix.zeros(2, 3))


def test_lower_toeplitz_generated_matrices_commute_with_shift():
    # converse direction of the structure theorem, on random instances
    rng = random.Random(21)
    L = 5
    J = scalar_shift(L)
    for _ in range(10):
        diag_vals = [rand_gaussian_rational(rng) for _ in range(L)]
        rows = [
            [diag_vals[u - v] if u >= v else GaussianRational(0) for v in range(L)]
            for u in range(L)
        ]
        P = DenseMatrix(rows)
        assert is_lower_toeplitz(P)
        assert (J @ P - P @ J).is_zero()


def test_block_lower_toeplitz_predicate():
    p = DenseMatrix([[1, 0, 2, 0], [3, 1, 4, 2], [5, 0, 6, 0], [7, 5, 8, 6]])
    assert is_block_lower_toeplitz(p, 2)
    assert not is_block_lower_toeplitz(p, 4)
    assert not is_block_lower_toeplitz(p, 3)  # size does not divide
    # swapping the two blocks' indices keeps every block lower Toeplitz
    assert is_block_lower_toeplitz(p, 2, order=[2, 3, 0, 1])
    assert not is_block_lower_toeplitz(p, 2, order=[1, 0, 2, 3])
    with pytest.raises(ValueError):
        is_block_lower_toeplitz(p, 2, order=[0, 0, 1, 2])


def test_selfadjoint_dims_reference_values():
    for K in range(1, 6):
        assert selfadjoint_commutant_dim(scalar_shift(K)) == 1
    assert selfadjoint_commutant_dim(DenseMatrix.identity(3)) == 9
    assert selfadjoint_commutant_dim(DenseMatrix.zeros(2, 2)) == 4
    assert selfadjoint_commutant_dim(direct_sum([scalar_shift(2)] * 2)) == 4
    assert selfadjoint_commutant_dim(direct_sum([scalar_shift(3)] * 3)) == 9


def test_selfadjoint_dim_of_power_operator():
    for p in [
        TruncationParams(1, 2, 2),
        TruncationParams(2, 1, 3),
        TruncationParams(2, 2, 2),
    ]:
        assert selfadjoint_commutant_dim(power_symbol(p)) == p.r ** 2


def test_selfadjoint_dim_with_complex_entries():
    # A = i*J: commutant unchanged, realified system exercises the C-part
    J = scalar_shift(3)
    A = J.scaled(GaussianRational(0, 1))
    assert selfadjoint_commutant_dim(A) == 1
    assert commutant_basis(A).dim == 3
    # B^2 = iI, so the commutant is span{I, B}; bB is Hermitian on one real
    # line of b, and the sign of the antisymmetric part decides it
    B = DenseMatrix([[0, 1], [GaussianRational(0, 1), 0]])
    assert selfadjoint_commutant_dim(B) == 2
    C = DenseMatrix([[0, 0], [GaussianRational(1, 1), 0]])
    assert selfadjoint_commutant_dim(C) == 1


def test_selfadjoint_single_block_edge():
    # K = 1 truncation: the operator is 0 and everything commutes
    p = TruncationParams(2, 2, 1)
    assert selfadjoint_commutant_dim(power_symbol(p)) == p.d ** 2


def test_is_projection():
    assert is_projection(DenseMatrix.identity(2))
    assert is_projection(DenseMatrix.zeros(2, 2))
    assert is_projection(DenseMatrix.diagonal([1, 0, 1]))
    half = DenseMatrix([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]])
    assert is_projection(half)
    assert not is_projection(DenseMatrix.diagonal([1, 2]))
    assert not is_projection(scalar_shift(2))
    skew = DenseMatrix([[0, 1], [0, 0]])
    assert not is_projection(skew)


def test_restrict_compresses_invariant_subspace():
    p = TruncationParams(2, 2, 2)
    T = power_symbol(p)
    cb = channel_basis(1, 0, p)
    R = restrict(T, cb)
    assert R == scalar_shift(p.K)
    # also accepts a raw index sequence
    assert restrict(T, cb.flat_indices) == scalar_shift(p.K)
    # the identity compresses to the identity on any channel
    assert restrict(DenseMatrix.identity(p.d), cb) == DenseMatrix.identity(p.K)


def test_restrict_rejects_non_invariant_subspace():
    p = TruncationParams(1, 2, 2)
    T = power_symbol(p)
    with pytest.raises(InvarianceError):
        restrict(T, (0, 1))  # crosses channels, z^2 leaks out of the span
    with pytest.raises(ValueError):
        restrict(T, (0, 0))
    with pytest.raises(IndexError):
        restrict(T, (0, 99))


def test_commutant_soundness_on_random_matrices():
    rng = random.Random(33)
    for _ in range(5):
        A = DenseMatrix(
            [[rand_gaussian_rational(rng, span=2, den=2) for _ in range(3)] for _ in range(3)]
        )
        cb = commutant_basis(A)
        assert cb.dim >= 1  # the identity always commutes
        for b in cb.basis:
            assert (A @ b - b @ A).is_zero()
        assert in_span(cb.basis, DenseMatrix.identity(3))
        assert in_span(cb.basis, A)


small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=2)
small_scalars = st.builds(GaussianRational, small_fractions, small_fractions)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(small_scalars, min_size=3, max_size=3), min_size=3, max_size=3
    )
)
def test_commutant_kernel_property(rows):
    A = DenseMatrix(rows)
    cb = commutant_basis(A)
    for b in cb.basis:
        assert (A @ b - b @ A).is_zero()


def realified_rows_reference(A):
    """The realified Hermitian system built straight from A = B + iC and
    P = X + iY: the real and imaginary parts of each equation
    (AP - PA)[a][b] = 0, written out term by term without going through
    the complex commutation rows."""
    d = A.rows

    def parts(s):
        if isinstance(s, GaussianRational):
            return s.re, s.im
        s = complex(s)
        return s.real, s.imag

    rows_nz = [[] for _ in range(d)]
    cols_nz = [[] for _ in range(d)]
    for u, v, s in A.nonzero_items():
        re, im = parts(s)
        rows_nz[u].append((v, re, im))
        cols_nz[v].append((u, re, im))

    xid, yid = _sym_var_ids(d)

    def xvar(u, v):
        return xid[(u, v)] if u <= v else xid[(v, u)]

    def yvar(u, v):
        # (var, sign), or None on the diagonal where Y vanishes
        if u == v:
            return None
        if u < v:
            return yid[(u, v)], 1
        return yid[(v, u)], -1

    def add(row, var, coeff):
        if var is None or not coeff:
            return
        cur = row.get(var)
        nv = coeff if cur is None else cur + coeff
        if nv:
            row[var] = nv
        elif cur is not None:
            del row[var]

    rows = []
    for a in range(d):
        for b in range(d):
            real_row, imag_row = {}, {}
            for w, bre, bim in rows_nz[a]:
                # A[a][w] * P[w][b]
                add(real_row, xvar(w, b), bre)
                yv = yvar(w, b)
                if yv is not None:
                    add(real_row, yv[0], -bim * yv[1])
                    add(imag_row, yv[0], bre * yv[1])
                add(imag_row, xvar(w, b), bim)
            for w, bre, bim in cols_nz[b]:
                # -P[a][w] * A[w][b]
                add(real_row, xvar(a, w), -bre)
                yv = yvar(a, w)
                if yv is not None:
                    add(real_row, yv[0], bim * yv[1])
                    add(imag_row, yv[0], -bre * yv[1])
                add(imag_row, xvar(a, w), -bim)
            if real_row:
                rows.append(real_row)
            if imag_row:
                rows.append(imag_row)
    return rows


def linear_forms(rows):
    return Counter(frozenset(row.items()) for row in rows)


def assert_rows_match_reference(A):
    rows = _selfadjoint_rows(A)
    if A.mode == "exact":
        assert all(type(c) is Fraction for row in rows for c in row.values())
    assert linear_forms(rows) == linear_forms(realified_rows_reference(A))


# denominators 1 and 2 keep every float sum exact, so both modes compare
# with ==; zero entries come up often enough to exercise cancellation
dyadic = st.fractions(min_value=-2, max_value=2, max_denominator=2)
entries = st.one_of(st.just(GaussianRational(0)), st.builds(GaussianRational, dyadic, dyadic))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda k: st.lists(
            st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k
        )
    ),
    st.sampled_from(["exact", "float"]),
)
def test_selfadjoint_rows_split_the_commutation_rows(rows, mode):
    assert_rows_match_reference(DenseMatrix(rows, mode))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_selfadjoint_rows_of_the_benchmark_symbol(mode):
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "symbol_F.json"
    symbol = symbol_from_json(json.loads(path.read_text()), mode)
    A = toeplitz_matrix(symbol, TruncationParams(2, 1, 8))
    assert_rows_match_reference(A)
    assert selfadjoint_commutant_dim(A, 1e-9 if mode == "float" else None) == 1
