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
    channel_basis,
    commutant_basis,
    is_block_lower_toeplitz,
    is_lower_toeplitz,
    linalg,
    power_symbol,
    restrict,
    scalar_shift,
    scalars,
    selfadjoint_commutant_dim,
)
from hardyshift.commutant import (
    _commutation_rows,
    _partial_permutation,
    _selfadjoint_rows,
    _sym_var_ids,
    toeplitz_break,
)
from hardyshift.decomposition import channel_order
from hardyshift.errors import InvarianceError, ShapeError
from hardyshift.matrices import SparseMatrix
from hardyshift.operators import symbol_from_json, toeplitz_matrix
from hardyshift.scalars import scalar_is_zero, scalars_close, zero

from helpers import (
    build_intertwiner,
    direct_sum,
    in_span,
    is_projection,
    rand_gaussian_rational,
    restrict_reference,
)


def test_shift_commutant_is_lower_toeplitz_span():
    J = scalar_shift(3).to_dense()
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
        A = direct_sum([scalar_shift(K).to_dense()] * r)
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


def test_cli_lemma3_audit_fails_on_a_changed_basis_element(
    tmp_path, monkeypatch, capsys
):
    import hardyshift.cli as cli

    real = cli.commutant_basis
    order = channel_order(TruncationParams(2, 2, 2))

    def doctored(A, tol=None):
        cb = real(A, tol)
        entries = dict(cb.elements[3].entries)
        entries[(order[0], order[1])] = GaussianRational(5)
        elements = list(cb.elements)
        elements[3] = dataclasses.replace(cb.elements[3], entries=entries)
        return dataclasses.replace(cb, elements=tuple(elements))

    monkeypatch.setattr(cli, "commutant_basis", doctored)
    out = tmp_path / "report.json"
    code = cli.main([
        "commutant", "--m", "2", "--n", "2", "--blocks", "2", "--out", str(out),
    ])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["commutant"]["lemma3_structure_ok"] is False
    assert report["checks"]["lemma3_structure_ok"] is False
    assert (
        "commutant basis element 3 is not block lower Toeplitz at entry "
        f"({order[0]}, {order[1]})"
    ) in capsys.readouterr().err


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
    J = scalar_shift(L).to_dense()
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


def dense_block_toeplitz_reference(P, block_size, tol=None, order=None):
    """The dense scan that ``is_block_lower_toeplitz`` used before it read
    only the nonzeros: every entry of the relabeled matrix, the upper part
    of each block against zero and every other entry against its diagonal
    predecessor, skipping pairs of two zero objects."""
    n = P.rows
    if P.cols != n or block_size < 1 or n % block_size:
        return False
    if order is None:
        order = range(n)
    elif sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the row indices")
    entries = P.entries
    z = zero(P.mode)
    cols = [(order[b], b % block_size, order[b - 1]) for b in range(n)]
    for a in range(n):
        u = a % block_size
        row = entries[order[a]]
        above = entries[order[a - 1]] if u else None
        for f, v, g in cols:
            s = row[f]
            if u < v:
                if s is not z and not scalar_is_zero(s, tol):
                    return False
            elif u and v:
                t = above[g]
                if (s is not z or t is not z) and not scalars_close(s, t, tol):
                    return False
    return True


AUDIT_TOL = 1e-6
AUDIT_CHANGES = ("none", "above", "mid", "first", "last", "below_tol", "above_tol")


@st.composite
def changed_block_toeplitz(draw):
    """A relabeled block lower Toeplitz matrix with at most one entry
    changed: (mode, P, K, order, change)."""
    mode = draw(st.sampled_from(["exact", "float"]))
    r, K = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    n = r * K
    order = draw(st.permutations(range(n)))
    values = st.one_of(st.just(0), st.integers(-3, 3))
    diags = {
        (i, j): draw(st.lists(values, min_size=K, max_size=K))
        for i in range(r)
        for j in range(r)
    }
    Q = [
        [
            Fraction(diags[a // K, b // K][a % K - b % K]) if a % K >= b % K else Fraction(0)
            for b in range(n)
        ]
        for a in range(n)
    ]
    change = draw(st.sampled_from(AUDIT_CHANGES))
    i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
    k = draw(st.integers(0, K - 1))  # diagonal u - v = k of block (i, j)
    t = draw(st.integers(0, K - 1 - k))  # position along it
    if change == "above" and K > 1:
        u = draw(st.integers(0, K - 2))
        v = draw(st.integers(u + 1, K - 1))
        Q[i * K + u][j * K + v] = Fraction(draw(st.sampled_from([-2, -1, 1, 3])))
    elif change == "mid":
        if K - k >= 3:
            t = draw(st.integers(1, K - 2 - k))
        Q[i * K + k + t][j * K + t] += 1
    elif change == "first":
        Q[i * K + k][j * K] = Fraction(0)
    elif change == "last":
        Q[i * K + K - 1][j * K + K - 1 - k] = Fraction(0)
    elif change in ("below_tol", "above_tol"):
        step = Fraction(9 if change == "below_tol" else 11, 10) * Fraction(AUDIT_TOL)
        Q[i * K + k + t][j * K + t] += step
    grid = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            q = Q[a][b]
            grid[order[a]][order[b]] = GaussianRational(q) if mode == "exact" else complex(q)
    return mode, DenseMatrix(grid, mode), K, order, change


@settings(max_examples=300, deadline=None)
@given(changed_block_toeplitz())
def test_sparse_audit_matches_the_dense_scan(case):
    mode, P, K, order, change = case
    tol = AUDIT_TOL if mode == "float" else None
    expected = dense_block_toeplitz_reference(P, K, tol, order)
    sparse = SparseMatrix(
        {(u, v): s for u, v, s in P.nonzero_items()}, P.rows, P.cols, mode
    )
    assert is_block_lower_toeplitz(P, K, tol, order) == expected
    assert is_block_lower_toeplitz(sparse, K, tol, order) == expected
    assert (toeplitz_break(sparse, K, tol, order) is None) == expected
    if change == "none" or (change == "below_tol" and mode == "float"):
        assert expected
    if change == "above" and K > 1:
        assert not expected


def test_selfadjoint_dims_reference_values():
    for K in range(1, 6):
        assert selfadjoint_commutant_dim(scalar_shift(K)) == 1
    assert selfadjoint_commutant_dim(DenseMatrix.identity(3)) == 9
    assert selfadjoint_commutant_dim(DenseMatrix.zeros(2, 2)) == 4
    assert selfadjoint_commutant_dim(direct_sum([scalar_shift(2).to_dense()] * 2)) == 4
    assert selfadjoint_commutant_dim(direct_sum([scalar_shift(3).to_dense()] * 3)) == 9


def test_selfadjoint_dim_of_power_operator():
    for p in [
        TruncationParams(1, 2, 2),
        TruncationParams(2, 1, 3),
        TruncationParams(2, 2, 2),
    ]:
        assert selfadjoint_commutant_dim(power_symbol(p)) == p.r ** 2
        # -T has the commutant of T, but no chain walk: its blocks read
        # x = -y and go to elimination
        neg = power_symbol(p).to_dense().scaled(-1)
        assert selfadjoint_commutant_dim(neg) == p.r ** 2
        assert commutant_basis(neg).dim == p.r ** 2 * p.K


def test_selfadjoint_dim_with_complex_entries():
    # A = i*J: commutant unchanged, realified system exercises the C-part
    J = scalar_shift(3).to_dense()
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
    assert not is_projection(scalar_shift(2).to_dense())
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
    assert restrict(DenseMatrix.identity(p.d), cb).to_dense() == DenseMatrix.identity(p.K)


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


RESTRICT_TOL = 1e-6
# float entries at zero, just inside and just outside RESTRICT_TOL
NEAR_TOL = (0j, complex(-0.0, 0.0), 0.9 * RESTRICT_TOL, -0.9j * RESTRICT_TOL,
            1.1 * RESTRICT_TOL, -1.1j * RESTRICT_TOL)


@st.composite
def restriction_cases(draw):
    """(A, indices, tol): a random exact or float matrix, stored dense or
    sparse, and distinct indices in a random order.  Half the draws clear
    every leak (to entries within tol in float mode), so that both the
    compression and the InvarianceError get exercised."""
    mode = draw(st.sampled_from(["exact", "float"]))
    d = draw(st.integers(min_value=1, max_value=6))
    if mode == "exact":
        tol, small = None, st.just(GaussianRational(0))
        values = st.one_of(small, small, small_scalars)
    else:
        tol, small = RESTRICT_TOL, st.sampled_from(NEAR_TOL[:4])
        values = st.one_of(
            st.sampled_from(NEAR_TOL),
            st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
        )
    grid = [[draw(values) for _ in range(d)] for _ in range(d)]
    indices = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
    if draw(st.booleans()):
        for u in set(range(d)) - set(indices):
            for v in indices:
                grid[u][v] = draw(small)
    A = DenseMatrix(grid, mode)
    if draw(st.booleans()):
        A = SparseMatrix({(u, v): s for u, v, s in A.nonzero_items()}, d, d, mode)
    return A, indices, tol


@settings(max_examples=300, deadline=None)
@given(restriction_cases())
def test_restrict_matches_the_dense_scan(case):
    A, indices, tol = case
    dense = A if isinstance(A, DenseMatrix) else A.to_dense()
    try:
        want = restrict_reference(dense, indices, tol)
    except InvarianceError as exc:
        with pytest.raises(InvarianceError) as got:
            restrict(A, indices, tol)
        assert str(got.value) == str(exc)
    else:
        got = restrict(A, indices, tol)
        assert isinstance(got, SparseMatrix)
        assert got.to_dense() == want
        assert list(got.nonzero_items()) == list(want.nonzero_items())


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


@st.composite
def partial_permutations(draw):
    """An exact 0/1 matrix with A e_v = e_succ(v) or 0: its indices split
    into open chains of mixed lengths (a chain of one index leaves its row
    and its column empty) and cycles (a cycle of one is a fixed point),
    labelled by a random permutation."""
    pieces = draw(st.lists(
        st.tuples(st.sampled_from(["chain", "cycle"]), st.integers(1, 4)),
        min_size=1, max_size=4,
    ))
    d = sum(length for _, length in pieces)
    label = draw(st.permutations(range(d)))
    grid = [[0] * d for _ in range(d)]
    start = 0
    for kind, length in pieces:
        path = [label[start + i] for i in range(length)]
        start += length
        for v, u in zip(path, path[1:] + path[:1] if kind == "cycle" else path[1:]):
            grid[u][v] = 1
    return DenseMatrix(grid, "exact")


def assert_matches_the_commutation_system(A, tol=None):
    """The commutant basis and the self-adjoint dimension against the
    kernel and the nullity of the commutation systems, in value, repr and
    order."""
    d = A.rows
    reference = [
        {divmod(k, d): s for k, s in vec.items()}
        for vec in linalg.kernel_basis(_commutation_rows(A), d * d, A.mode, tol)
    ]
    found = [P.entries for P in commutant_basis(A, tol).elements]
    assert [list(P.items()) for P in found] == [list(P.items()) for P in reference]
    assert repr(found) == repr(reference)
    assert selfadjoint_commutant_dim(A, tol) == linalg.nullity(
        _selfadjoint_rows(A), d * d, A.mode, tol
    )


@settings(max_examples=150, deadline=None)
@given(partial_permutations())
def test_chain_path_matches_the_commutation_system(A):
    assert _partial_permutation(A) is not None
    assert_matches_the_commutation_system(A)
    # the Lemma-3 audit's identity shortcut relies on the shared one
    assert all(
        s is scalars.one("exact") for P in commutant_basis(A).elements for s in P.entries.values()
    )


@pytest.mark.parametrize("m,n,K", [(1, 1, 1), (2, 2, 3), (3, 2, 2), (2, 3, 4)])
def test_chain_path_matches_the_commutation_system_for_powers(m, n, K):
    T = power_symbol(TruncationParams(m, n, K))
    assert _partial_permutation(T) is not None
    assert_matches_the_commutation_system(T)


@pytest.mark.parametrize(
    "change",
    [(4, 0, 2), (4, 0, -1), (4, 8, 1), (0, 0, 1), "float"],
    ids=["two", "minus-one", "second-in-row", "second-in-column", "float"],
)
def test_other_operators_decline_the_chain_path(change):
    # z^2 on C^2 at K = 3: T[u][v] = 1 where u = v + 4, so rows 0-3 and
    # columns 8-11 are empty
    params = TruncationParams(2, 2, 3)
    if change == "float":
        A, tol = power_symbol(params, "float"), 1e-9
    else:
        u, v, value = change
        rows = [list(r) for r in power_symbol(params).to_dense().entries]
        rows[u][v] = GaussianRational(value)
        A, tol = DenseMatrix(rows), None
    assert _partial_permutation(A) is None
    assert_matches_the_commutation_system(A, tol)
