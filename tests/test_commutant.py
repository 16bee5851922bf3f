import json
import random
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyshift import (
    CommutantBasis,
    GaussianRational,
    MatrixSymbol,
    TruncationParams,
    channel_flats,
    channels,
    check_minimal,
    commutant_basis,
    is_block_lower_toeplitz,
    linalg,
    power_symbol,
    scalar_shift,
    scalars,
    selfadjoint_commutant_dim,
)
from hardyshift.commutant import (
    _commutation_rows,
    _stride,
    chain_view,
    operator_rank,
    toeplitz_break,
)
from hardyshift.errors import RankAmbiguityError, ShapeError
from hardyshift.matrices import SparseMatrix
from hardyshift.operators import symbol_from_json, toeplitz_matrix
from hardyshift.scalars import scalar_is_zero

from helpers import (
    DenseMatrix,
    build_intertwiner,
    channel_flats_reference,
    channel_order_reference,
    commutation_rows_reference,
    dense,
    dense_basis,
    dense_block_toeplitz_reference,
    direct_sum,
    in_span,
    is_lower_toeplitz,
    is_projection,
    rand_gaussian_rational,
    rank_reference,
    restrict_reference,
    selfadjoint_rows_reference,
    sparse,
)


def test_shift_commutant_is_lower_toeplitz_span():
    J = dense(scalar_shift(3))
    cb = commutant_basis(scalar_shift(3))
    assert cb.dim == 3
    for b in dense_basis(cb):
        assert is_lower_toeplitz(b)
        assert (J @ b - b @ J).is_zero()
    # the powers of the shift generate it
    for k in range(3):
        assert in_span(dense_basis(cb), J ** k)


def test_commutant_dims_of_reference_matrices():
    assert commutant_basis(sparse(DenseMatrix.identity(3))).dim == 9
    assert commutant_basis(sparse(DenseMatrix.zeros(2, 2))).dim == 4
    assert commutant_basis(sparse(DenseMatrix.diagonal([1, 2]))).dim == 2
    assert commutant_basis(scalar_shift(5)).dim == 5


def test_commutant_requires_square():
    with pytest.raises(ShapeError):
        commutant_basis(sparse(DenseMatrix.zeros(2, 3)))


def test_commutant_of_shift_sum():
    # r equal shift blocks of size K: dimension r^2 * K.  They are X* T X
    # for z^r on the scalar Hardy space, so X b X* is read by the relabel
    for r, K in [(2, 2), (2, 3), (3, 2)]:
        A = direct_sum([dense(scalar_shift(K))] * r)
        cb = commutant_basis(sparse(A))
        assert cb.dim == r * r * K
        p = TruncationParams(1, r, K)
        X = build_intertwiner(p)
        for b in dense_basis(cb):
            assert (A @ b - b @ A).is_zero()
            assert dense_block_toeplitz_reference(b, K)
            assert is_block_lower_toeplitz(sparse(X @ b @ X.adjoint()), p)


def test_commutant_basis_is_independent():
    cb = commutant_basis(scalar_shift(4))
    from helpers import span_rank

    assert span_rank(list(dense_basis(cb))) == cb.dim


def test_power_operator_commutant_via_intertwiner():
    p = TruncationParams(2, 2, 2)
    T = power_symbol(p)
    cb = commutant_basis(T)
    assert cb.dim == p.r ** 2 * p.K
    X = build_intertwiner(p)
    Xh = X.adjoint()
    for b in dense_basis(cb):
        assert dense_block_toeplitz_reference(Xh @ b @ X, p.K)
        assert is_block_lower_toeplitz(sparse(b), p)


def test_relabeled_block_check_matches_dense_conjugation():
    # reading through the relabel is X* P X without the products; one
    # changed entry must break it either way
    p = TruncationParams(2, 2, 2)
    order = channel_order_reference(p)
    X = build_intertwiner(p)
    Xh = X.adjoint()
    P = dense_basis(commutant_basis(power_symbol(p)))[0]
    assert is_block_lower_toeplitz(sparse(P), p)
    one = GaussianRational(1)
    for a, b in ((0, 1), (1, 1), (p.K + 1, 1)):
        rows = [list(r) for r in P.entries]
        rows[order[a]][order[b]] = rows[order[a]][order[b]] + one
        Q = DenseMatrix(rows)
        assert not is_block_lower_toeplitz(sparse(Q), p)
        assert not dense_block_toeplitz_reference(Xh @ Q @ X, p.K)


@pytest.fixture
def built(monkeypatch):
    """The argument tuples of every ``SparseMatrix`` that ``commutant``
    builds while the test runs."""
    import hardyshift.commutant as commutant

    calls = []

    class Spy(SparseMatrix):
        def __init__(self, *args, **kwargs):
            calls.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(commutant, "SparseMatrix", Spy)
    return calls


def run_with_doctored_basis(monkeypatch, capsys, doctor, argv):
    """Run the CLI with ``doctor`` applied to every basis it computes;
    returns (exit code, stderr, the doctored bases)."""
    import hardyshift.cli as cli

    real, seen = cli.commutant_basis, []

    def doctored(A, tol=None):
        seen.append(doctor(real(A, tol)))
        return seen[-1]

    monkeypatch.setattr(cli, "commutant_basis", doctored)
    code = cli.main(argv)
    return code, capsys.readouterr().err, seen


def replace_chain(cb, i, keys):
    members = list(cb.members)
    members[i] = array("q", keys)
    return CommutantBasis(cb.d, cb.mode, tuple(members))


def test_cli_lemma3_audit_fails_on_a_changed_basis_element(tmp_path, monkeypatch, capsys):
    p = TruncationParams(2, 2, 2)
    order = channel_order_reference(p)
    planted = order[0] * p.d + order[1]
    out = tmp_path / "report.json"
    code, err, _ = run_with_doctored_basis(
        monkeypatch, capsys, lambda cb: replace_chain(cb, 3, sorted([*cb.members[3], planted])),
        ["commutant", "--m", "2", "--n", "2", "--blocks", "2", "--out", str(out)],
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert report["commutant"]["lemma3_structure_ok"] is False
    assert report["checks"]["lemma3_structure_ok"] is False
    assert (
        "commutant basis element 3 is not block lower Toeplitz at entry "
        f"({order[0]}, {order[1]})"
    ) in err


# Element 21 of z^2 on C^2 at K = 3 (d = 12, r = 4) is the main diagonal
# of channel pair (1, 1): flat (1, 1), (5, 5), (9, 9), keys 13, 65 and 117.
# The shifted key moves its head r columns along its row, into block
# column 1; the key in another channel pair moves its tail one column.
# A fault that takes the head (1, 1) off column offset 0 also leaves the
# basis without that head, which ``commutant_dim_matches`` names.
@pytest.mark.parametrize(
    "fault, witness, lost_head",
    [
        (lambda k: [k[0], k[2]], (9, 9), False),
        (lambda k: [k[0] + 4, k[1], k[2]], (1, 5), True),
        (lambda k: [k[0], k[1], k[2] + 1], (9, 10), False),
        (lambda k: [k[1], k[2]], (5, 5), True),
    ],
    ids=["dropped-key", "shifted-key", "other-channel-pair", "head-column-offset-1"],
)
def test_cli_lemma3_audit_names_a_planted_chain_fault(
    monkeypatch, capsys, built, fault, witness, lost_head
):
    p = TruncationParams(2, 2, 3)
    code, err, (cb,) = run_with_doctored_basis(
        monkeypatch, capsys, lambda cb: replace_chain(cb, 21, fault(cb.members[21])),
        ["commutant", "--m", "2", "--n", "2", "--blocks", "3"],
    )
    assert code == 1
    # only the failing element is read as a matrix, for its witness
    keys = {divmod(k, p.d) for k in cb.members[21]}
    assert built and all(set(args[0]) == keys for args in built)
    assert toeplitz_break(chain_view(cb.members[21], p.d, "exact"), p) == witness
    heads = "commutant_dim_matches: no basis element holds head (1, 1)\n" if lost_head else ""
    failed = "commutant_dim_matches, lemma3_structure_ok" if lost_head else "lemma3_structure_ok"
    assert err == (
        "lemma3_structure_ok: commutant basis element 21 is not block lower Toeplitz "
        f"at entry {witness}\n{heads}failed checks: {failed}\n"
    )


def test_cli_lemma3_audit_fails_on_a_changed_float_element(monkeypatch, capsys):
    # a float z^n basis keeps chains, and hands each out as a float
    # SparseMatrix view, which toeplitz_break audits once it is changed
    p = TruncationParams(2, 2, 2)
    order = channel_order_reference(p)

    def doctor(cb):
        members = list(cb.members)
        view = cb.element(3)
        assert view.mode == "float" and set(view.entries.values()) == {1 + 0j}
        entries = {**view.entries, (order[0], order[1]): 5 + 0j}
        members[3] = SparseMatrix(entries, view.rows, view.cols, view.mode)
        return CommutantBasis(cb.d, cb.mode, tuple(members))

    code, err, (cb,) = run_with_doctored_basis(
        monkeypatch, capsys, doctor,
        ["commutant", "--m", "2", "--n", "2", "--blocks", "2", "--mode", "float",
         "--tol", "1e-9"],
    )
    assert code == 1
    assert isinstance(cb.members[3], SparseMatrix)
    assert toeplitz_break(cb.element(3), p, 1e-9) == (order[0], order[1])
    assert err == (
        "lemma3_structure_ok: commutant basis element 3 is not block lower Toeplitz "
        f"at entry ({order[0]}, {order[1]})\nfailed checks: lemma3_structure_ok\n"
    )


def test_cli_lemma3_audit_names_a_chain_key_outside_the_matrix(tmp_path, monkeypatch, capsys):
    # element 0 of z^2 on C^2 at K = 3 (d = 12) is the one key 96, flat
    # (8, 0); one more step of 52 reaches key 148, flat (12, 4), a row past
    # the matrix, which the O(1) range audit refuses and which is itself the
    # witness, where the chain's view would hold no break
    out = tmp_path / "report.json"

    def extend(cb):
        assert cb.members[0] == range(96, 148, 52)
        return CommutantBasis(cb.d, cb.mode, (range(96, 200, 52), *cb.members[1:]))

    code, err, _ = run_with_doctored_basis(
        monkeypatch, capsys, extend,
        ["full-report", "--m", "2", "--n", "2", "--blocks", "3", "--out", str(out)],
    )
    assert code == 1
    assert err == (
        "lemma3_structure_ok: commutant basis element 0 is not block lower Toeplitz "
        "at entry (12, 4)\nfailed checks: lemma3_structure_ok\n"
    )
    report = json.loads(out.read_text())
    assert report["checks"]["lemma3_structure_ok"] is False and report["passed"] is False


@pytest.mark.parametrize(
    "target, name, found, expected",
    [
        ("commutant_basis", "commutant_dim_matches", 47, 48),
        ("selfadjoint_commutant_dim", "selfadjoint_dim_matches", 15, 16),
    ],
)
def test_cli_dimension_check_names_expected_and_found(
    tmp_path, monkeypatch, capsys, target, name, found, expected
):
    import hardyshift.cli as cli

    real = getattr(cli, target)

    def short_by_one(A, tol=None):
        result = real(A, tol)
        if isinstance(result, int):
            return result - 1
        return CommutantBasis(result.d, result.mode, result.members[:-1])

    monkeypatch.setattr(cli, target, short_by_one)
    out = tmp_path / "report.json"
    code = cli.main([
        "commutant", "--m", "2", "--n", "2", "--blocks", "3", "--out", str(out),
    ])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["checks"][name] is False
    assert report["commutant"]["lemma3_structure_ok"] is True
    err = capsys.readouterr().err
    assert f"{name}: found dimension {found}, expected" in err
    assert f"= {expected}" in err


def with_members(cb, members):
    return CommutantBasis(cb.d, cb.mode, tuple(members))


# At (2,2,3) (d = 12, r = 4) basis element 5 is the diagonal from (4, 1)
# and element 6 the one from (4, 2); element 3 of the float basis is the
# single key (8, 3).
@pytest.mark.parametrize("mode", [(), ("--mode", "float", "--tol", "1e-9")],
                         ids=["exact", "float"])
def test_cli_basis_certificate_names_a_duplicated_member(monkeypatch, capsys, mode):
    code, err, _ = run_with_doctored_basis(
        monkeypatch, capsys, lambda cb: with_members(cb, [*cb.members, cb.members[6]]),
        ["commutant", "--m", "2", "--n", "2", "--blocks", "3", *mode],
    )
    assert code == 1
    assert err == (
        "commutant_dim_matches: found dimension 49, expected r^2 K = 48\n"
        "commutant_dim_matches: head (4, 2) is held by basis elements 6 and 48\n"
        "failed checks: commutant_dim_matches\n"
    )


@pytest.mark.parametrize(
    "doctor, witness",
    [
        # the count holds, and every element passes the audit
        (lambda cb: with_members(cb, [*cb.members[:5], *cb.members[6:], cb.members[6]]),
         "head (4, 2) is held by basis elements 5 and 47"),
        # one element holds two diagonals and another none: rank r^2 K - 1
        (lambda cb: with_members(cb, [*cb.members[:5], array("q", sorted([*cb.members[5],
                                                                          *cb.members[6]])),
                                      array("q"), *cb.members[7:]]),
         "basis element 5 holds 2 heads, not one"),
    ],
    ids=["dropped-and-duplicated", "two-heads-in-one"],
)
def test_cli_basis_certificate_fails_a_basis_of_the_right_size(monkeypatch, capsys, doctor,
                                                                witness):
    code, err, (cb,) = run_with_doctored_basis(
        monkeypatch, capsys, doctor, ["commutant", "--m", "2", "--n", "2", "--blocks", "3"],
    )
    assert code == 1
    assert cb.dim == 48 and all(is_block_lower_toeplitz(P, TruncationParams(2, 2, 3))
                                for P in cb.members)
    assert err == f"commutant_dim_matches: {witness}\nfailed checks: commutant_dim_matches\n"


def test_cli_basis_certificate_fails_a_scaled_float_element(monkeypatch, capsys):
    # twice a diagonal is still block lower Toeplitz, but not one at its head
    def doctor(cb):
        view = cb.element(3)
        scaled = SparseMatrix({k: 2 * s for k, s in view.entries.items()}, view.rows,
                              view.cols, view.mode)
        return with_members(cb, [*cb.members[:3], scaled, *cb.members[4:]])

    code, err, (cb,) = run_with_doctored_basis(
        monkeypatch, capsys, doctor,
        ["commutant", "--m", "2", "--n", "2", "--blocks", "3", "--mode", "float", "--tol", "1e-9"],
    )
    assert code == 1
    assert isinstance(cb.members[3], SparseMatrix)
    assert err == (
        "commutant_dim_matches: basis element 3 holds (2+0j) at head (8, 3), not one\n"
        "failed checks: commutant_dim_matches\n"
    )


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
    J = dense(scalar_shift(L))
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
    # (m, n, K) = (1, 2, 2) relabels flat (0, 1, 2, 3) as (0, 2, 1, 3): q
    # read through it is p, whose two 2 x 2 blocks are lower Toeplitz
    two_blocks = TruncationParams(1, 2, 2)
    q = DenseMatrix([[p[a][b] for b in (0, 2, 1, 3)] for a in (0, 2, 1, 3)])
    assert is_block_lower_toeplitz(sparse(q), two_blocks)
    assert not is_block_lower_toeplitz(sparse(p), two_blocks)
    # one channel: no relabel, one 4 x 4 block
    assert not is_block_lower_toeplitz(sparse(p), TruncationParams(1, 1, 4))
    assert not is_block_lower_toeplitz(sparse(p), TruncationParams(1, 1, 3))  # not d x d


AUDIT_TOL = 1e-6
AUDIT_CHANGES = ("none", "above", "mid", "first", "last", "below_tol", "above_tol")


@st.composite
def changed_block_toeplitz(draw):
    """A block lower Toeplitz matrix, relabeled into flat indices by the
    channel order of its params, with at most one entry changed:
    (mode, P, params, change)."""
    mode = draw(st.sampled_from(["exact", "float"]))
    m, n = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]))
    params = TruncationParams(m, n, draw(st.integers(1, 4)))
    r, K, d = params.r, params.K, params.d
    order = channel_order_reference(params)
    values = st.one_of(st.just(0), st.integers(-3, 3))
    diags = {
        (i, j): draw(st.lists(values, min_size=K, max_size=K))
        for i in range(r)
        for j in range(r)
    }
    Q = [
        [
            Fraction(diags[a // K, b // K][a % K - b % K]) if a % K >= b % K else Fraction(0)
            for b in range(d)
        ]
        for a in range(d)
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
    grid = [[None] * d for _ in range(d)]
    for a in range(d):
        for b in range(d):
            q = Q[a][b]
            grid[order[a]][order[b]] = GaussianRational(q) if mode == "exact" else complex(q)
    return mode, DenseMatrix(grid, mode), params, change


@settings(max_examples=300, deadline=None)
@given(changed_block_toeplitz())
def test_sparse_audit_matches_the_dense_scan(case):
    mode, P, params, change = case
    tol = AUDIT_TOL if mode == "float" else None
    expected = dense_block_toeplitz_reference(
        P, params.K, tol, channel_order_reference(params)
    )
    # stored in full, zeros included, and as its nonzeros only
    assert is_block_lower_toeplitz(sparse(P, full=True), params, tol) == expected
    assert is_block_lower_toeplitz(sparse(P), params, tol) == expected
    assert (toeplitz_break(sparse(P), params, tol) is None) == expected
    if change == "none" or (change == "below_tol" and mode == "float"):
        assert expected
    if change == "above" and params.K > 1:
        assert not expected


def test_selfadjoint_dims_reference_values():
    for K in range(1, 6):
        assert selfadjoint_commutant_dim(scalar_shift(K)) == 1
    assert selfadjoint_commutant_dim(sparse(DenseMatrix.identity(3))) == 9
    assert selfadjoint_commutant_dim(sparse(DenseMatrix.zeros(2, 2))) == 4
    assert selfadjoint_commutant_dim(sparse(direct_sum([dense(scalar_shift(2))] * 2))) == 4
    assert selfadjoint_commutant_dim(sparse(direct_sum([dense(scalar_shift(3))] * 3))) == 9


def test_selfadjoint_dim_of_power_operator():
    for p in [
        TruncationParams(1, 2, 2),
        TruncationParams(2, 1, 3),
        TruncationParams(2, 2, 2),
    ]:
        assert selfadjoint_commutant_dim(power_symbol(p)) == p.r ** 2
        # -T has the commutant of T, but no chain walk: its blocks read
        # x = -y and go to elimination
        neg = sparse(dense(power_symbol(p)).scaled(-1))
        assert selfadjoint_commutant_dim(neg) == p.r ** 2
        assert commutant_basis(neg).dim == p.r ** 2 * p.K


def test_selfadjoint_dim_with_complex_entries():
    # A = i*J: commutant unchanged, its basis has imaginary entries
    J = dense(scalar_shift(3))
    A = sparse(J.scaled(GaussianRational(0, 1)))
    assert selfadjoint_commutant_dim(A) == 1
    assert commutant_basis(A).dim == 3
    # B^2 = iI, so the commutant is span{I, B}; bB is Hermitian on one real
    # line of b, and the sign of the antisymmetric part decides it
    B = sparse([[0, 1], [GaussianRational(0, 1), 0]])
    assert selfadjoint_commutant_dim(B) == 2
    C = sparse([[0, 0], [GaussianRational(1, 1), 0]])
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
    assert not is_projection(dense(scalar_shift(2)))
    skew = DenseMatrix([[0, 1], [0, 0]])
    assert not is_projection(skew)


def test_commutant_soundness_on_random_matrices():
    rng = random.Random(33)
    for _ in range(5):
        A = DenseMatrix(
            [[rand_gaussian_rational(rng, span=2, den=2) for _ in range(3)] for _ in range(3)]
        )
        cb = commutant_basis(sparse(A))
        assert cb.dim >= 1  # the identity always commutes
        for b in dense_basis(cb):
            assert (A @ b - b @ A).is_zero()
        assert in_span(dense_basis(cb), DenseMatrix.identity(3))
        assert in_span(dense_basis(cb), A)


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
    cb = commutant_basis(sparse(A))
    for b in dense_basis(cb):
        assert (A @ b - b @ A).is_zero()


MINIMALITY_TOL = 1e-6
# float entries at zero, just inside and just outside MINIMALITY_TOL
NEAR_TOL = (0j, complex(-0.0, 0.0), 0.9 * MINIMALITY_TOL, -0.9j * MINIMALITY_TOL,
            1.1 * MINIMALITY_TOL, -1.1j * MINIMALITY_TOL)


@st.composite
def minimality_cases(draw):
    """(T, params, tol): a random exact or float d x d matrix, stored in
    full (zeros included) or as its nonzeros, with entries inside and
    across channels alike.  Every entry that joins a random set of channels
    to another channel is then cleared (to within tol in float mode), so
    that both a joined channel and a channel's own block get exercised."""
    mode = draw(st.sampled_from(["exact", "float"]))
    params = TruncationParams(*(draw(st.integers(1, top)) for top in (2, 2, 3)))
    d, r = params.d, params.r
    if mode == "exact":
        tol, small = None, st.just(GaussianRational(0))
        values = st.one_of(small, small, small_scalars)
    else:
        tol, small = MINIMALITY_TOL, st.sampled_from(NEAR_TOL[:4])
        values = st.one_of(
            st.sampled_from(NEAR_TOL),
            st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
        )
    grid = [[draw(values) for _ in range(d)] for _ in range(d)]
    cleared = draw(st.sets(st.integers(0, r - 1)))
    for u in range(d):
        for v in range(d):
            if u % r != v % r and {u % r, v % r} & cleared:
                grid[u][v] = draw(small)
    return sparse(grid, mode, full=draw(st.booleans())), params, tol


@settings(max_examples=200, deadline=None)
@given(minimality_cases())
def test_check_minimal_matches_the_dense_restriction(case):
    # a channel with an entry beyond tol in its rows or columns outside it
    # does not reduce T; any other is solved on its dense restriction
    T, p, tol = case
    A = dense(T)
    want = []
    try:
        for c in range(p.r):
            flats = channel_flats_reference(c, p)
            crossing = [A.entries[a][b] for u in flats for v in range(p.d) if v not in flats
                        for a, b in ((u, v), (v, u))]
            if not all(scalar_is_zero(s, tol) for s in crossing):
                want.append((False, None))
                continue
            dim = selfadjoint_commutant_dim(sparse(restrict_reference(A, flats, tol)), tol)
            want.append((dim == 1, dim))
    except RankAmbiguityError:
        # the same solve on the same block decides no rank in check_minimal
        with pytest.raises(RankAmbiguityError):
            check_minimal(T, p, tol)
        return
    certs = check_minimal(T, p, tol)
    assert [cert.channel.ordinal for cert in certs] == list(range(p.r))
    assert [(cert.is_minimal, cert.restricted_selfadjoint_commutant_dim)
            for cert in certs] == want


def realified_nullity(A, tol=None):
    """The self-adjoint dimension of the reference: the kernel dimension of
    the Hermitian system over P's d^2 real unknowns, written out term by
    term from the commutation rows (``selfadjoint_rows_reference``)."""
    rows = selfadjoint_rows_reference(A)
    return len(linalg.kernel_basis(rows, A.rows * A.rows, A.mode, tol))


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
def test_selfadjoint_dim_matches_the_realified_reference(rows, mode):
    A = sparse(rows, mode)

    # the rows rref or the float block solve reads, equation by equation and
    # entry by entry, as the reference writes them; repr pins a float's bits
    def entries(system):
        return repr([list(row.items()) for row in system])

    assert entries(_commutation_rows(A)) == entries(commutation_rows_reference(A))
    if mode == "exact":
        assert selfadjoint_commutant_dim(A) == realified_nullity(A)
        return
    try:
        want = realified_nullity(A, 1e-9)
    except RankAmbiguityError:
        return  # the reference decides no rank to compare with
    # a count outside 1..D is refused, never reported
    if 1 <= want <= commutant_basis(A, 1e-9).dim:
        assert selfadjoint_commutant_dim(A, 1e-9) == want
    else:
        with pytest.raises(RankAmbiguityError, match=f"dimension {want} lies outside"):
            selfadjoint_commutant_dim(A, 1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.lists(st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k)))
def test_selfadjoint_dim_lies_between_one_and_the_commutant_dim(rows):
    # the identity is self-adjoint, and the self-adjoint part S of the
    # commutant meets iS only in 0, so 1 <= dim S <= D
    A = sparse(rows)
    assert 1 <= selfadjoint_commutant_dim(A) <= commutant_basis(A).dim


def benchmark_symbol_operator(mode, K):
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "symbol_F.json"
    symbol = symbol_from_json(json.loads(path.read_text()), mode)
    return toeplitz_matrix(symbol, TruncationParams(2, 1, K))


@pytest.mark.parametrize(
    "K, tol, found, dim",
    [(14, 1e-9, 106, 56), (12, 1e-10, 92, 48), (10, 1e-11, 76, 40), (9, 1e-12, 68, 36)],
)
def test_float_selfadjoint_dim_outside_one_to_the_commutant_dim_is_refused(K, tol, found, dim):
    # symbol F's echelonized float basis holds entries near 1e15, so the
    # relative cut-off of its self-adjoint system zeroes most singular
    # values, none of them in the ambiguity band; exact mode counts 1
    A = benchmark_symbol_operator("float", K)
    assert commutant_basis(A, tol).dim == dim
    with pytest.raises(RankAmbiguityError) as caught:
        selfadjoint_commutant_dim(A, tol)
    assert str(caught.value) == (
        f"self-adjoint commutant dimension {found} lies outside 1..{dim} (tol={tol:.6e}); "
        "the rank decision is not trustworthy (adjust tol or use exact mode)"
    )


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_selfadjoint_rows_of_the_benchmark_symbol(mode):
    A = benchmark_symbol_operator(mode, 8)
    tol = 1e-9 if mode == "float" else None
    assert selfadjoint_commutant_dim(A, tol) == realified_nullity(A, tol) == 1


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize(
    "diagonal, params, dims",
    [((1, 2), TruncationParams(2, 1, 5), (20, 2)), ((2, 2), TruncationParams(2, 2, 3), (48, 16))],
    ids=["diag(1,2)z", "2z^2"],
)
def test_selfadjoint_dim_off_the_chain_path(diagonal, params, dims, mode):
    # diag(1, 2) z: its two channels, a shift and twice a shift, are not
    # unitarily equivalent, so each reduces it alone and the self-adjoint
    # commutant is 2-dimensional where the chain count of z would give 4;
    # 2 z^2 has the commutant of z^2, but an entry 2 on every chain
    A = toeplitz_matrix(
        MatrixSymbol(2, ((params.n, DenseMatrix.diagonal(diagonal, mode)),)), params)
    tol = 1e-9 if mode == "float" else None
    assert _stride(A) is None
    sdim = selfadjoint_commutant_dim(A, tol)
    assert (commutant_basis(A, tol).dim, sdim) == dims
    assert sdim == realified_nullity(A, tol)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_symbol_run_solves_its_commutation_system_once(mode, tmp_path, monkeypatch):
    # the self-adjoint solve reads the basis that the commutant section
    # solved, and adds a system 2D wide, on the basis's coordinates, where
    # a system on P's entries would be d^2 wide again
    import hardyshift.cli as cli

    name = "rref" if mode == "exact" else "components"
    real, widths = getattr(linalg, name), []

    def counted(system, ncols):
        widths.append(ncols)
        return real(system, ncols)

    monkeypatch.setattr(linalg, name, counted)
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "symbol_F.json"
    argv = ["commutant", "--m", "2", "--n", "1", "--blocks", "3", "--symbol", str(path),
            "--out", str(tmp_path / "report.json")]
    if mode == "float":
        argv += ["--mode", "float", "--tol", "1e-9"]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())["commutant"]
    assert (report["dim"], report["selfadjoint_dim"]) == (12, 1)
    assert widths == [6 * 6, 2 * 12]


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
    return sparse(grid)


@st.composite
def stride_shifts(draw):
    """An exact 0/1 shift along one subdiagonal: d <= 9, a stride s in
    1..d, and a one at (v + s, v) for a random set of columns v < d - s
    (none when s = d), so its walks have mixed lengths."""
    d = draw(st.integers(1, 9))
    s = draw(st.integers(1, d))
    columns = draw(st.sets(st.integers(0, d - s - 1))) if s < d else set()
    grid = [[0] * d for _ in range(d)]
    for v in columns:
        grid[v + s][v] = 1
    return sparse(grid)


def assert_matches_the_commutation_system(A, tol=None):
    """The commutant basis and the self-adjoint dimension against the
    kernel and the nullity of the commutation systems, in value, repr and
    order."""
    d = A.rows
    if A.mode == "exact":
        system = _commutation_rows(A)
    else:
        system = commutation_rows_reference(A)
    reference = [
        {divmod(k, d): s for k, s in vec.items()}
        for vec in linalg.kernel_basis(system, d * d, A.mode, tol)
    ]
    cb = commutant_basis(A, tol)
    found = [cb.element(i).entries for i in range(cb.dim)]
    assert [list(P.items()) for P in found] == [list(P.items()) for P in reference]
    assert repr(found) == repr(reference)
    assert selfadjoint_commutant_dim(A, tol) == realified_nullity(A, tol)


@settings(max_examples=150, deadline=None)
@given(stride_shifts())
def test_chain_path_matches_the_commutation_system(A):
    assert _stride(A) is not None
    assert_matches_the_commutation_system(A)
    # every chain view holds the one exact one, as the eliminated basis did
    cb = commutant_basis(A)
    assert all(
        s is scalars.one("exact") for i in range(cb.dim) for s in cb.element(i).entries.values()
    )
    # every chain is an ascending range
    assert all(type(P) is range and list(P) == sorted(P)
               for P in commutant_basis(A).members)


@settings(max_examples=150, deadline=None)
@given(partial_permutations())
def test_partial_permutations_take_the_chain_path_on_one_subdiagonal(A):
    # a partial permutation whose nonzeros do not share one offset
    # u - v >= 1 (a cycle, a fixed point, a step back or two strides)
    # declines to elimination, which gives the same kernel
    offsets = {u - v for u, v, _ in A.nonzero_items()}
    assert (_stride(A) is None) == (len(offsets) > 1 or min(offsets, default=1) < 1)
    assert_matches_the_commutation_system(A)


@pytest.mark.parametrize("m,n,K", [(1, 1, 1), (2, 2, 3), (3, 2, 2), (2, 3, 4)])
def test_chain_path_matches_the_commutation_system_for_powers(m, n, K):
    T = power_symbol(TruncationParams(m, n, K))
    assert _stride(T) is not None
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
        # float z^n with one entry 2: a partial permutation's pattern, but
        # not every entry is the mode's one
        entries = {**power_symbol(params, "float").entries, (4, 0): 2 + 0j}
        A, tol = SparseMatrix(entries, params.d, params.d, "float"), 1e-9
    else:
        u, v, value = change
        rows = [list(r) for r in dense(power_symbol(params)).entries]
        rows[u][v] = GaussianRational(value)
        A, tol = sparse(rows), None
    assert _stride(A) is None
    assert_matches_the_commutation_system(A, tol)


@pytest.mark.parametrize("m,n,K", [(1, 1, 1), (2, 2, 3), (3, 2, 2), (2, 3, 4)])
def test_float_powers_take_the_chain_path(m, n, K):
    # the chains of z^n are a fact about its pattern of ones, whatever the
    # scalar type: float mode reads the same ranges, with float views
    p = TruncationParams(m, n, K)
    T = power_symbol(p, "float")
    assert _stride(T) is not None
    cb = commutant_basis(T, 1e-9)
    assert cb.mode == "float" and cb.members == commutant_basis(power_symbol(p)).members
    assert all(P.mode == "float" and set(P.entries.values()) == {1 + 0j}
               for P in map(cb.element, range(cb.dim)))
    assert selfadjoint_commutant_dim(T, 1e-9) == p.r * p.r


# test_float_mode_requires_tol covers a missing and a negative tol
@pytest.mark.parametrize("tol", [0.0, 1.0, 2.0])
def test_float_chain_path_still_refuses_a_bad_tol(tol):
    T = power_symbol(TruncationParams(2, 2, 3), "float")
    for solve in (commutant_basis, selfadjoint_commutant_dim):
        with pytest.raises(ValueError, match="require 0 < tol < 1"):
            solve(T, tol)


@settings(max_examples=150, deadline=None)
@given(stride_shifts())
def test_float_chain_path_matches_the_svd_kernel(A):
    # the numeric cross-check that float mode made on every run while it
    # solved partial permutations by SVD
    d, tol = A.rows, 1e-9
    F = SparseMatrix({k: complex(s) for k, s in A.entries.items()}, d, d, "float")
    assert _stride(F) is not None
    system = commutation_rows_reference(F)
    svd = linalg.kernel_basis(system, d * d, "float", tol)
    # the SVD's echelon basis lists each vector by its pivot, its chain's
    # first key; the chain basis lists by free column, the last key, as
    # exact elimination does
    cb = commutant_basis(F, tol)
    found = sorted(map(cb.element, range(cb.dim)), key=lambda P: min(P.entries))
    assert len(found) == len(svd)
    for P, vec in zip(found, svd):
        assert set(P.entries) == {divmod(k, d) for k, s in vec.items() if abs(s) > tol}
        assert all(abs(P.entries.get(divmod(k, d), 0) - s) <= tol for k, s in vec.items())
    assert selfadjoint_commutant_dim(F, tol) == realified_nullity(F, tol)


def assert_chain_audit_matches_the_view(keys, params):
    """The integer audit of a chain element, a ``range`` or else an array
    of its keys, against ``toeplitz_break`` on its view; returns the
    verdict.  A key outside range(d^2) has no place in a d x d view: it
    fails, and the first such key is the chain's witness."""
    if not isinstance(keys, range):
        keys = array("q", keys)
    d = params.d
    verdict = is_block_lower_toeplitz(keys, params)
    outside = [k for k in keys if not 0 <= k < d * d]
    if outside:
        assert not verdict
        assert toeplitz_break(keys, params) == divmod(outside[0], d)
    else:
        witness = toeplitz_break(chain_view(keys, d, "exact"), params)
        assert verdict == (witness is None) and toeplitz_break(keys, params) == witness
    return verdict


@settings(max_examples=150, deadline=None)
@given(stride_shifts(), st.data())
def test_chain_audit_matches_the_view_on_partial_permutation_chains(A, data):
    d = A.rows
    r = data.draw(st.sampled_from([r for r in range(1, d + 1) if d % r == 0]))
    params = TruncationParams(1, r, d // r)
    for keys in commutant_basis(A).members:
        assert_chain_audit_matches_the_view(keys, params)


POWER_PARAMS = st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 2)]).flatmap(
    lambda mn: st.integers(1, 4).map(lambda K: TruncationParams(*mn, K))
)


@settings(max_examples=300, deadline=None)
@given(POWER_PARAMS, st.data())
def test_chain_audit_matches_the_view_on_planted_faults(params, data):
    d, r = params.d, params.r
    chains = commutant_basis(power_symbol(params)).members
    keys = list(data.draw(st.sampled_from(chains)))
    assert assert_chain_audit_matches_the_view(keys, params)
    fault = data.draw(st.sampled_from(["drop", "shift", "replace", "extend", "slide"]))
    i = data.draw(st.integers(0, len(keys) - 1))
    if fault == "drop":
        del keys[i]
    elif fault == "shift":
        keys[i] = data.draw(st.integers(max(0, keys[i] - 2 * d), min(d * d - 1, keys[i] + 2 * d)))
    elif fault == "replace":
        keys[i] = data.draw(st.integers(0, d * d - 1))
    elif fault == "extend":
        keys.append(data.draw(st.integers(keys[-1] + 1, keys[-1] + 2 * d)))
    else:
        step = data.draw(st.sampled_from([-1, 1])) * (r * d + r)
        keys = [k + step for k in keys]
    verdict = assert_chain_audit_matches_the_view(keys, params)
    if fault == "drop" and len(keys) >= 1:
        assert not verdict


@settings(max_examples=300, deadline=None)
@given(POWER_PARAMS, st.data())
def test_chain_audit_matches_the_view_on_small_key_lists(params, data):
    d = params.d
    keys = data.draw(st.lists(st.integers(0, d * d - 1), max_size=8, unique=True))
    assert_chain_audit_matches_the_view(sorted(keys), params)
    assert_chain_audit_matches_the_view(keys, params)
    # two full diagonals are block lower Toeplitz without being one chain
    chains = commutant_basis(power_symbol(params)).members
    if len(chains) > 1:
        a, b = data.draw(st.lists(st.sampled_from(chains), min_size=2, max_size=2, unique_by=tuple))
        assert assert_chain_audit_matches_the_view(sorted([*a, *b]), params)


@settings(max_examples=300, deadline=None)
@given(POWER_PARAMS, st.data())
def test_range_audit_matches_the_view(params, data):
    # a chain of z^n, then a range moved off it: another head, step or
    # length, keys below 0 or past d^2, or a descending run
    d, r = params.d, params.r
    chain = data.draw(st.sampled_from(commutant_basis(power_symbol(params)).members))
    assert type(chain) is range and assert_chain_audit_matches_the_view(chain, params)
    run = r * d + r
    start = chain[0] + data.draw(
        st.sampled_from([0, 0, 1, -1, r, -r, d, -d, run, -run]) | st.integers(-d * d, d * d)
    )
    step = data.draw(
        st.sampled_from([chain.step, run, run, 1, r, d, d + 1, r * d, -run])
        | st.integers(1, 2 * d * d)
    )
    length = data.draw(st.integers(0, params.K + 2))
    keys = range(start, start + step * length, step)
    verdict = assert_chain_audit_matches_the_view(keys, params)
    assert verdict == is_block_lower_toeplitz(array("q", keys), params)


@pytest.mark.parametrize("m,n,K", [(1, 1, 2), (2, 2, 3), (1, 3, 4)])
def test_range_audit_refuses_a_run_from_a_negative_key(m, n, K):
    # K + 1 keys of step r*d + r from row -2, column 0: the last one wraps
    # to row d - 1, column 0, so only the head's sign is out of place
    p = TruncationParams(m, n, K)
    d, r = p.d, p.r
    keys = range(-2 * d, -2 * d + (K + 1) * (r * d + r), r * d + r)
    assert divmod(keys[-1], d) == (d - 1, 0)
    assert not is_block_lower_toeplitz(keys, p)


@pytest.mark.parametrize("m,n,K", [(1, 1, 1), (2, 2, 1), (2, 2, 3), (3, 2, 2), (2, 3, 4)])
def test_power_and_channel_bases_hold_ranges(m, n, K):
    p = TruncationParams(m, n, K)
    T = power_symbol(p)
    for A in (T, *(sparse(restrict_reference(dense(T), channel_flats(ch, p)))
                   for ch in channels(p))):
        cb = commutant_basis(A)
        assert cb.dim and all(type(P) is range for P in cb.members)
        assert [P.step for P in cb.members] == [cb.members[0].step] * cb.dim


# succ as {v: u} for A e_v = e_u: a walk 0 -> 2 -> 1 that is no run, a
# descending run 2 -> 1 -> 0, and that walk beside the cycle 3 <-> 4
@pytest.mark.parametrize(
    "d, succ",
    [(3, {0: 2, 2: 1}), (3, {2: 1, 1: 0}), (5, {0: 2, 2: 1, 3: 4, 4: 3})],
    ids=["zigzag-walk", "descending-walk", "walk-and-cycle"],
)
def test_other_partial_permutations_decline_the_chain_path(d, succ):
    grid = [[0] * d for _ in range(d)]
    for v, u in succ.items():
        grid[u][v] = 1
    A = sparse(grid)
    assert _stride(A) is None
    cb = commutant_basis(A)
    assert cb.dim and all(type(P) is SparseMatrix for P in cb.members)
    assert operator_rank(A) == rank_reference(A) == len(succ)
    assert_matches_the_commutation_system(A)


def test_chain_basis_and_its_audit_build_no_matrix(monkeypatch, built):
    import hardyshift.cli as cli

    p = TruncationParams(2, 2, 3)
    cb = commutant_basis(power_symbol(p))
    assert cb.dim == p.r * p.r * p.K
    assert cli.main(["commutant", "--m", "2", "--n", "2", "--blocks", "3"]) == 0
    assert built == []
    # a view is built each time an element is read as a matrix
    assert all(cb.element(i).shape == (p.d, p.d) for i in range(cb.dim))
    assert len(built) == cb.dim
