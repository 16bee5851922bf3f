import pytest

from hardyshift import (
    GaussianRational,
    TruncationParams,
    all_channel_bases,
    channel,
    channel_basis,
    channels,
    partition_check,
    power_symbol,
    vector_shift,
    verify_equivalence,
)
from hardyshift.decomposition import channel_order
from hardyshift.matrices import DenseMatrix

from helpers import (
    SMALL_SWEEP,
    SWEEP,
    build_intertwiner,
    decomposed_shift,
    dense,
    intertwines_reference,
    is_permutation,
)


def test_channel_labels_and_ordinals():
    p = TruncationParams(2, 3, 2)
    chs = channels(p)
    assert len(chs) == p.r == 6
    assert [c.ordinal for c in chs] == list(range(6))
    assert chs[0].i == 1 and chs[0].j == 0
    assert chs[1].i == 2 and chs[1].j == 0
    assert chs[2].i == 1 and chs[2].j == 1
    assert channel(2, 1, p).ordinal == 3


def test_channel_validation():
    p = TruncationParams(2, 2, 2)
    with pytest.raises(IndexError):
        channel(0, 0, p)
    with pytest.raises(IndexError):
        channel(3, 0, p)
    with pytest.raises(IndexError):
        channel(1, 2, p)


def test_channel_basis_example():
    p = TruncationParams(2, 2, 2)
    cb = channel_basis(2, 1, p)
    assert cb.flat_indices == (3, 7)
    cb = channel_basis(1, 0, p)
    assert cb.flat_indices == (0, 4)


def test_partition_over_sweep():
    for p in SWEEP:
        assert partition_check(p)
        bases = all_channel_bases(p)
        assert len(bases) == p.r
        assert all(len(cb.flat_indices) == p.K for cb in bases)


def test_channels_invariant_under_operator_and_adjoint():
    for p in SWEEP:
        if p.d > 16:
            continue
        T = dense(power_symbol(p))
        Th = T.adjoint()
        for cb in all_channel_bases(p):
            inside = set(cb.flat_indices)
            for v in cb.flat_indices:
                for M in (T, Th):
                    for u in range(p.d):
                        if M[u][v]:
                            assert u in inside


def test_intertwiner_identity_for_trivial_model():
    p = TruncationParams(1, 1, 3)
    assert build_intertwiner(p) == DenseMatrix.identity(3)


def test_intertwiner_frozen_small_case():
    # m=1, n=2, K=2: channel 0 hits degrees 0,2 and channel 1 degrees 1,3
    p = TruncationParams(1, 2, 2)
    X = build_intertwiner(p)
    assert [(u, v) for u, v, s in X.nonzero_items()] == [
        (0, 0),
        (1, 2),
        (2, 1),
        (3, 3),
    ]
    conj = X.adjoint() @ dense(power_symbol(p)) @ X
    assert [(u, v) for u, v, s in conj.nonzero_items()] == [(1, 0), (3, 2)]


def test_intertwiner_is_permutation_over_sweep():
    for p in SWEEP:
        assert is_permutation(build_intertwiner(p))


def test_decomposed_shift_shape():
    p = TruncationParams(2, 2, 3)
    D = decomposed_shift(p)
    assert D.shape == (p.d, p.d)
    # block subdiagonals only, no coupling across the K-grid
    for u, v, s in D.nonzero_items():
        assert u == v + 1
        assert v % p.K != p.K - 1


def test_verify_equivalence_small_cases():
    for p in [
        TruncationParams(1, 1, 2),
        TruncationParams(1, 2, 2),
        TruncationParams(2, 1, 3),
        TruncationParams(2, 3, 2),
        TruncationParams(3, 2, 2),
    ]:
        rep = verify_equivalence(power_symbol(p), p)
        assert rep.unitary
        assert rep.intertwines
        assert rep.ok
        assert len(rep.channel_bases) == p.r


def test_verify_equivalence_is_exact_not_close():
    # exact mode compares with zero tolerance; mutate one entry and the
    # comparison must notice
    p = TruncationParams(1, 2, 2)
    X = build_intertwiner(p)
    conj = X.adjoint() @ dense(power_symbol(p)) @ X
    assert conj == decomposed_shift(p)
    rows = [list(r) for r in conj.entries]
    rows[0][0] = rows[1][0]
    assert DenseMatrix(rows) != decomposed_shift(p)


def test_verify_equivalence_can_fail(monkeypatch):
    import hardyshift.decomposition as decomposition

    p = TruncationParams(1, 2, 2)
    # an operator that is not z^n: the relabeled entries miss the target
    rep = verify_equivalence(vector_shift(p), p)
    assert rep.unitary and not rep.intertwines
    # one entry of z^n changed, on and off the shift pattern
    for u, v in ((2, 0), (0, 1)):
        rows = [list(r) for r in power_symbol(p).to_dense().entries]
        rows[u][v] = 1 - rows[u][v]
        rep = verify_equivalence(DenseMatrix(rows), p)
        assert rep.unitary and not rep.intertwines
    # an order that repeats a flat index is no permutation
    monkeypatch.setattr(decomposition, "channel_order", lambda params: (0, 0, 2, 3))
    rep = verify_equivalence(power_symbol(p), p)
    assert not rep.unitary and not rep.ok


TOL = 1e-6


@pytest.mark.parametrize("params", [TruncationParams(1, 2, 2), TruncationParams(2, 2, 3)])
@pytest.mark.parametrize(
    "mode,u,v,value,tol,expected",
    [
        ("exact", None, None, None, None, True),
        ("exact", 0, 0, 1, None, False),  # an extra entry off the shift
        ("exact", "s", 0, 0, None, False),  # a shift entry missing
        ("exact", "s", 0, 2, None, False),  # a shift entry set to 2
        ("float", None, None, None, TOL, True),
        ("float", "s", 0, 1 + 0.9 * TOL, TOL, True),
        ("float", "s", 0, 1 + 1.1 * TOL, TOL, False),
        ("float", 0, 0, 0.9 * TOL, TOL, True),
        ("float", 0, 0, 1.1 * TOL, TOL, False),
        ("float", "s", 0, 0, TOL, False),
        ("float", "s", 0, 0, 2.0, True),  # a missing one is within this tol
    ],
    ids=[
        "exact-unchanged", "exact-extra", "exact-missing", "exact-two",
        "float-unchanged", "float-shift-inside", "float-shift-outside",
        "float-extra-inside", "float-extra-outside", "float-missing",
        "float-missing-wide-tol",
    ],
)
def test_nonzero_scan_matches_the_dense_scan(params, mode, u, v, value, tol, expected):
    T = power_symbol(params, mode)
    dense = T.to_dense()
    if u is not None:
        u = params.r if u == "s" else u  # T e_0 = e_r, the first shift entry
        rows = [list(r) for r in dense.entries]
        rows[u][v] = value if mode == "float" else GaussianRational(value)
        T = dense = DenseMatrix(rows, mode)
    rep = verify_equivalence(T, params, tol)
    assert rep.intertwines is expected
    assert intertwines_reference(dense, channel_order(params), params, mode, tol) is expected


def test_channel_order_is_the_intertwiner_columns():
    for p in SMALL_SWEEP:
        order = channel_order(p)
        X = build_intertwiner(p)
        assert [(u, v) for u, v, _ in X.nonzero_items()] == sorted(
            (f, a) for a, f in enumerate(order)
        )
