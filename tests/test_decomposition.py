import pytest

from hardyshift import (
    GaussianRational,
    TruncationParams,
    channel,
    channel_flats,
    channels,
    power_symbol,
    vector_shift,
    verify_equivalence,
)
from hardyshift.decomposition import channel_cover_break, shift_break
from hardyshift.matrices import DenseMatrix, SparseMatrix

from helpers import (
    SMALL_SWEEP,
    SWEEP,
    build_intertwiner,
    channel_flats_reference,
    channel_order_reference,
    decomposed_shift,
    dense,
    intertwines_reference,
    is_permutation,
    sparse,
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


def test_channels_are_values():
    p = TruncationParams(2, 3, 2)
    assert channel(2, 1, p) == channels(p)[3]
    assert hash(channel(2, 1, p)) == hash(channels(p)[3])
    assert channel(2, 1, p) != channel(1, 1, p)
    assert len(set(channels(p)) | set(channels(p))) == p.r


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
    assert tuple(channel_flats(channel(2, 1, p), p)) == (3, 7)
    assert tuple(channel_flats(channel(1, 0, p), p)) == (0, 4)


def test_partition_over_sweep():
    for p in SWEEP:
        bases = [channel_flats(ch, p) for ch in channels(p)]
        assert len(bases) == p.r
        assert all(len(flats) == p.K for flats in bases)
        assert sorted(f for flats in bases for f in flats) == list(range(p.d))


def test_channel_flats_match_the_flat_index_reference():
    for p in SMALL_SWEEP:
        for ch in channels(p):
            assert tuple(channel_flats(ch, p)) == channel_flats_reference(ch.ordinal, p)
        assert channel_cover_break(p) is None


def test_power_symbol_is_the_shift_by_r():
    # the dense S^n has its nonzeros exactly at (g + r, g), and so does
    # power_symbol's sparse storage
    for p in SMALL_SWEEP:
        Sn = dense(vector_shift(p)) ** p.n
        shift = {(g + p.r, g) for g in range(p.d - p.r)}
        assert {(u, v) for u, v, _ in Sn.nonzero_items()} == shift
        assert set(power_symbol(p).entries) == shift


def test_channels_invariant_under_operator_and_adjoint():
    for p in SWEEP:
        if p.d > 16:
            continue
        T = dense(power_symbol(p))
        Th = T.adjoint()
        for ch in channels(p):
            inside = set(channel_flats(ch, p))
            for v in inside:
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
        assert len(channels(p)) == p.r


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
        rows = [list(r) for r in dense(power_symbol(p)).entries]
        rows[u][v] = 1 - rows[u][v]
        rep = verify_equivalence(sparse(rows), p)
        assert rep.unitary and not rep.intertwines
    # channels that repeat a flat index are no permutation
    monkeypatch.setattr(
        decomposition, "channel_flats", lambda ch, params: range(0, params.d, params.r)
    )
    rep = verify_equivalence(power_symbol(p), p)
    assert not rep.unitary and not rep.ok
    assert channel_cover_break(p) == (0, 2)


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
    full = dense(T)
    if u is not None:
        u = params.r if u == "s" else u  # T e_0 = e_r, the first shift entry
        rows = [list(r) for r in full.entries]
        rows[u][v] = value if mode == "float" else GaussianRational(value)
        full = DenseMatrix(rows, mode)
        T = sparse(full)
    rep = verify_equivalence(T, params, tol)
    assert rep.intertwines is expected
    assert intertwines_reference(
        full, channel_order_reference(params), params, mode, tol
    ) is expected
    assert (shift_break(T, params, tol) is None) is expected


def test_shift_break_names_the_first_broken_entry():
    p = TruncationParams(2, 2, 2)  # d = 8, r = 4
    T = power_symbol(p)
    assert shift_break(T, p) is None
    one = GaussianRational(1)
    for entries, witness in (
        ({**T.entries, (0, 1): one}, (0, 1)),  # an extra entry off the shift
        ({**T.entries, (5, 1): GaussianRational(2)}, (5, 1)),  # a shift entry not one
        ({k: s for k, s in T.entries.items() if k[1] not in (1, 2)}, (5, 1)),  # missing
    ):
        doctored = SparseMatrix(entries, p.d, p.d, "exact")
        assert shift_break(doctored, p) == witness
        assert not verify_equivalence(doctored, p).intertwines


def test_channel_order_is_the_intertwiner_columns():
    for p in SMALL_SWEEP:
        order = tuple(f for ch in channels(p) for f in channel_flats(ch, p))
        assert order == channel_order_reference(p)
        X = build_intertwiner(p)
        assert [(u, v) for u, v, _ in X.nonzero_items()] == sorted(
            (f, a) for a, f in enumerate(order)
        )
