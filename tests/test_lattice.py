import json

import pytest

from hardyshift import (
    GaussianRational,
    TruncationParams,
    check_minimal,
    enumerate_lattice,
    lattice_closure_check,
    power_symbol,
    selfadjoint_commutant_dim,
    verify_equivalence,
)
from hardyshift import lattice
from hardyshift.errors import CapError, ShapeError
from hardyshift.matrices import SparseMatrix
from hardyshift.scalars import one
from hardyshift.lattice import (
    channel_edges,
    check_enumeration_cap,
    lattice_component_check,
    mask_is_reducing,
)
from helpers import (
    SMALL_SWEEP,
    DenseMatrix,
    build_intertwiner,
    channel_flats_reference,
    channel_order_reference,
    dense,
    direct_sum,
    is_projection,
    mask_projection,
    matrices_close,
    restrict_reference,
    sparse,
)


def test_mask_projection_small_example():
    p = TruncationParams(1, 2, 2)
    proj = mask_projection(0b01, 2, p)
    assert proj == DenseMatrix.diagonal([1, 0, 1, 0])
    proj = mask_projection(0b10, 2, p)
    assert proj == DenseMatrix.diagonal([0, 1, 0, 1])
    with pytest.raises(ShapeError):
        mask_projection(1, 1, p)


def test_mask_projections_are_projections():

    p = TruncationParams(2, 2, 2)
    for v in range(1 << p.r):
        proj = mask_projection(v, p.r, p)
        assert is_projection(proj)


def test_enumerate_trivial_model():
    p = TruncationParams(1, 1, 3)
    rep = enumerate_lattice(power_symbol(p), p)
    assert rep.counts.total_masks == 2
    assert rep.counts.checked_masks == 2
    assert rep.counts.reducing_count == 2
    assert rep.exhaustive
    assert list(rep.values) == [0, 1]
    assert rep.reducing == b"\x01\x01"


def test_enumerate_dims_and_reducing():
    p = TruncationParams(1, 2, 2)
    rep = enumerate_lattice(power_symbol(p), p)
    assert list(rep.values) == [0, 1, 2, 3]
    assert all(rep.reducing)
    assert selfadjoint_commutant_dim(power_symbol(p)) == p.r ** 2


def test_enumerate_counts_over_small_sweep():
    for p in SMALL_SWEEP:
        T = power_symbol(p)
        rep = enumerate_lattice(T, p)
        assert rep.counts.total_masks == 1 << p.r
        assert rep.counts.reducing_count == 1 << p.r
        assert list(rep.values) == list(range(1 << p.r))
        assert all(mc.is_minimal for mc in check_minimal(T, p))
        assert lattice_closure_check(rep)


def test_reducing_verdicts_match_direct_commutation():
    p = TruncationParams(2, 2, 2)
    T = dense(power_symbol(p))
    rep = enumerate_lattice(power_symbol(p), p)
    for v, flag in zip(rep.values, rep.reducing):
        P = mask_projection(v, p.r, p)
        assert bool(flag) == ((P @ T - T @ P).is_zero())


def test_cross_channel_entry_breaks_masks_like_direct_commutation():
    # one entry of T joining channel 0 to channel 1: the edge scan must
    # agree with the dense commutation P T == T P on every mask
    p = TruncationParams(2, 2, 2)
    order = channel_order_reference(p)
    rows = [list(r) for r in dense(power_symbol(p)).entries]
    rows[order[0]][order[p.K]] = GaussianRational(1, 1)
    T = DenseMatrix(rows)
    edges = channel_edges(sparse(T), p)
    assert edges == {(0, 1)}
    verdicts = []
    for v in range(1 << p.r):
        P = mask_projection(v, p.r, p)
        verdict = mask_is_reducing(v, edges)
        assert verdict == (P @ T == T @ P)
        verdicts.append(verdict)
    assert not all(verdicts) and any(verdicts)


def test_channel_edges_name_the_channels_of_each_entry():
    # one cross-channel entry added to z^n at every position, with the
    # channel of each flat index read off the reference channel order
    p = TruncationParams(2, 2, 3)
    owner = [0] * p.d
    for a, f in enumerate(channel_order_reference(p)):
        owner[f] = a // p.K
    T = power_symbol(p)
    for f in range(p.d):
        for g in range(p.d):
            entries = {**T.entries, (f, g): GaussianRational(1)}
            edges = channel_edges(SparseMatrix(entries, p.d, p.d, "exact"), p)
            assert edges == ({(owner[f], owner[g])} if owner[f] != owner[g] else set())


def test_channel_edges_respect_float_tolerance():
    p = TruncationParams(1, 2, 2)
    order = channel_order_reference(p)
    for value, joined in ((1e-12, False), (1e-3, True)):
        rows = [list(r) for r in dense(power_symbol(p, "float")).entries]
        rows[order[0]][order[p.K]] = complex(value)
        T = DenseMatrix(rows, "float")
        edges = channel_edges(sparse(T), p, tol=1e-9)
        assert bool(edges) == joined
        for v in range(1 << p.r):
            P = mask_projection(v, p.r, p, "float")
            assert mask_is_reducing(v, edges) == matrices_close(
                P @ T, T @ P, 1e-9
            )


def test_mask_projection_transport_through_intertwiner():
    # the diagonal 0/1 block projections of the decomposed model transport
    # to exactly the channel mask projections
    p = TruncationParams(2, 2, 2)
    X = build_intertwiner(p)
    Xh = X.adjoint()
    for v in range(1 << p.r):
        blocks = [
            DenseMatrix.diagonal([(v >> c) & 1] * p.K) for c in range(p.r)
        ]
        G = direct_sum(blocks)
        assert X @ G @ Xh == mask_projection(v, p.r, p)


def test_cap_raises():
    p = TruncationParams(5, 5, 2)
    with pytest.raises(CapError):
        enumerate_lattice(power_symbol(p), p)
    # one channel past the fixed limit of 20
    p = TruncationParams(21, 1, 1)
    with pytest.raises(CapError):
        enumerate_lattice(power_symbol(p), p)


def test_cap_counts_an_oversized_sample_as_exhaustive():
    assert check_enumeration_cap(20, None)
    assert not check_enumeration_cap(22, 5)
    # a sample of at least 2^r masks checks every mask, so the limit holds
    with pytest.raises(CapError):
        check_enumeration_cap(22, 1 << 22)
    p = TruncationParams(11, 2, 1)
    with pytest.raises(CapError):
        enumerate_lattice(power_symbol(p), p, sample=5_000_000)


def test_sampling_is_deterministic_and_marked():
    p = TruncationParams(3, 3, 2)  # r = 9
    rep1 = enumerate_lattice(power_symbol(p), p, sample=20, seed=42)
    rep2 = enumerate_lattice(power_symbol(p), p, sample=20, seed=42)
    assert rep1.values == rep2.values
    assert not rep1.exhaustive
    assert rep1.counts.checked_masks == 20
    assert rep1.counts.total_masks == 512
    assert list(rep1.values) == sorted(set(rep1.values))
    assert all(rep1.reducing)
    rep3 = enumerate_lattice(power_symbol(p), p, sample=20, seed=43)
    assert rep3.values != rep1.values


def test_sampling_beyond_total_is_exhaustive():
    p = TruncationParams(1, 2, 2)
    rep = enumerate_lattice(power_symbol(p), p, sample=100)
    assert rep.exhaustive
    assert rep.counts.checked_masks == 4


def test_sample_zero_gives_empty_entries():
    p = TruncationParams(1, 2, 2)
    rep = enumerate_lattice(power_symbol(p), p, sample=0)
    assert len(rep.values) == 0 and rep.reducing == b""
    assert rep.counts.reducing_count == 0
    assert not rep.exhaustive


def test_closure_check_fails_when_no_mask_is_reducing():
    p = TruncationParams(2, 1, 2)
    rep = enumerate_lattice(power_symbol(p), p)
    assert rep.exhaustive and lattice_closure_check(rep)
    flipped = rep._replace(reducing=bytes(len(rep.values)))
    assert not lattice_closure_check(flipped)


def test_closure_check_fails_on_doctored_family():
    p = TruncationParams(1, 2, 2)
    rep = enumerate_lattice(power_symbol(p), p)
    # drop everything except one proper mask: complement is now missing
    doctored = rep._replace(values=(1,), reducing=b"\x01")
    assert not lattice_closure_check(doctored)


def pairwise_closure_reference(report):
    """Closure by brute force: complement, meet and join of every pair of
    reducing masks, each compared against the bitset of its flat support."""
    params = report.params
    chan_support = [
        sum(1 << f for f in channel_flats_reference(c, params)) for c in range(params.r)
    ]
    full = (1 << params.d) - 1
    universe = (1 << params.r) - 1

    def support(value):
        s = 0
        for c in range(params.r):
            if (value >> c) & 1:
                s |= chan_support[c]
        return s

    family = {v for v, flag in zip(report.values, report.reducing) if flag}
    if 0 not in family or universe not in family:
        return False
    sup = {v: support(v) for v in family}
    for v in family:
        comp = universe ^ v
        if comp not in family or sup[comp] != full ^ sup[v]:
            return False
    for v1 in family:
        for v2 in family:
            meet, join = v1 & v2, v1 | v2
            if meet not in family or join not in family:
                return False
            if sup[meet] != sup[v1] & sup[v2]:
                return False
            if sup[join] != sup[v1] | sup[v2]:
                return False
    return True


def with_family(report, family):
    """The report with exactly the masks in ``family`` marked reducing."""
    return report._replace(reducing=bytes(v in family for v in report.values))


def test_closure_check_agrees_with_pairwise_reference_on_every_family():
    # every family of masks for r = 1, 2, 3: 4 + 16 + 256 families
    for p in (TruncationParams(1, 1, 2), TruncationParams(2, 1, 2), TruncationParams(3, 1, 1)):
        rep = enumerate_lattice(power_symbol(p), p)
        masks = 1 << p.r
        verdicts = []
        for subset in range(1 << masks):
            family = {v for v in range(masks) if (subset >> v) & 1}
            doctored = with_family(rep, family)
            expected = pairwise_closure_reference(doctored)
            assert lattice_closure_check(doctored) == expected, (p, family)
            verdicts.append(expected)
        assert any(verdicts) and not all(verdicts)


def test_closure_check_fails_on_complement_closed_family_without_joins():
    # {000, 111, 100, 011, 010, 101}: closed under complement, but the join
    # of 100 and 010 is 110, which is missing
    p = TruncationParams(3, 1, 1)
    rep = enumerate_lattice(power_symbol(p), p)
    # bitstrings with the bit of channel ordinal 0 first
    family = {
        int(bits[::-1], 2) for bits in ("000", "111", "100", "011", "010", "101")
    }
    doctored = with_family(rep, family)
    assert not pairwise_closure_reference(doctored)
    assert not lattice_closure_check(doctored)
    # adding the two missing joins restores a Boolean lattice of 2^3 members
    assert lattice_closure_check(with_family(rep, family | {3, 4}))


def test_component_check_counts_the_unions_of_edge_components():
    for p in SMALL_SWEEP:
        rep = enumerate_lattice(power_symbol(p), p)
        # the channels of z^n are invariant, so no edge joins two of them
        assert rep.channel_components == p.r
        assert lattice_component_check(rep)


def test_component_count_follows_the_edges(monkeypatch):
    import hardyshift.lattice as lattice

    # an edge joining channels 0 and 1 of three leaves two components
    monkeypatch.setattr(lattice, "channel_edges", lambda T, params, tol=None: {(0, 1)})
    p = TruncationParams(3, 1, 2)
    rep = enumerate_lattice(power_symbol(p), p)
    assert rep.channel_components == 2
    assert rep.counts.reducing_count == 4
    assert lattice_closure_check(rep) and lattice_component_check(rep)


def test_component_check_fails_on_a_closed_family_with_too_few_atoms():
    # two channels and no edges: every mask reduces.  Verdicts flipped to
    # {00, 11} still form a Boolean lattice, with one atom, so the closure
    # check accepts them; the edge graph has two components and says 2^2.
    p = TruncationParams(2, 1, 2)
    rep = enumerate_lattice(power_symbol(p), p)
    flipped = with_family(rep, {0, 3})
    assert lattice_closure_check(flipped)
    assert not lattice_component_check(flipped)
    # three channels, verdicts {000, 111, 100, 011}: two atoms, 2^2 members
    p = TruncationParams(3, 1, 1)
    rep = enumerate_lattice(power_symbol(p), p)
    flipped = with_family(rep, {0, 7, 1, 6})
    assert lattice_closure_check(flipped)
    assert not lattice_component_check(flipped)


def test_cli_closure_fails_on_flipped_verdicts_of_a_closed_family(tmp_path, monkeypatch, capsys):
    import hardyshift.cli as cli
    import hardyshift.lattice as lattice

    full = (1 << 2) - 1
    monkeypatch.setattr(lattice, "mask_is_reducing", lambda value, edges: value in (0, full))
    out = tmp_path / "report.json"
    code = cli.main(["lattice", "--m", "2", "--n", "1", "--blocks", "2", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["lattice"]["counts"]["reducing_count"] == 2
    assert report["lattice"]["closure_ok"] is False
    # z on C^2 joins no two channels, so the flipped mask splits no edge;
    # the two channels fall in one class (2^1 = 2 masks, as found), but the
    # edge graph has two components and asks for 2^2
    assert capsys.readouterr().err == (
        "all_checked_masks_reducing: mask 10 is not reducing; it splits no channel edge\n"
        "closure_ok: 2 reducing masks, against 2^1 = 2 from 1 channel classes and "
        "2^2 = 4 from 2 components of the channel edge graph\n"
        "failed checks: all_checked_masks_reducing, closure_ok\n"
    )


def test_cli_names_the_channel_edge_a_mask_splits(tmp_path, monkeypatch, capsys):
    import hardyshift.cli as cli

    # a planted entry (2, 0) of T joins channels 0 and 2 of four: the
    # verdicts follow it, so the family stays closed and the mask check
    # fails, and so does the minimality of the two channels it joins, which
    # no longer reduce T
    real = cli.power_symbol

    def planted(params, mode):
        T = real(params, mode)
        return SparseMatrix({**T.entries, (2, 0): one(mode)}, T.rows, T.cols, mode)

    monkeypatch.setattr(cli, "power_symbol", planted)
    out = tmp_path / "report.json"
    code = cli.main(["lattice", "--m", "2", "--n", "2", "--blocks", "2", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["lattice"]["counts"]["reducing_count"] == 8
    assert report["lattice"]["closure_ok"] is True
    assert [(c["is_minimal"], c["restricted_selfadjoint_commutant_dim"])
            for c in report["lattice"]["minimal_channels"]] == [
        (False, None), (True, 1), (False, None), (True, 1)
    ]
    assert capsys.readouterr().err == (
        "all_channels_minimal: channel i=1, j=0 (ordinal 0) does not reduce the "
        "operator, which joins channels (2, 0)\n"
        "all_checked_masks_reducing: mask 1000 is not reducing; it splits the "
        "channel edge (2, 0)\n"
        "failed checks: all_channels_minimal, all_checked_masks_reducing\n"
    )


def test_closure_check_exhaustive_eleven_channels():
    p = TruncationParams(11, 1, 1)
    rep = enumerate_lattice(power_symbol(p), p)
    assert rep.exhaustive and rep.counts.reducing_count == 1 << 11
    assert lattice_closure_check(rep)


def test_closure_check_matches_projection_algebra():
    # bitset route vs honest matrix products, every pair on a small model
    p = TruncationParams(2, 1, 2)
    r = p.r
    projs = {
        v: mask_projection(v, r, p) for v in range(1 << r)
    }
    ident = DenseMatrix.identity(p.d)
    for v1 in range(1 << r):
        for v2 in range(1 << r):
            assert projs[v1] @ projs[v2] == projs[v1 & v2]
            join = projs[v1] + projs[v2] - projs[v1] @ projs[v2]
            assert join == projs[v1 | v2]
        assert ident - projs[v1] == projs[((1 << r) - 1) ^ v1]
    rep = enumerate_lattice(power_symbol(p), p)
    assert lattice_closure_check(rep)


def test_check_minimal_certificates():
    for p in [TruncationParams(1, 2, 2), TruncationParams(2, 2, 2), TruncationParams(2, 1, 4)]:
        T = power_symbol(p)
        for cert in check_minimal(T, p):
            assert cert.is_minimal
            assert cert.restricted_selfadjoint_commutant_dim == 1


@pytest.mark.parametrize("K", [4, 2], ids=["16x16", "8x8"])
@pytest.mark.parametrize(
    "check", [verify_equivalence, check_minimal, enumerate_lattice],
    ids=["verify_equivalence", "check_minimal", "enumerate_lattice"],
)
def test_certificates_refuse_an_operator_of_the_wrong_size(check, K):
    # d = 12 here: a larger operator must not pass on its top-left corner,
    # and a smaller one must not fail with a bare IndexError
    p = TruncationParams(2, 2, 3)
    d = 4 * K
    with pytest.raises(ShapeError, match=rf"operator is \({d}, {d}\) but the model has d=12"):
        check(power_symbol(TruncationParams(2, 2, K)), p)


def counting_selfadjoint_solves(monkeypatch):
    """Count the restricted solves ``check_minimal`` makes."""
    calls = []

    def counted(A, tol=None):
        calls.append(A.shape)
        return selfadjoint_commutant_dim(A, tol)

    monkeypatch.setattr(lattice, "selfadjoint_commutant_dim", counted)
    return calls


@pytest.mark.parametrize(
    "p, mode, tol",
    [(TruncationParams(2, 2, 7), "float", 1e-9), (TruncationParams(2, 2, 3), "exact", None)],
    ids=["float", "exact"],
)
def test_check_minimal_solves_each_channel_once(p, mode, tol, monkeypatch):
    calls = counting_selfadjoint_solves(monkeypatch)
    certs = check_minimal(power_symbol(p, mode), p, tol)
    # every channel of z^n restricts to a K x K shift, solved on its own
    assert calls == [(p.K, p.K)] * p.r
    assert [cert.channel.ordinal for cert in certs] == list(range(p.r))
    assert all(cert.is_minimal for cert in certs)
    assert all(cert.restricted_selfadjoint_commutant_dim == 1 for cert in certs)


@pytest.mark.parametrize("mode, tol", [("float", 1e-9), ("exact", None)])
def test_a_channel_with_its_own_restriction_gets_its_own_solve(mode, tol, monkeypatch):
    # an entry from the last basis vector of channel 2 back to its first
    # closes that channel's shift into a cyclic permutation, whose
    # self-adjoint commutant (the Hermitian circulants) has real dimension K
    p = TruncationParams(2, 2, 3)
    T = power_symbol(p, mode)
    flats = channel_flats_reference(2, p)
    entries = dict(T.entries)
    entries[(flats[0], flats[-1])] = one(mode)
    planted = SparseMatrix(entries, T.rows, T.cols, mode)
    calls = counting_selfadjoint_solves(monkeypatch)
    certs = check_minimal(planted, p, tol)
    assert calls == [(p.K, p.K)] * p.r
    assert [(cert.is_minimal, cert.restricted_selfadjoint_commutant_dim) for cert in certs] == [
        (True, 1), (True, 1), (False, p.K), (True, 1)
    ]


def test_minimality_fails_for_doubled_block():
    # a union of two channels is reducing but not minimal; its restricted
    # self-adjoint commutant has dimension 4, and the lattice keeps both
    # facts separate
    p = TruncationParams(2, 1, 2)
    union = tuple(sorted(channel_flats_reference(0, p) + channel_flats_reference(1, p)))
    R = sparse(restrict_reference(dense(power_symbol(p)), union))
    assert selfadjoint_commutant_dim(R) == 4


def test_entries_are_mask_ordered():
    p = TruncationParams(2, 2, 2)
    rep = enumerate_lattice(power_symbol(p), p)
    assert rep.values == range(1 << p.r)
    assert isinstance(rep.reducing, bytes) and len(rep.reducing) == 1 << p.r
