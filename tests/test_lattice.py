import dataclasses
import json

import pytest

from hardyshift import (
    ChannelMask,
    GaussianRational,
    TruncationParams,
    channels,
    check_minimal,
    enumerate_lattice,
    lattice_closure_check,
    power_symbol,
)
from hardyshift.errors import CapError, ShapeError
from hardyshift.decomposition import channel_order
from hardyshift.decomposition import all_channel_bases
from hardyshift.lattice import (
    MaskEntry,
    channel_edges,
    check_enumeration_cap,
    lattice_component_check,
    mask_is_reducing,
)
from hardyshift.matrices import DenseMatrix, matrices_close

from helpers import (
    SMALL_SWEEP,
    build_intertwiner,
    direct_sum,
    is_projection,
    mask_projection,
)


def test_mask_round_trip_and_views():
    m = ChannelMask.from_int(0b101, 4)
    assert m.bits == (1, 0, 1, 0)
    assert m.value == 5
    assert m.popcount == 2
    assert m.bitstring == "1010"
    with pytest.raises(ValueError):
        ChannelMask.from_int(16, 4)
    with pytest.raises(ValueError):
        ChannelMask((0, 2))


def test_mask_projection_small_example():
    p = TruncationParams(1, 2, 2)
    proj = mask_projection(ChannelMask((1, 0)), p)
    assert proj == DenseMatrix.diagonal([1, 0, 1, 0])
    proj = mask_projection(ChannelMask((0, 1)), p)
    assert proj == DenseMatrix.diagonal([0, 1, 0, 1])
    with pytest.raises(ShapeError):
        mask_projection(ChannelMask((1,)), p)


def test_mask_projections_are_projections():

    p = TruncationParams(2, 2, 2)
    for v in range(1 << p.r):
        proj = mask_projection(ChannelMask.from_int(v, p.r), p)
        assert is_projection(proj)


def test_enumerate_trivial_model():
    p = TruncationParams(1, 1, 3)
    rep = enumerate_lattice(p)
    assert rep.counts.total_masks == 2
    assert rep.counts.checked_masks == 2
    assert rep.counts.reducing_count == 2
    assert rep.exhaustive
    dims = [e.subspace_dim for e in rep.entries]
    assert dims == [0, 3]


def test_enumerate_dims_and_reducing():
    p = TruncationParams(1, 2, 2)
    rep = enumerate_lattice(p)
    assert sorted(e.subspace_dim for e in rep.entries) == [0, 2, 2, 4]
    assert all(e.is_reducing for e in rep.entries)
    assert rep.full_selfadjoint_commutant_dim == p.r ** 2


def test_enumerate_counts_over_small_sweep():
    for p in SMALL_SWEEP:
        rep = enumerate_lattice(p)
        assert rep.counts.total_masks == 1 << p.r
        assert rep.counts.reducing_count == 1 << p.r
        assert all(e.subspace_dim == e.mask.popcount * p.K for e in rep.entries)
        assert all(mc.is_minimal for mc in rep.minimal_channels)
        assert lattice_closure_check(rep)


def test_reducing_verdicts_match_direct_commutation():
    p = TruncationParams(2, 2, 2)
    T = power_symbol(p).to_dense()
    rep = enumerate_lattice(p)
    for e in rep.entries:
        P = mask_projection(e.mask, p)
        assert e.is_reducing == ((P @ T - T @ P).is_zero())


def test_cross_channel_entry_breaks_masks_like_direct_commutation():
    # one entry of T joining channel 0 to channel 1: the edge scan must
    # agree with the dense commutation P T == T P on every mask
    p = TruncationParams(2, 2, 2)
    order = channel_order(p)
    rows = [list(r) for r in power_symbol(p).to_dense().entries]
    rows[order[0]][order[p.K]] = GaussianRational(1, 1)
    T = DenseMatrix(rows)
    edges = channel_edges(T, p)
    assert edges == {(0, 1)}
    verdicts = []
    for v in range(1 << p.r):
        P = mask_projection(ChannelMask.from_int(v, p.r), p)
        verdict = mask_is_reducing(v, edges)
        assert verdict == (P @ T == T @ P)
        verdicts.append(verdict)
    assert not all(verdicts) and any(verdicts)


def test_channel_edges_respect_float_tolerance():
    p = TruncationParams(1, 2, 2)
    order = channel_order(p)
    for value, joined in ((1e-12, False), (1e-3, True)):
        rows = [list(r) for r in power_symbol(p, "float").to_dense().entries]
        rows[order[0]][order[p.K]] = complex(value)
        T = DenseMatrix(rows, "float")
        edges = channel_edges(T, p, tol=1e-9)
        assert bool(edges) == joined
        for v in range(1 << p.r):
            P = mask_projection(ChannelMask.from_int(v, p.r), p, "float")
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
        mask = ChannelMask.from_int(v, p.r)
        blocks = [
            DenseMatrix.diagonal([bit] * p.K) for bit in mask.bits
        ]
        G = direct_sum(blocks)
        assert X @ G @ Xh == mask_projection(mask, p)


def test_cap_raises():
    p = TruncationParams(5, 5, 2)
    with pytest.raises(CapError):
        enumerate_lattice(p)
    # one channel past the fixed limit of 20
    with pytest.raises(CapError):
        enumerate_lattice(TruncationParams(21, 1, 1))


def test_cap_counts_an_oversized_sample_as_exhaustive():
    assert check_enumeration_cap(20, None)
    assert not check_enumeration_cap(22, 5)
    # a sample of at least 2^r masks checks every mask, so the limit holds
    with pytest.raises(CapError):
        check_enumeration_cap(22, 1 << 22)
    with pytest.raises(CapError):
        enumerate_lattice(TruncationParams(11, 2, 1), sample=5_000_000)


def test_sampling_is_deterministic_and_marked():
    p = TruncationParams(3, 3, 2)  # r = 9
    rep1 = enumerate_lattice(p, sample=20, seed=42)
    rep2 = enumerate_lattice(p, sample=20, seed=42)
    assert [e.mask.value for e in rep1.entries] == [e.mask.value for e in rep2.entries]
    assert not rep1.exhaustive
    assert rep1.counts.checked_masks == 20
    assert rep1.counts.total_masks == 512
    assert all(e.is_reducing for e in rep1.entries)
    rep3 = enumerate_lattice(p, sample=20, seed=43)
    assert [e.mask.value for e in rep3.entries] != [e.mask.value for e in rep1.entries]


def test_sampling_beyond_total_is_exhaustive():
    p = TruncationParams(1, 2, 2)
    rep = enumerate_lattice(p, sample=100)
    assert rep.exhaustive
    assert rep.counts.checked_masks == 4


def test_sample_zero_gives_empty_entries():
    p = TruncationParams(1, 2, 2)
    rep = enumerate_lattice(p, sample=0)
    assert rep.entries == ()
    assert rep.counts.reducing_count == 0
    assert not rep.exhaustive


def test_closure_check_fails_when_no_mask_is_reducing():
    p = TruncationParams(2, 1, 2)
    rep = enumerate_lattice(p)
    assert rep.exhaustive and lattice_closure_check(rep)
    flipped = dataclasses.replace(
        rep,
        entries=tuple(
            dataclasses.replace(e, is_reducing=False) for e in rep.entries
        ),
    )
    assert not lattice_closure_check(flipped)


def test_closure_check_fails_on_doctored_family():
    p = TruncationParams(1, 2, 2)
    rep = enumerate_lattice(p)
    # drop everything except one proper mask: complement is now missing
    doctored = dataclasses.replace(
        rep, entries=tuple(e for e in rep.entries if e.mask.value == 1)
    )
    assert not lattice_closure_check(doctored)


def pairwise_closure_reference(report):
    """Closure by brute force: complement, meet and join of every pair of
    reducing masks, each compared against the bitset of its flat support."""
    params = report.params
    chan_support = [
        sum(1 << f for f in cb.flat_indices) for cb in all_channel_bases(params)
    ]
    full = (1 << params.d) - 1
    universe = (1 << params.r) - 1

    def support(value):
        s = 0
        for c in range(params.r):
            if (value >> c) & 1:
                s |= chan_support[c]
        return s

    family = {e.mask.value for e in report.entries if e.is_reducing}
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
    return dataclasses.replace(
        report,
        entries=tuple(
            dataclasses.replace(e, is_reducing=e.mask.value in family)
            for e in report.entries
        ),
    )


def test_closure_check_agrees_with_pairwise_reference_on_every_family():
    # every family of masks for r = 1, 2, 3: 4 + 16 + 256 families
    for p in (TruncationParams(1, 1, 2), TruncationParams(2, 1, 2), TruncationParams(3, 1, 1)):
        rep = enumerate_lattice(p)
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
    rep = enumerate_lattice(p)
    family = {
        ChannelMask(tuple(int(b) for b in bits)).value
        for bits in ("000", "111", "100", "011", "010", "101")
    }
    doctored = with_family(rep, family)
    assert not pairwise_closure_reference(doctored)
    assert not lattice_closure_check(doctored)
    # adding the two missing joins restores a Boolean lattice of 2^3 members
    assert lattice_closure_check(with_family(rep, family | {3, 4}))


def test_component_check_counts_the_unions_of_edge_components():
    for p in SMALL_SWEEP:
        rep = enumerate_lattice(p)
        # the channels of z^n are invariant, so no edge joins two of them
        assert rep.channel_components == p.r
        assert lattice_component_check(rep)


def test_component_count_follows_the_edges(monkeypatch):
    import hardyshift.lattice as lattice

    # an edge joining channels 0 and 1 of three leaves two components
    monkeypatch.setattr(lattice, "channel_edges", lambda T, params, tol=None: {(0, 1)})
    rep = enumerate_lattice(TruncationParams(3, 1, 2))
    assert rep.channel_components == 2
    assert rep.counts.reducing_count == 4
    assert lattice_closure_check(rep) and lattice_component_check(rep)


def test_component_check_fails_on_a_closed_family_with_too_few_atoms():
    # two channels and no edges: every mask reduces.  Verdicts flipped to
    # {00, 11} still form a Boolean lattice, with one atom, so the closure
    # check accepts them; the edge graph has two components and says 2^2.
    rep = enumerate_lattice(TruncationParams(2, 1, 2))
    flipped = with_family(rep, {0, 3})
    assert lattice_closure_check(flipped)
    assert not lattice_component_check(flipped)
    # three channels, verdicts {000, 111, 100, 011}: two atoms, 2^2 members
    rep = enumerate_lattice(TruncationParams(3, 1, 1))
    flipped = with_family(rep, {0, 7, 1, 6})
    assert lattice_closure_check(flipped)
    assert not lattice_component_check(flipped)


def test_cli_closure_fails_on_flipped_verdicts_of_a_closed_family(tmp_path, monkeypatch):
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


def test_closure_check_fails_when_channels_do_not_partition(monkeypatch):
    import hardyshift.lattice as lattice

    rep = enumerate_lattice(TruncationParams(2, 1, 2))
    assert lattice_closure_check(rep)
    monkeypatch.setattr(lattice, "partition_check", lambda params: False)
    assert not lattice_closure_check(rep)


def test_closure_check_exhaustive_eleven_channels():
    rep = enumerate_lattice(TruncationParams(11, 1, 1))
    assert rep.exhaustive and rep.counts.reducing_count == 1 << 11
    assert lattice_closure_check(rep)


def test_closure_check_matches_projection_algebra():
    # bitset route vs honest matrix products, every pair on a small model
    p = TruncationParams(2, 1, 2)
    r = p.r
    projs = {
        v: mask_projection(ChannelMask.from_int(v, r), p) for v in range(1 << r)
    }
    ident = DenseMatrix.identity(p.d)
    for v1 in range(1 << r):
        for v2 in range(1 << r):
            assert projs[v1] @ projs[v2] == projs[v1 & v2]
            join = projs[v1] + projs[v2] - projs[v1] @ projs[v2]
            assert join == projs[v1 | v2]
        assert ident - projs[v1] == projs[((1 << r) - 1) ^ v1]
    rep = enumerate_lattice(p)
    assert lattice_closure_check(rep)


def test_check_minimal_certificates():
    for p in [TruncationParams(1, 2, 2), TruncationParams(2, 2, 2), TruncationParams(2, 1, 4)]:
        for ch in channels(p):
            cert = check_minimal(ch, p)
            assert cert.is_minimal
            assert cert.restricted_selfadjoint_commutant_dim == 1


@pytest.mark.parametrize("K", [4, 2], ids=["16x16", "8x8"])
def test_check_minimal_refuses_an_operator_of_the_wrong_size(K):
    p = TruncationParams(2, 2, 3)
    with pytest.raises(ShapeError):
        check_minimal(
            channels(p)[0], p, operator=power_symbol(TruncationParams(2, 2, K))
        )


def test_minimality_fails_for_doubled_block():
    # a union of two channels is reducing but not minimal; its restricted
    # self-adjoint commutant has dimension 4, and the lattice keeps both
    # facts separate
    p = TruncationParams(2, 1, 2)
    from hardyshift import restrict, selfadjoint_commutant_dim
    from hardyshift.decomposition import all_channel_bases

    bases = all_channel_bases(p)
    union = tuple(sorted(bases[0].flat_indices + bases[1].flat_indices))
    R = restrict(power_symbol(p), union)
    assert selfadjoint_commutant_dim(R) == 4


def test_entries_are_mask_ordered():
    p = TruncationParams(2, 2, 2)
    rep = enumerate_lattice(p)
    values = [e.mask.value for e in rep.entries]
    assert values == sorted(values)
    assert isinstance(rep.entries[0], MaskEntry)
