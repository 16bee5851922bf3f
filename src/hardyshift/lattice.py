"""Enumeration and certification of channel-union reducing subspaces.

Each of the 2^r channel masks selects a union of channels, and its 0/1
diagonal projection P commutes with the truncated power operator T exactly
when no nonzero entry of T joins a selected channel to an unselected one:
(PT - TP)[u][v] = (p_u - p_v) T[u][v].  The channel pairs joined by T are
collected once, and each mask is certified reducing by checking that none
of those pairs crosses its boundary.  A mask is kept as its integer value,
bit c for the channel of ordinal c, and its verdict as one byte.  The
reducing masks form a Boolean lattice exactly when their count is 2^a for
the a classes of channels that they cannot tell apart.

Single channels are certified minimal through the same relabel: flat
index f sits at position f // r of channel f % r, so channel c's block of
T is read off the entries with u % r == v % r == c.  A channel that T
joins to another does not reduce it, so it is not minimal; any other is
minimal when its block's self-adjoint commutant has dimension 1, for then
the only projections commuting there are 0 and 1.  For T_{z^n} every
block is a K x K shift, read off its chains in O(K).
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from typing import NamedTuple

from .commutant import selfadjoint_commutant_dim
from .decomposition import Channel, channels, check_operator_shape
from .errors import CapError
from .linalg import components
from .matrices import SparseMatrix
from .scalars import scalar_is_zero
from .space import TruncationParams

MAX_EXHAUSTIVE_CHANNELS = 20


class ChannelMinimality(NamedTuple):
    channel: Channel
    is_minimal: bool
    restricted_selfadjoint_commutant_dim: int | None  # None when T joins it to another


class LatticeCounts(NamedTuple):
    total_masks: int
    checked_masks: int
    reducing_count: int


class LatticeReport(NamedTuple):
    params: TruncationParams
    values: Sequence[int]  # the checked mask values, ascending
    reducing: bytes  # one verdict per checked mask, 1 when it reduces T
    counts: LatticeCounts
    exhaustive: bool
    channel_components: int  # of the graph of ``channel_edges``


def check_minimal(
    T: SparseMatrix,
    params: TruncationParams,
    tol: float | None = None,
) -> list[ChannelMinimality]:
    """Certify every channel minimal, in ordinal order, for T, the power
    operator ``power_symbol(params, mode)``.  One scan of T cuts every
    channel's block and marks both channels of each entry between two
    channels that is nonzero beyond tol, as ``channel_edges`` pairs them.
    A marked channel does not reduce T and gets dimension None; any other
    is minimal when the self-adjoint commutant of its block is
    one-dimensional.  A T that is not d x d raises ShapeError."""
    check_operator_shape(T, params)
    r, K = params.r, params.K
    blocks = [{} for _ in range(r)]
    joined = set()
    for u, v, s in T.nonzero_items():
        a, b = u % r, v % r
        if a == b:
            blocks[a][(u // r, v // r)] = s
        elif not scalar_is_zero(s, tol):
            joined.update((a, b))
    results = []
    for ch in channels(params):
        dim = None
        if ch.ordinal not in joined:
            dim = selfadjoint_commutant_dim(SparseMatrix(blocks[ch.ordinal], K, K, T.mode), tol)
        results.append(ChannelMinimality(ch, dim == 1, dim))
    return results


def channel_edges(
    T: SparseMatrix, params: TruncationParams, tol: float | None = None
) -> frozenset[tuple[int, int]]:
    """Pairs (a, b) of distinct channel ordinals such that T[u][v] is
    nonzero (beyond tol in float mode) for some u in channel a and v in
    channel b; flat index u lies in channel u % r.  A T that is not d x d
    raises ShapeError."""
    check_operator_shape(T, params)
    r = params.r
    return frozenset(
        (u % r, v % r)
        for u, v, s in T.nonzero_items()
        if u % r != v % r and not scalar_is_zero(s, tol)
    )


def mask_is_reducing(value: int, edges) -> bool:
    """True when the mask of this integer value splits no channel pair in
    ``edges``: its projection then commutes with the operator the edges
    came from."""
    return all((value >> a) & 1 == (value >> b) & 1 for a, b in edges)


def check_enumeration_cap(r: int, sample: int | None) -> bool:
    """Return whether a lattice run over r channels checks every mask: it
    does without a sample or with a sample of at least 2^r masks.  Such a
    run is refused with CapError beyond MAX_EXHAUSTIVE_CHANNELS channels; a
    sample of fewer than 2^r masks is the way past the limit."""
    exhaustive = sample is None or sample >= (1 << r)
    if exhaustive and r > MAX_EXHAUSTIVE_CHANNELS:
        raise CapError(
            f"enumerating all 2^{r} masks exceeds the limit of "
            f"2^{MAX_EXHAUSTIVE_CHANNELS}; pass a sample of fewer than "
            f"2^{r} masks"
        )
    return exhaustive


def enumerate_lattice(
    T: SparseMatrix,
    params: TruncationParams,
    tol: float | None = None,
    sample: int | None = None,
    seed: int = 0,
) -> LatticeReport:
    """Verify the channel-union lattice of T, the truncated power operator
    ``power_symbol(params, mode)``.

    Checks every mask within the limit of ``check_enumeration_cap``; with
    ``sample`` below 2^r, a deterministic uniform sample of masks instead
    (the report then says exhaustive=False).  Each mask is checked against
    the channel pairs that T joins (``channel_edges``, which refuses a T
    that is not d x d), and its verdict is stored as one byte.  Minimality
    certificates come from ``check_minimal``.
    """
    r = params.r
    total = 1 << r
    if sample is not None and sample < 0:
        raise ValueError("sample must be nonnegative")
    exhaustive = check_enumeration_cap(r, sample)
    if exhaustive:
        values = range(total)
    else:
        values = tuple(sorted(random.Random(seed).sample(range(total), sample)))
    edges = channel_edges(T, params, tol)
    reducing = bytes(mask_is_reducing(v, edges) for v in values)
    return LatticeReport(
        params=params,
        values=values,
        reducing=reducing,
        counts=LatticeCounts(
            total_masks=total,
            checked_masks=len(values),
            reducing_count=sum(reducing),
        ),
        exhaustive=exhaustive,
        channel_components=len(components([dict.fromkeys(e) for e in edges], r)),
    )


def lattice_closure_check(report: LatticeReport) -> bool:
    """Check the reported family is a complemented sublattice.

    The family is the set of masks the report certifies reducing.  Channels
    that lie in exactly the same members form a class, and every member is
    a union of classes, so a family with a classes has at most 2^a members.
    It contains the zero and full masks and is closed under complement,
    meet and join exactly when it has all 2^a of them; the classes are
    then its atoms.  Mask operations are the operations on the 0/1
    diagonal projections because the channels, the residue classes mod r,
    partition the flat basis.  Meaningful for exhaustive reports; a
    sampled family will normally fail closure simply by missing members.
    """
    members, classes = reducing_classes(report)
    return members == 1 << classes


def reducing_classes(report: LatticeReport) -> tuple[int, int]:
    """The number of masks the report certifies reducing, and the number of
    classes of channels that lie in exactly the same ones of them (see
    ``lattice_closure_check``)."""
    family = sorted({v for v, flag in zip(report.values, report.reducing) if flag})
    classes = {
        bytes((v >> c) & 1 for v in family) for c in range(report.params.r)
    }
    return len(family), len(classes)


def lattice_component_check(report: LatticeReport) -> bool:
    """Cross-check the verdicts against the graph of ``channel_edges``: a
    mask reduces T exactly when it is a union of the graph's c connected
    components, so an exhaustive report has 2^c reducing masks.  c comes
    from the edges alone, not from the per-mask verdicts."""
    family = {v for v, flag in zip(report.values, report.reducing) if flag}
    return len(family) == 1 << report.channel_components
