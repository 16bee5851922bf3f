"""Enumeration and certification of channel-union reducing subspaces.

Each of the 2^r channel masks selects a union of channels, and its 0/1
diagonal projection P commutes with the truncated power operator T exactly
when no nonzero entry of T joins a selected channel to an unselected one:
(PT - TP)[u][v] = (p_u - p_v) T[u][v].  The channel pairs joined by T are
collected once, and each mask is certified reducing by checking that none
of those pairs crosses its boundary.  Single channels are certified minimal
by computing the self-adjoint commutant of the operator restricted to
them: a restricted dimension of 1 means the only projections commuting
there are 0 and 1, so the channel admits no proper reducing subspace of
its own.  The reducing masks form a Boolean lattice exactly when their count is
2^a for the a classes of channels that they cannot tell apart.

The report also carries the self-adjoint commutant dimension of the full
operator.  At truncation this can exceed the count explained by the r
diagonal channel generators, and the report keeps that visible instead of
asserting the diagonal family is everything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .commutant import restrict, selfadjoint_commutant_dim
from .decomposition import (
    Channel,
    all_channel_bases,
    channel_basis,
    channel_order,
    channels,
    partition_check,
)
from .errors import CapError, ShapeError
from .matrices import DenseMatrix
from .operators import power_symbol
from .scalars import Mode, scalar_is_zero
from .space import TruncationParams

MAX_EXHAUSTIVE_CHANNELS = 20


@dataclass(frozen=True)
class ChannelMask:
    """Subset of channels, bit c for the channel of ordinal c."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("mask bits must be 0 or 1")

    @classmethod
    def from_int(cls, value: int, width: int) -> "ChannelMask":
        if value < 0 or value >= (1 << width):
            raise ValueError(f"mask value {value} out of range for {width} bits")
        return cls(tuple((value >> c) & 1 for c in range(width)))

    @property
    def value(self) -> int:
        return sum(b << c for c, b in enumerate(self.bits))

    @property
    def popcount(self) -> int:
        return sum(self.bits)

    @property
    def bitstring(self) -> str:
        """Bit of channel ordinal 0 first."""
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class MaskEntry:
    mask: ChannelMask
    subspace_dim: int
    is_reducing: bool


@dataclass(frozen=True)
class ChannelMinimality:
    channel: Channel
    is_minimal: bool
    restricted_selfadjoint_commutant_dim: int


@dataclass(frozen=True)
class LatticeCounts:
    total_masks: int
    checked_masks: int
    reducing_count: int


@dataclass(frozen=True)
class LatticeReport:
    params: TruncationParams
    entries: tuple[MaskEntry, ...]
    minimal_channels: tuple[ChannelMinimality, ...]
    full_selfadjoint_commutant_dim: int
    counts: LatticeCounts
    exhaustive: bool


def mask_projection(
    mask: ChannelMask, params: TruncationParams, mode: Mode = "exact"
) -> DenseMatrix:
    """Diagonal 0/1 projection onto the union of the selected channels."""
    if len(mask.bits) != params.r:
        raise ShapeError(
            f"mask has {len(mask.bits)} bits but the model has {params.r} channels"
        )
    diag = [0] * params.d
    for cb, bit in zip(all_channel_bases(params), mask.bits):
        if bit:
            for f in cb.flat_indices:
                diag[f] = 1
    return DenseMatrix.diagonal(diag, mode)


def check_minimal(
    ch: Channel,
    params: TruncationParams,
    mode: Mode = "exact",
    tol: float | None = None,
    operator: DenseMatrix | None = None,
) -> ChannelMinimality:
    """Certify one channel minimal: restrict the power operator to it and
    show the restricted self-adjoint commutant is one-dimensional.  A
    caller that has already built ``power_symbol(params, mode)`` passes it
    as ``operator`` instead of having it built again."""
    if operator is None:
        operator = power_symbol(params, mode)
    basis = channel_basis(ch.i, ch.j, params)
    restricted = restrict(operator, basis, tol)
    dim = selfadjoint_commutant_dim(restricted, tol)
    return ChannelMinimality(
        channel=ch,
        is_minimal=(dim == 1),
        restricted_selfadjoint_commutant_dim=dim,
    )


def channel_edges(
    T: DenseMatrix, params: TruncationParams, tol: float | None = None
) -> frozenset[tuple[int, int]]:
    """Pairs (a, b) of distinct channel ordinals such that T[u][v] is
    nonzero (beyond tol in float mode) for some u in channel a and v in
    channel b."""
    if T.shape != (params.d, params.d):
        raise ShapeError(f"operator is {T.shape} but the model has d={params.d}")
    owner = [0] * params.d
    for a, f in enumerate(channel_order(params)):
        owner[f] = a // params.K
    return frozenset(
        (owner[u], owner[v])
        for u, v, s in T.nonzero_items()
        if owner[u] != owner[v] and not scalar_is_zero(s, tol)
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
    params: TruncationParams,
    mode: Mode = "exact",
    tol: float | None = None,
    sample: int | None = None,
    seed: int = 0,
    full_selfadjoint_dim: int | None = None,
    operator: DenseMatrix | None = None,
) -> LatticeReport:
    """Verify the channel-union lattice of the truncated power operator.

    Checks every mask within the limit of ``check_enumeration_cap``; with
    ``sample`` below 2^r, a deterministic uniform sample of masks instead
    (the report then says exhaustive=False).  Each mask is checked against
    the channel pairs that the operator matrix joins.  A caller that has
    already solved the self-adjoint commutant of the full operator passes
    its dimension as ``full_selfadjoint_dim`` instead of having it solved
    again, and one that has already built ``power_symbol(params, mode)``
    passes it as ``operator``.
    """
    r = params.r
    total = 1 << r
    if sample is not None and sample < 0:
        raise ValueError("sample must be nonnegative")
    exhaustive = check_enumeration_cap(r, sample)
    if exhaustive:
        values = range(total)
    else:
        rng = random.Random(seed)
        values = sorted(rng.sample(range(total), sample))

    T = power_symbol(params, mode) if operator is None else operator
    edges = channel_edges(T, params, tol)

    def verify(value: int) -> MaskEntry:
        mask = ChannelMask.from_int(value, r)
        return MaskEntry(
            mask=mask,
            subspace_dim=mask.popcount * params.K,
            is_reducing=mask_is_reducing(value, edges),
        )

    entries = tuple(verify(v) for v in values)

    minimal = tuple(
        check_minimal(ch, params, mode, tol, T) for ch in channels(params)
    )
    if full_selfadjoint_dim is None:
        full_selfadjoint_dim = selfadjoint_commutant_dim(T, tol)
    counts = LatticeCounts(
        total_masks=total,
        checked_masks=len(entries),
        reducing_count=sum(1 for e in entries if e.is_reducing),
    )
    return LatticeReport(
        params=params,
        entries=entries,
        minimal_channels=minimal,
        full_selfadjoint_commutant_dim=full_selfadjoint_dim,
        counts=counts,
        exhaustive=exhaustive,
    )


def lattice_closure_check(report: LatticeReport) -> bool:
    """Check the reported family is a complemented sublattice.

    The family is the set of masks the report certifies reducing.  Channels
    that lie in exactly the same members form a class, and every member is
    a union of classes, so a family with a classes has at most 2^a members.
    It contains the zero and full masks and is closed under complement,
    meet and join exactly when it has all 2^a of them; the classes are
    then its atoms.  Mask operations are the operations on the 0/1
    diagonal projections because the channels partition the flat basis,
    which ``partition_check`` confirms.  Meaningful for exhaustive reports;
    a sampled family will normally fail closure simply by missing members.
    """
    family = sorted({e.mask.value for e in report.entries if e.is_reducing})
    classes = {
        bytes((v >> c) & 1 for v in family) for c in range(report.params.r)
    }
    return partition_check(report.params) and len(family) == 1 << len(classes)
