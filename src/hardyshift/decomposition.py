"""Channel decomposition of the truncated power-of-shift operator.

Multiplication by z^n splits the space into m*n channels: the channel for
component i and residue j collects the basis vectors e_i z^{n k + j}.  The
channels partition the basis, each is invariant under the operator and under
its adjoint, and relabeling the k-th channel vector as the k-th coordinate
of a scalar model space turns the operator into a plain shift block.  The
permutation matrix realizing that relabeling is the intertwiner built here;
conjugating by it exhibits the operator as a direct sum of m*n scalar shift
blocks of size K.

Because the intertwiner is a permutation, conjugating by it is only a
relabeling of indices: ``channel_order`` lists, for each column of the
intertwiner, the flat row holding its 1, and (X* P X)[a][b] is
P[order[a]][order[b]].  The checks here and downstream read matrices
through that order instead of forming the products.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import DenseMatrix, direct_sum
from .operators import power_symbol, scalar_shift
from .scalars import Mode, one, scalars_close, zero
from .space import TruncationParams, flat_index


@dataclass(frozen=True)
class Channel:
    """Channel labels: component i in 1..m, residue j in 0..n-1.

    ``ordinal`` is the channel's position in the block order of the
    decomposed operator (and the bit position in lattice masks).
    """

    i: int
    j: int
    ordinal: int


def channel(i: int, j: int, params: TruncationParams) -> Channel:
    if not 1 <= i <= params.m:
        raise IndexError(f"component {i} out of range 1..{params.m}")
    if not 0 <= j < params.n:
        raise IndexError(f"residue {j} out of range 0..{params.n - 1}")
    return Channel(i=i, j=j, ordinal=j * params.m + (i - 1))


def channels(params: TruncationParams) -> tuple[Channel, ...]:
    """All channels in ordinal order."""
    return tuple(
        channel(i, j, params)
        for j in range(params.n)
        for i in range(1, params.m + 1)
    )


@dataclass(frozen=True)
class ChannelBasis:
    """Flat positions of the channel's basis vectors e_i z^{n k + j},
    k ascending."""

    channel: Channel
    flat_indices: tuple[int, ...]


def channel_basis(i: int, j: int, params: TruncationParams) -> ChannelBasis:
    ch = channel(i, j, params)
    flats = tuple(
        flat_index(i, params.n * k + j, params) for k in range(params.K)
    )
    return ChannelBasis(channel=ch, flat_indices=flats)


def all_channel_bases(params: TruncationParams) -> tuple[ChannelBasis, ...]:
    return tuple(
        channel_basis(ch.i, ch.j, params) for ch in channels(params)
    )


def partition_check(params: TruncationParams) -> bool:
    """True when the channel bases are disjoint and jointly exhaust the flat
    basis, each of size K."""
    seen: set[int] = set()
    total = 0
    for cb in all_channel_bases(params):
        if len(cb.flat_indices) != params.K:
            return False
        seen.update(cb.flat_indices)
        total += len(cb.flat_indices)
    return total == params.d and seen == set(range(params.d))


def channel_order(params: TruncationParams) -> tuple[int, ...]:
    """Flat index of the basis vector e_i z^{n k + j} at position c*K + k,
    for the channel of ordinal c: the row of the intertwiner's single 1 in
    column c*K + k."""
    return tuple(f for cb in all_channel_bases(params) for f in cb.flat_indices)


def build_intertwiner(params: TruncationParams, mode: Mode = "exact") -> DenseMatrix:
    """Unitary (permutation) matrix sending the k-th coordinate of channel c
    to the channel's k-th basis vector.

    Column a has its single 1 in row ``channel_order(params)[a]``, so the
    adjoint conjugation of the power operator lands on the direct sum of
    scalar shift blocks.
    """
    d = params.d
    z, o = zero(mode), one(mode)
    grid = [[z] * d for _ in range(d)]
    for a, f in enumerate(channel_order(params)):
        grid[f][a] = o
    return DenseMatrix(grid, mode)


def decomposed_shift(params: TruncationParams, mode: Mode = "exact") -> DenseMatrix:
    """Direct sum of r = m*n scalar shift blocks of size K, the normal form
    the intertwiner conjugation must reach."""
    block = scalar_shift(params.K, mode)
    return direct_sum([block] * params.r)


@dataclass(frozen=True)
class EquivalenceReport:
    unitary: bool
    intertwines: bool
    channel_bases: tuple[ChannelBasis, ...]

    @property
    def ok(self) -> bool:
        return self.unitary and self.intertwines


def verify_equivalence(
    params: TruncationParams,
    mode: Mode = "exact",
    tol: float | None = None,
    operator: DenseMatrix | None = None,
) -> EquivalenceReport:
    """Check that the intertwiner is unitary and conjugates the truncated
    power operator onto the direct sum of shift blocks.

    The intertwiner is unitary exactly when its channel order is a
    permutation of the flat indices, and its conjugation of the operator is
    read entry by entry through that order: entry (a, b) must be one where
    b = a - 1 within a channel's block of K coordinates and zero elsewhere,
    the entries of ``decomposed_shift``.  In exact mode the comparison is a
    zero-tolerance equality; in float mode it is entrywise within tol.  A
    caller that has already built ``power_symbol(params, mode)`` passes it
    as ``operator`` instead of having it built again.
    """
    if operator is None:
        operator = power_symbol(params, mode)
    order = channel_order(params)
    unitary = sorted(order) == list(range(params.d))
    T = operator.entries
    o, z = one(mode), zero(mode)
    intertwines = all(
        scalars_close(T[f][order[b]], o if b == a - 1 and a % params.K else z, tol)
        for a, f in enumerate(order)
        for b in range(params.d)
    )
    return EquivalenceReport(
        unitary=unitary,
        intertwines=intertwines,
        channel_bases=all_channel_bases(params),
    )
