"""Channel decomposition of the truncated power-of-shift operator.

Multiplication by z^n splits the space into r = m*n channels: the channel
for component i and residue j collects the basis vectors e_i z^{n k + j}.
In the degree-major flat layout that vector sits at k*r + c, where
c = j*m + (i - 1) is the channel's ordinal, so channel c is the residue
class of c mod r: flat index f lies in channel f % r, at position f // r
within it.  The operator sends f to f + r, so it maps each channel into
itself as a shift, and relabeling position k of channel c as coordinate
c*K + k of a scalar model space turns it into a direct sum of r scalar
shift blocks of size K.  The permutation matrix X realizing that
relabeling is the intertwiner.

Because X is a permutation, conjugating by it is only that relabeling:
(X* P X)[c*K + k][c'*K + k'] is P[k*r + c][k'*r + c'].  The checks here and
downstream read matrices through f = (f // r)*r + f % r, so neither X nor
any product with it is ever formed.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ShapeError
from .matrices import SparseMatrix
from .scalars import one, scalar_is_zero, scalars_close, zero
from .space import TruncationParams


class Channel(NamedTuple):
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


def channel_flats(ch: Channel, params: TruncationParams) -> range:
    """Flat positions of the channel's basis vectors e_i z^{n k + j}, k
    ascending: the residue class of its ordinal mod r."""
    return range(ch.ordinal, params.d, params.r)


def check_operator_shape(T: SparseMatrix, params: TruncationParams) -> None:
    """Raise ShapeError unless T is d x d for the model's d."""
    if T.shape != (params.d, params.d):
        raise ShapeError(f"operator is {T.shape} but the model has d={params.d}")


class EquivalenceReport(NamedTuple):
    unitary: bool
    intertwines: bool

    @property
    def ok(self) -> bool:
        return self.unitary and self.intertwines


def verify_equivalence(
    T: SparseMatrix, params: TruncationParams, tol: float | None = None
) -> EquivalenceReport:
    """Check that the intertwiner is unitary and conjugates T onto the
    direct sum of shift blocks, as it does the truncated power operator
    ``power_symbol(params, mode)``.

    The intertwiner is unitary exactly when the channels' flat positions
    are a permutation of the flat indices (``channel_cover_break``), and
    it conjugates T onto the direct sum of r shift blocks exactly when T
    is the shift f -> f + r (``shift_break``).  For an exact T the
    comparison is a zero-tolerance equality; for a float T it is entrywise
    within tol.  A T that is not d x d raises ShapeError.
    """
    check_operator_shape(T, params)
    unitary = channel_cover_break(params) is None
    intertwines = unitary and shift_break(T, params, tol) is None
    return EquivalenceReport(unitary=unitary, intertwines=intertwines)


def channel_cover_break(params: TruncationParams) -> tuple[int, int] | None:
    """The first flat index that is not held by exactly one channel's flat
    positions, with the number of channels that hold it, or None when the
    channels partition range(d)."""
    held = [0] * params.d
    for ch in channels(params):
        for f in channel_flats(ch, params):
            held[f] += 1
    return next(((f, count) for f, count in enumerate(held) if count != 1), None)


def shift_break(
    T: SparseMatrix, params: TruncationParams, tol: float | None = None
) -> tuple[int, int] | None:
    """The first nonzero (f, g) of T that is not a one at a shift position
    f = g + r, else the first shift position (g + r, g) that T leaves
    empty, or None when T is the shift by r.

    The shift positions are where the relabeled T has the direct sum's
    ones, b = a - 1 inside a block of K.  One scan of T's nonzeros, d - r
    of them for the ``SparseMatrix`` that ``power_symbol`` builds, counts
    the ones, each first by identity with the mode's shared one and only
    then by comparison; a missing entry, zero, passes only when it is
    itself within tol of one.
    """
    o, r = one(T.mode), params.r
    seen = 0
    for f, g, s in T.nonzero_items():
        if f == g + r and (s is o or scalars_close(s, o, tol)):
            seen += 1
        elif f == g + r or not scalar_is_zero(s, tol):
            return (f, g)
    if seen == params.d - r or scalars_close(zero(T.mode), o, tol):
        return None
    g = next(g for g in range(params.d - r) if not T.entries.get((g + r, g)))
    return (g + r, g)
