"""Matrices over exact or floating scalars.

``SparseMatrix`` stores only its nonzero entries, and it is the one type
of every operator the package reads: a truncated Toeplitz operator (see
``operators``), its block on a channel (``lattice.check_minimal``) and
each commutant basis element.  T = M_{z^n} at (m,n,K)=(2,2,60) has
d - m*n = 236 nonzeros out of d^2 = 57600 entries, and every scan
(``nonzero_items``) visits only those.  It has no arithmetic and no
solver: every identity the package checks is decided by relabelling
indices and scanning nonzeros, never by a matrix product, and its rank
is ``commutant.operator_rank``.

``DenseMatrix`` is the validated m x m coefficient of a ``MatrixSymbol``:
its constructor coerces every entry to the mode's scalar type and
refuses a ragged or empty grid.  Both are read-only values
(``errors.Record``), so a grid that passed validation stays as it was.
"""

from __future__ import annotations

from typing import Iterator

from .errors import Record, ShapeError
from .scalars import Mode, Scalar, as_scalar, one, zero


class DenseMatrix(Record):
    _fields = ("entries", "rows", "cols", "mode")

    def __init__(self, entries, mode: Mode = "exact"):
        norm = tuple(tuple(as_scalar(e, mode) for e in row) for row in entries)
        if not norm or not norm[0]:
            raise ShapeError("matrix must have at least one row and column")
        width = len(norm[0])
        if any(len(row) != width for row in norm):
            raise ShapeError("ragged rows")
        super().__init__(norm, len(norm), width, mode)

    @classmethod
    def identity(cls, n: int, mode: Mode = "exact") -> "DenseMatrix":
        z, o = zero(mode), one(mode)
        return cls([[o if u == v else z for v in range(n)] for u in range(n)], mode)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols}, mode={self.mode!r})"


class SparseMatrix(Record):
    """``SparseMatrix(entries, rows, cols, mode)``: a matrix kept as its
    nonzero entries ``{(u, v): scalar}``; an absent entry is the mode's
    zero.  A read-only value whose ``__dict__`` also keeps, outside its
    fields, what ``commutant`` learns of it once: its scan for a 0/1 shift
    along one subdiagonal, and its commutant basis per tol when the scan
    declines."""

    _fields = ("entries", "rows", "cols", "mode")

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, mode={self.mode!r})"

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def nonzero_items(self) -> Iterator[tuple[int, int, Scalar]]:
        """The stored nonzero entries as (u, v, scalar), in row-major order."""
        entries = self.entries
        for key in sorted(entries):
            s = entries[key]
            if s:
                yield (*key, s)

    def nnz(self) -> int:
        return sum(1 for s in self.entries.values() if s)
