"""Dense matrices over exact or floating scalars.

Matrices are stored densely as tuples of tuples and treated as immutable.
The operators reach a few hundred rows (d = 240 for a full report at
(m,n,K)=(2,2,60)), and each commutant basis element is such a d x d grid,
which dominates memory at that size; the solvers themselves work on sparse
rows (see ``commutant`` and ``linalg``).  Products skip zero entries of the
left factor, which makes multiplication by shifts, projections and
permutations (the common case here) effectively linear in the number of
nonzeros.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from . import linalg
from .errors import ShapeError
from .scalars import (
    Mode,
    Scalar,
    as_scalar,
    one,
    scalar_is_zero,
    scalars_close,
    zero,
)


class DenseMatrix:
    __slots__ = ("entries", "rows", "cols", "mode")

    def __init__(self, entries, mode: Mode = "exact"):
        norm = tuple(tuple(as_scalar(e, mode) for e in row) for row in entries)
        if not norm or not norm[0]:
            raise ShapeError("matrix must have at least one row and column")
        width = len(norm[0])
        if any(len(row) != width for row in norm):
            raise ShapeError("ragged rows")
        self.entries = norm
        self.rows = len(norm)
        self.cols = width
        self.mode = mode

    @classmethod
    def _raw(cls, entries, mode: Mode) -> "DenseMatrix":
        # entries already normalized tuples of the right scalar type
        self = object.__new__(cls)
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0])
        self.mode = mode
        return self

    @classmethod
    def zeros(cls, rows: int, cols: int, mode: Mode = "exact") -> "DenseMatrix":
        if rows < 1 or cols < 1:
            raise ShapeError("matrix must have at least one row and column")
        z = zero(mode)
        return cls._raw(tuple((z,) * cols for _ in range(rows)), mode)

    @classmethod
    def identity(cls, n: int, mode: Mode = "exact") -> "DenseMatrix":
        z, o = zero(mode), one(mode)
        return cls._raw(
            tuple(tuple(o if u == v else z for v in range(n)) for u in range(n)),
            mode,
        )

    @classmethod
    def diagonal(cls, values: Sequence, mode: Mode = "exact") -> "DenseMatrix":
        vals = [as_scalar(v, mode) for v in values]
        z = zero(mode)
        n = len(vals)
        return cls._raw(
            tuple(tuple(vals[u] if u == v else z for v in range(n)) for u in range(n)),
            mode,
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, u: int):
        return self.entries[u]

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (
            self.mode == other.mode
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols}, mode={self.mode!r})"

    def _require_same_mode(self, other: "DenseMatrix") -> None:
        if self.mode != other.mode:
            raise TypeError(f"mode mismatch: {self.mode!r} vs {other.mode!r}")

    def __matmul__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        self._require_same_mode(other)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        z = zero(self.mode)
        o = one(self.mode)
        oentries = other.entries
        out = []
        for arow in self.entries:
            crow = [z] * other.cols
            for w, a in enumerate(arow):
                if not a:
                    continue
                brow = oentries[w]
                if a == o:
                    for v, b in enumerate(brow):
                        if b:
                            cur = crow[v]
                            crow[v] = b if cur is z else cur + b
                else:
                    for v, b in enumerate(brow):
                        if b:
                            cur = crow[v]
                            crow[v] = a * b if cur is z else cur + a * b
            out.append(tuple(crow))
        return DenseMatrix._raw(tuple(out), self.mode)

    def __add__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        self._require_same_mode(other)
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return DenseMatrix._raw(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
            self.mode,
        )

    def __sub__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        self._require_same_mode(other)
        if self.shape != other.shape:
            raise ShapeError(f"cannot subtract {other.shape} from {self.shape}")
        return DenseMatrix._raw(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
            self.mode,
        )

    def __neg__(self):
        return DenseMatrix._raw(
            tuple(tuple(-a for a in row) for row in self.entries), self.mode
        )

    def scaled(self, s) -> "DenseMatrix":
        s = as_scalar(s, self.mode)
        return DenseMatrix._raw(
            tuple(tuple(s * a for a in row) for row in self.entries), self.mode
        )

    def __pow__(self, k: int) -> "DenseMatrix":
        if not isinstance(k, int) or k < 0:
            raise ValueError("matrix powers must be nonnegative integers")
        if self.rows != self.cols:
            raise ShapeError("matrix power needs a square matrix")
        acc = DenseMatrix.identity(self.rows, self.mode)
        for _ in range(k):
            acc = acc @ self
        return acc

    def adjoint(self) -> "DenseMatrix":
        return DenseMatrix._raw(
            tuple(
                tuple(self.entries[u][v].conjugate() for u in range(self.rows))
                for v in range(self.cols)
            ),
            self.mode,
        )

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix._raw(
            tuple(
                tuple(self.entries[u][v] for u in range(self.rows))
                for v in range(self.cols)
            ),
            self.mode,
        )

    def matvec(self, vec: Sequence) -> tuple:
        if len(vec) != self.cols:
            raise ShapeError(f"vector of length {len(vec)} against {self.shape}")
        z = zero(self.mode)
        out = []
        for row in self.entries:
            acc = z
            for a, x in zip(row, vec):
                if a and x:
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def nonzero_items(self) -> Iterator[tuple[int, int, Scalar]]:
        for u, row in enumerate(self.entries):
            for v, s in enumerate(row):
                if s:
                    yield (u, v, s)

    def nnz(self) -> int:
        return sum(1 for _ in self.nonzero_items())

    def is_zero(self, tol: float | None = None) -> bool:
        return all(
            scalar_is_zero(s, tol) for row in self.entries for s in row
        )

    def rank(self, tol: float | None = None) -> int:
        """Rank, exact by elimination in exact mode, by SVD (with the
        ambiguity gate) in float mode where tol is required."""
        rows = [{v: s for v, s in enumerate(row) if s} for row in self.entries]
        if self.mode == "exact":
            return linalg.rank_exact(rows, self.cols)
        return linalg.rank_float(rows, self.cols, tol)

    def to_numpy(self) -> np.ndarray:
        return np.array(
            [[complex(s) for s in row] for row in self.entries], dtype=complex
        )


def direct_sum(blocks: Sequence[DenseMatrix]) -> DenseMatrix:
    if not blocks:
        raise ShapeError("direct_sum needs at least one block")
    mode = blocks[0].mode
    if any(b.mode != mode for b in blocks):
        raise TypeError("direct_sum blocks must share a mode")
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    z = zero(mode)
    grid = [[z] * cols for _ in range(rows)]
    roff = coff = 0
    for b in blocks:
        for u in range(b.rows):
            row = grid[roff + u]
            for v in range(b.cols):
                row[coff + v] = b.entries[u][v]
        roff += b.rows
        coff += b.cols
    return DenseMatrix._raw(tuple(tuple(r) for r in grid), mode)


def commutator(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    return a @ b - b @ a


def matrices_close(a: DenseMatrix, b: DenseMatrix, tol: float | None = None) -> bool:
    if a.shape != b.shape or a.mode != b.mode:
        return False
    return all(
        scalars_close(x, y, tol)
        for ra, rb in zip(a.entries, b.entries)
        for x, y in zip(ra, rb)
    )


def is_permutation(m: DenseMatrix, tol: float | None = None) -> bool:
    """True when every entry is 0 or 1 (within tol in float mode) with
    exactly one 1 in each row and column."""
    if m.rows != m.cols:
        return False
    o = one(m.mode)
    col_hits = [0] * m.cols
    for row in m.entries:
        row_hits = 0
        for v, s in enumerate(row):
            if scalars_close(s, o, tol):
                row_hits += 1
                col_hits[v] += 1
            elif not scalar_is_zero(s, tol):
                return False
        if row_hits != 1:
            return False
    return all(c == 1 for c in col_hits)
