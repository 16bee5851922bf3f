"""Dense and sparse matrices over exact or floating scalars.

``DenseMatrix`` stores tuples of tuples, treated as immutable.
``SparseMatrix`` stores only its nonzero entries, and it is the type of
every operator the pipeline reads: a truncated Toeplitz operator (see
``operators``), its compression to a channel (``commutant.restrict``) and
each commutant basis element.  T = M_{z^n} at (m,n,K)=(2,2,60) has
d - m*n = 236 nonzeros out of d^2 = 57600 entries, and the pipeline's
scans (``nonzero_items``) visit only those.  ``to_dense`` builds the dense
view on request, for a report that prints the matrix, a rank, or a
product.  ``DenseMatrix`` products skip zero entries of the left factor,
which makes multiplication by shifts, projections and permutations
effectively linear in the number of nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        return self.cols - linalg.nullity(rows, self.cols, self.mode, tol)

    def to_numpy(self) -> np.ndarray:
        return np.array(
            [[complex(s) for s in row] for row in self.entries], dtype=complex
        )


@dataclass(frozen=True)
class SparseMatrix:
    """A matrix kept as its nonzero entries ``{(u, v): scalar}``; an
    absent entry is the mode's zero.  Treated as immutable."""

    entries: dict
    rows: int
    cols: int
    mode: Mode

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def nonzero_items(self) -> Iterator[tuple[int, int, Scalar]]:
        """The stored nonzero entries in row-major order, the order of
        ``DenseMatrix.nonzero_items``."""
        entries = self.entries
        for key in sorted(entries):
            s = entries[key]
            if s:
                yield (*key, s)

    def nnz(self) -> int:
        return sum(1 for s in self.entries.values() if s)

    def to_dense(self) -> DenseMatrix:
        z = zero(self.mode)
        grid = [[z] * self.cols for _ in range(self.rows)]
        for (u, v), s in self.entries.items():
            grid[u][v] = s
        return DenseMatrix._raw(tuple(map(tuple, grid)), self.mode)


def matrices_close(a: DenseMatrix, b: DenseMatrix, tol: float | None = None) -> bool:
    if a.shape != b.shape or a.mode != b.mode:
        return False
    return all(
        scalars_close(x, y, tol)
        for ra, rb in zip(a.entries, b.entries)
        for x, y in zip(ra, rb)
    )
