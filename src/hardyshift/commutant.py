"""Commutants of truncated operators, computed as honest kernels.

The commutant of A is the kernel of P -> AP - PA.  Vectorizing P row-major
turns that into a sparse homogeneous system with one equation per matrix
position.  An unknown P[u][v] shares equations only with the unknowns
P[u'][v'] that A's nonzeros reach from it; for T = M_{z^n} these lie in
the same channel pair, on the same diagonal, so the system falls apart
into many small blocks (208 blocks of at most 7 unknowns for the 784
unknowns at (m,n,K)=(2,2,7)).  ``linalg`` solves each block alone.  The
exact eliminator works over Gaussian rationals, so in exact mode the
commutant dimension is a theorem about the matrix, not a numerical
estimate.  In float mode the same sparse rows go through one small SVD
per block, each behind the rank-ambiguity gate.

The self-adjoint variant parametrizes Hermitian P = X + iY by a real
symmetric X and a real antisymmetric Y and solves the realified system.
Its dimension over the reals counts the orthogonal projections' degrees of
freedom, which is what decides how many reducing subspaces the truncated
operator actually has.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from . import linalg
from .decomposition import ChannelBasis
from .errors import InvarianceError, ShapeError
from .matrices import DenseMatrix, matrices_close
from .scalars import GR_ONE, GaussianRational, scalar_is_zero, scalars_close, zero


@dataclass(frozen=True)
class CommutantBasis:
    """Echelon-normalized basis of {P : AP = PA} for a d x d matrix A."""

    operator_dim: int
    basis: tuple[DenseMatrix, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _row_col_supports(A: DenseMatrix):
    rows_nz = [[] for _ in range(A.rows)]
    cols_nz = [[] for _ in range(A.cols)]
    for u, v, s in A.nonzero_items():
        rows_nz[u].append((v, s))
        cols_nz[v].append((u, s))
    return rows_nz, cols_nz


def _commutation_rows(A: DenseMatrix) -> list[dict]:
    # Equation for position (a, b): sum_w A[a][w] P[w][b] - P[a][w] A[w][b] = 0,
    # unknowns P vectorized as (u, v) -> u*d + v.
    d = A.rows
    rows_nz, cols_nz = _row_col_supports(A)
    rows: list[dict] = []
    for a in range(d):
        for b in range(d):
            row: dict[int, object] = {}
            for w, s in rows_nz[a]:
                key = w * d + b
                cur = row.get(key)
                nv = s if cur is None else cur + s
                if nv:
                    row[key] = nv
                elif cur is not None:
                    del row[key]
            for w, s in cols_nz[b]:
                key = a * d + w
                cur = row.get(key)
                nv = -s if cur is None else cur - s
                if nv:
                    row[key] = nv
                elif cur is not None:
                    del row[key]
            if row:
                rows.append(row)
    return rows


def commutant_basis(A: DenseMatrix, tol: float | None = None) -> CommutantBasis:
    """Basis of the commutant of A, canonical up to the elimination order.

    Exact mode needs no tol; float mode requires one and may raise
    RankAmbiguityError when the kernel boundary is too close to call.
    """
    if A.rows != A.cols:
        raise ShapeError("commutant needs a square matrix")
    d = A.rows
    sys_rows = _commutation_rows(A)
    if A.mode == "exact":
        vecs = linalg.kernel_basis_exact(sys_rows, d * d, GR_ONE)
    else:
        vecs = linalg.kernel_basis_float(sys_rows, d * d, tol)
    z = zero(A.mode)
    mats = []
    for vec in vecs:
        grid = [[z] * d for _ in range(d)]
        for key, s in vec.items():
            grid[key // d][key % d] = s
        mats.append(DenseMatrix._raw(tuple(map(tuple, grid)), A.mode))
    return CommutantBasis(operator_dim=d, basis=tuple(mats))


def _sym_var_ids(d: int):
    # Hermitian P = X + iY: X real symmetric, Y real antisymmetric.
    # Variables: x_(a,b) for a <= b, then y_(a,b) for a < b; d*d total.
    xid = {}
    for a in range(d):
        for b in range(a, d):
            xid[(a, b)] = len(xid)
    yid = {}
    off = len(xid)
    for a in range(d):
        for b in range(a + 1, d):
            yid[(a, b)] = off + len(yid)
    return xid, yid


def _selfadjoint_rows(A: DenseMatrix):
    """Realified system for AP = PA with P Hermitian.

    Writing A = B + iC and P = X + iY, the real and imaginary parts of each
    equation (AP - PA)[a][b] = 0 become two real rows over the variables of
    X (symmetric) and Y (antisymmetric).
    """
    d = A.rows
    exact = A.mode == "exact"

    def parts(s):
        if isinstance(s, GaussianRational):
            return s.re, s.im
        s = complex(s)
        return s.real, s.imag

    rows_nz = [[] for _ in range(d)]
    cols_nz = [[] for _ in range(d)]
    for u, v, s in A.nonzero_items():
        re, im = parts(s)
        rows_nz[u].append((v, re, im))
        cols_nz[v].append((u, re, im))

    xid, yid = _sym_var_ids(d)

    def xvar(u, v):
        return xid[(u, v)] if u <= v else xid[(v, u)]

    def yvar(u, v):
        # returns (var, sign) or None on the diagonal where Y vanishes
        if u == v:
            return None
        if u < v:
            return yid[(u, v)], 1
        return yid[(v, u)], -1

    def add(row, var, coeff):
        if var is None or not coeff:
            return
        cur = row.get(var)
        nv = coeff if cur is None else cur + coeff
        if nv:
            row[var] = nv
        elif cur is not None:
            del row[var]

    rows = []
    for a in range(d):
        for b in range(d):
            real_row: dict[int, object] = {}
            imag_row: dict[int, object] = {}
            for w, bre, bim in rows_nz[a]:
                # A[a][w] * P[w][b]
                add(real_row, xvar(w, b), bre)
                yv = yvar(w, b)
                if yv is not None:
                    add(real_row, yv[0], -bim * yv[1])
                    add(imag_row, yv[0], bre * yv[1])
                add(imag_row, xvar(w, b), bim)
            for w, bre, bim in cols_nz[b]:
                # -P[a][w] * A[w][b]
                add(real_row, xvar(a, w), -bre)
                yv = yvar(a, w)
                if yv is not None:
                    add(real_row, yv[0], bim * yv[1])
                    add(imag_row, yv[0], -bre * yv[1])
                add(imag_row, xvar(a, w), -bim)
            if real_row:
                rows.append(real_row)
            if imag_row:
                rows.append(imag_row)
    nvars = len(xid) + len(yid)
    return rows, nvars, exact


def selfadjoint_commutant_dim(A: DenseMatrix, tol: float | None = None) -> int:
    """Real dimension of {P = P* : AP = PA}.

    This equals the complex commutant dimension when A is diagonalizable
    with real spectrum, but at truncation the operators here are nilpotent,
    so it is computed directly from the realified system.
    """
    if A.rows != A.cols:
        raise ShapeError("commutant needs a square matrix")
    rows, nvars, exact = _selfadjoint_rows(A)
    if exact:
        frac_rows = [
            {k: (v if isinstance(v, Fraction) else Fraction(v)) for k, v in row.items()}
            for row in rows
        ]
        return nvars - linalg.rank_exact(frac_rows, nvars)
    return nvars - linalg.rank_float(rows, nvars, tol)


def is_lower_toeplitz(P: DenseMatrix, tol: float | None = None) -> bool:
    """True when P is lower triangular and constant along each diagonal,
    the shape every matrix commuting with a single shift block must have."""
    return P.rows == P.cols and is_block_lower_toeplitz(P, P.rows, tol)


def is_block_lower_toeplitz(
    P: DenseMatrix,
    block_size: int,
    tol: float | None = None,
    order: Sequence[int] | None = None,
) -> bool:
    """True when every block_size x block_size block of P is lower
    Toeplitz.  This is the shape of the commutant of a direct sum of equal
    shift blocks, read through the block partition.

    With ``order`` (a permutation of the indices) the check applies to the
    relabeled matrix Q[a][b] = P[order[a]][order[b]], which is X* P X for
    the permutation X with its 1 of column a in row order[a]; no product
    is formed.  Entries are scanned in place: an entry that is the mode's
    zero object needs no comparison, every other one goes through
    scalar_is_zero or scalars_close.
    """
    n = P.rows
    if P.cols != n or block_size < 1 or n % block_size:
        return False
    if order is None:
        order = range(n)
    elif sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the row indices")
    entries = P.entries
    z = zero(P.mode)
    # per column: its source index, its offset in the block, and the source
    # index of the column before it
    cols = [(order[b], b % block_size, order[b - 1]) for b in range(n)]
    for a in range(n):
        u = a % block_size
        row = entries[order[a]]
        above = entries[order[a - 1]] if u else None
        for f, v, g in cols:
            s = row[f]
            if u < v:
                if s is not z and not scalar_is_zero(s, tol):
                    return False
            elif u and v:
                t = above[g]
                if (s is not z or t is not z) and not scalars_close(s, t, tol):
                    return False
    return True


def is_projection(P: DenseMatrix, tol: float | None = None) -> bool:
    """True when P is self-adjoint and idempotent (within tol in float mode)."""
    if P.rows != P.cols:
        return False
    return matrices_close(P, P.adjoint(), tol) and matrices_close(P @ P, P, tol)


def restrict(
    A: DenseMatrix,
    basis: Union[ChannelBasis, Sequence[int]],
    tol: float | None = None,
) -> DenseMatrix:
    """Compression of A to the span of the given flat coordinates, after
    verifying that A maps that span into itself.

    Raises InvarianceError when a column of A leaks outside the span, since
    a restriction to a non-invariant coordinate subspace would silently
    change the operator.
    """
    if isinstance(basis, ChannelBasis):
        indices = basis.flat_indices
    else:
        indices = tuple(basis)
    if len(set(indices)) != len(indices):
        raise ValueError("restriction indices must be distinct")
    if not indices:
        raise ValueError("restriction needs at least one coordinate")
    for f in indices:
        if not 0 <= f < A.cols:
            raise IndexError(f"flat index {f} out of range 0..{A.cols - 1}")
    index_set = set(indices)
    for v in indices:
        for u in range(A.rows):
            if u not in index_set and not scalar_is_zero(A.entries[u][v], tol):
                raise InvarianceError(
                    f"column {v} has a component at row {u} outside the subspace"
                )
    return DenseMatrix._raw(
        tuple(tuple(A.entries[u][v] for v in indices) for u in indices), A.mode
    )
