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
symmetric X and a real antisymmetric Y.  Its rows are the real and
imaginary parts of the same commutation rows, rewritten over the entries
of X and Y, so one builder knows what a commutation equation is.  Its
dimension over the reals counts the orthogonal projections' degrees of
freedom, which is what decides how many reducing subspaces the truncated
operator actually has.  This realified system is solved in place of the
complex system for the commutant of {A, A*}, which has the same solutions
but measured slower in exact mode (see ``selfadjoint_commutant_dim``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from . import linalg
from .decomposition import ChannelBasis
from .errors import InvarianceError, ShapeError
from .matrices import DenseMatrix, matrices_close
from .scalars import GR_ONE, scalar_is_zero, scalars_close, zero


@dataclass(frozen=True)
class CommutantBasis:
    """Echelon-normalized basis of {P : AP = PA} for a d x d matrix A."""

    operator_dim: int
    basis: tuple[DenseMatrix, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _add(row: dict, key: int, coeff) -> None:
    # row[key] += coeff, dropping the entry when the sum cancels
    cur = row.get(key)
    nv = coeff if cur is None else cur + coeff
    if nv:
        row[key] = nv
    elif cur is not None:
        del row[key]


def _commutation_rows(A: DenseMatrix) -> list[dict]:
    # Equation for position (a, b): sum_w A[a][w] P[w][b] - P[a][w] A[w][b] = 0,
    # unknowns P vectorized as (u, v) -> u*d + v.
    d = A.rows
    rows_nz = [[] for _ in range(d)]
    cols_nz = [[] for _ in range(d)]
    for u, v, s in A.nonzero_items():
        rows_nz[u].append((v, s))
        cols_nz[v].append((u, s))
    rows: list[dict] = []
    for a in range(d):
        for b in range(d):
            row: dict[int, object] = {}
            for w, s in rows_nz[a]:
                _add(row, w * d + b, s)
            for w, s in cols_nz[b]:
                _add(row, a * d + w, -s)
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
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    strict = [pair for pair in pairs if pair[0] < pair[1]]
    xid = {pair: i for i, pair in enumerate(pairs)}
    yid = {pair: len(pairs) + i for i, pair in enumerate(strict)}
    return xid, yid


def _selfadjoint_rows(A: DenseMatrix) -> list[dict]:
    """Realified system for AP = PA with P Hermitian: the real and
    imaginary parts of the commutation rows.

    P = X + iY with X real symmetric and Y real antisymmetric, so a term
    c P[u][v] of a commutation row is (Re c + i Im c)(x_uv + i s y_uv),
    where s = +1 above the diagonal and -1 below it (Y vanishes on the
    diagonal).  Its real part puts Re c on x_uv and -s Im c on y_uv; its
    imaginary part puts Im c on x_uv and s Re c on y_uv.  In exact mode the
    parts are Fractions, so the system is solved over the rationals.
    """
    d = A.rows
    exact = A.mode == "exact"
    xid, yid = _sym_var_ids(d)
    rows = []
    for crow in _commutation_rows(A):
        real_row: dict[int, object] = {}
        imag_row: dict[int, object] = {}
        for key, c in crow.items():
            u, v = divmod(key, d)
            re, im = (c.re, c.im) if exact else (c.real, c.imag)
            pair = (u, v) if u <= v else (v, u)
            _add(real_row, xid[pair], re)
            _add(imag_row, xid[pair], im)
            if u != v:
                y = yid[pair]
                if u > v:
                    re, im = -re, -im
                _add(real_row, y, -im)
                _add(imag_row, y, re)
        if real_row:
            rows.append(real_row)
        if imag_row:
            rows.append(imag_row)
    return rows


def selfadjoint_commutant_dim(A: DenseMatrix, tol: float | None = None) -> int:
    """Real dimension of {P = P* : AP = PA}.

    This equals the complex commutant dimension when A is diagonalizable
    with real spectrum, but at truncation the operators here are nilpotent,
    so it is computed directly from the realified system of
    ``_selfadjoint_rows``.  The complex system AP = PA, A*P = PA* has the
    same solutions, but in exact mode its rows are Gaussian rationals where
    these are Fractions: its solve took about 2.2 times as long for z^n at
    (m,n,K)=(2,2,12) and for the benchmark's 2x2 symbol at d=16 (best of
    seven, one Xeon core).  In float mode it was slightly faster (0.85 to
    0.9 times at (2,2,7)), not enough to keep a second path for.
    """
    if A.rows != A.cols:
        raise ShapeError("commutant needs a square matrix")
    rows = _selfadjoint_rows(A)
    nvars = A.rows * A.rows
    if A.mode == "exact":
        return nvars - linalg.rank_exact(rows, nvars)
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
