"""Commutants of truncated operators, computed as honest kernels.

The commutant of A is the kernel of P -> AP - PA.  When A is an exact 0/1
partial permutation, A e_v = e_succ(v) or 0, as T = M_{z^n} and each of
its channel restrictions are, no system is built: equation (a, b) reads
P[pred a][b] = P[a][succ b], so the unknowns fall into chains
(u, v) -> (succ u, succ v), and ``_chains`` reads the kernel off their
ends in one walk with integer arrays.  Its vectors are exactly the ones
``linalg.kernel_basis`` returns for the same system.  These are the
paper's counts in coordinates: for z^n the surviving chains are the
diagonals of the channel pairs, r^2 K of them, and the self-adjoint
commutant has dimension r^2.

Every other operator, and every operator in float mode, goes through a
sparse homogeneous system with one equation per matrix position
(``_commutation_rows``, unknowns P vectorized row-major), which
``linalg.kernel_basis`` solves block by block.  A custom symbol's blocks
are eliminated over Gaussian rationals, so the exact commutant
dimension is a theorem about the matrix, not a numerical estimate.  In
float mode each block gets one small SVD behind the rank-ambiguity gate.

The self-adjoint variant parametrizes Hermitian P = X + iY by a real
symmetric X and a real antisymmetric Y.  Its rows are the real and
imaginary parts of the same commutation rows, rewritten over the entries
of X and Y, so one builder knows what a commutation equation is.  Its
dimension over the reals counts the orthogonal projections' degrees of
freedom, which is what decides how many reducing subspaces the truncated
operator actually has.  ``linalg.nullity`` solves this realified system
in place of the complex system for the commutant of {A, A*}, which has the
same solutions but measured slower in exact mode (see
``selfadjoint_commutant_dim``); a partial permutation needs neither.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence, Union

from . import linalg, scalars
from .decomposition import ChannelBasis
from .errors import InvarianceError, ShapeError
from .matrices import DenseMatrix, SparseMatrix
from .scalars import scalar_is_zero, scalars_close, zero


@dataclass(frozen=True)
class CommutantBasis:
    """Echelon-normalized basis of {P : AP = PA} for a d x d matrix A, kept
    sparse in ``elements``; ``basis`` builds them dense on first access."""

    operator_dim: int
    elements: tuple[SparseMatrix, ...]

    @property
    def dim(self) -> int:
        return len(self.elements)

    @cached_property
    def basis(self) -> tuple[DenseMatrix, ...]:
        return tuple(P.to_dense() for P in self.elements)


def _add(row: dict, key: int, coeff) -> None:
    # row[key] += coeff, dropping the entry when the sum cancels
    cur = row.get(key)
    nv = coeff if cur is None else cur + coeff
    if nv:
        row[key] = nv
    elif cur is not None:
        del row[key]


def _commutation_rows(A: DenseMatrix | SparseMatrix) -> list[dict]:
    # Equation for position (a, b): sum_w A[a][w] P[w][b] - P[a][w] A[w][b] = 0,
    # unknowns P vectorized as (u, v) -> u*d + v.
    # Each nonzero of A is negated here, once, not once per equation.
    d = A.rows
    rows_nz = [[] for _ in range(d)]
    cols_nz = [[] for _ in range(d)]
    for u, v, s in A.nonzero_items():
        rows_nz[u].append((v, s))
        cols_nz[v].append((u, -s))
    rows: list[dict] = []
    for a in range(d):
        for b in range(d):
            row: dict[int, object] = {}
            for w, s in rows_nz[a]:
                _add(row, w * d + b, s)
            for w, neg_s in cols_nz[b]:
                _add(row, a * d + w, neg_s)
            if row:
                rows.append(row)
    return rows


def _partial_permutation(A: DenseMatrix | SparseMatrix):
    """``(succ, pred, height)`` when A is an exact square 0/1 partial
    permutation, A e_v = e_succ[v] or 0, and None for any other A.

    ``succ[v]`` and ``pred[u]`` are -1 where A has no entry in column v or
    row u.  ``height[v]`` counts the steps v -> succ[v] -> ... before the
    walk stops, and is d on a cycle of succ, where it never stops.  One
    scan of A's nonzeros decides: any entry other than 1, or a second
    entry in a row or a column, declines.
    """
    d = A.rows
    if A.mode != "exact" or A.cols != d:
        return None
    one = scalars.one("exact")
    succ, pred = [-1] * d, [-1] * d
    for u, v, s in A.nonzero_items():
        if (s is not one and s != one) or succ[v] >= 0 or pred[u] >= 0:
            return None
        succ[v], pred[u] = u, v
    height = [d] * d
    for v in range(d):
        if succ[v] < 0:
            h, u = 0, v
            while u >= 0:
                height[u] = h
                h, u = h + 1, pred[u]
    return succ, pred, height


def _chains(succ: list[int], pred: list[int], height: list[int]):
    """The chains of a 0/1 partial permutation's commutation system that
    carry a kernel vector, each as its ascending list of (u, v) keys.

    Equation (a, b) of AP = PA reads P[pred a][b] = P[a][succ b], a term
    with index -1 dropped, so the unknowns fall into chains
    (u, v) -> (succ u, succ v), and each chain's kernel is spanned by its
    indicator unless a one-term equation zeroes it.  A chain that starts
    at (u0, v0) escapes the one-term equation at its start exactly when
    pred[v0] is -1, and the one at its end exactly when its last row index
    has no successor, that is when height[u0] <= height[v0].
    """
    d = len(succ)
    for v0 in range(d):
        if pred[v0] < 0:
            for u0 in range(d):
                if height[u0] <= height[v0]:
                    keys, u, v = [], u0, v0
                    while u >= 0:
                        keys.append((u, v))
                        u, v = succ[u], succ[v]
                    keys.sort()
                    yield keys
    yield from _closed_orbits(succ, height)


def _closed_orbits(succ: list[int], height: list[int]):
    """The orbits of (u, v) -> (succ u, succ v) with u and v on cycles of
    succ, each as its ascending list of keys.  No equation of such an
    orbit has a dropped term, so every one carries a kernel vector."""
    d = len(succ)
    cyclic = [v for v in range(d) if height[v] == d]
    seen: set[tuple[int, int]] = set()
    for u0 in cyclic:
        for v0 in cyclic:
            if (u0, v0) not in seen:
                keys, u, v = [], u0, v0
                while (u, v) not in seen:
                    seen.add((u, v))
                    keys.append((u, v))
                    u, v = succ[u], succ[v]
                keys.sort()
                yield keys


def commutant_basis(A: DenseMatrix | SparseMatrix, tol: float | None = None) -> CommutantBasis:
    """Basis of the commutant of A, canonical up to the elimination order.

    Exact mode needs no tol; float mode requires one and may raise
    RankAmbiguityError when the kernel boundary is too close to call.
    """
    if A.rows != A.cols:
        raise ShapeError("commutant needs a square matrix")
    d = A.rows
    shape = _partial_permutation(A)
    if shape is not None:
        # the vectors kernel_basis would return: one on the chain, its
        # largest key (the free column) first, in ascending free-column order
        one = scalars.one("exact")
        chains = sorted(_chains(*shape), key=lambda keys: keys[-1])
        return CommutantBasis(d, tuple(
            SparseMatrix(dict.fromkeys([keys[-1], *keys[:-1]], one), d, d, "exact")
            for keys in chains
        ))
    vecs = linalg.kernel_basis(_commutation_rows(A), d * d, A.mode, tol)
    return CommutantBasis(d, tuple(
        SparseMatrix({divmod(k, d): s for k, s in vec.items()}, d, d, A.mode) for vec in vecs
    ))


def _sym_var_ids(d: int):
    # Hermitian P = X + iY: X real symmetric, Y real antisymmetric.
    # Variables: x_(a,b) for a <= b, then y_(a,b) for a < b; d*d total.
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    strict = [pair for pair in pairs if pair[0] < pair[1]]
    xid = {pair: i for i, pair in enumerate(pairs)}
    yid = {pair: len(pairs) + i for i, pair in enumerate(strict)}
    return xid, yid


def _selfadjoint_rows(A: DenseMatrix | SparseMatrix) -> list[dict]:
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
            if re:
                _add(real_row, xid[pair], re)
                if u != v:
                    _add(imag_row, yid[pair], -re if u > v else re)
            if im:
                _add(imag_row, xid[pair], im)
                if u != v:
                    _add(real_row, yid[pair], im if u > v else -im)
        if real_row:
            rows.append(real_row)
        if imag_row:
            rows.append(imag_row)
    return rows


def selfadjoint_commutant_dim(A: DenseMatrix | SparseMatrix, tol: float | None = None) -> int:
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

    An exact 0/1 partial permutation needs no system: by ``_chains``, P is
    a combination of the indicators 1_C of the surviving chains, and P* of
    the indicators of their transposes, so the self-adjoint commutant is
    spanned by 1_C where C = C^T and by 1_C + 1_C^T and i(1_C - 1_C^T) for
    each pair with C != C^T that both survive.  Its real dimension counts
    the surviving C whose transpose survives too.  The transpose of the
    open chain from (u0, v0) starts at (v0, u0), so both survive exactly
    when u0 and v0 have no predecessor and equal heights; a closed orbit's
    transpose is closed.  That is sum over h of (heads of height h)^2,
    plus the number of closed orbits.
    """
    if A.rows != A.cols:
        raise ShapeError("commutant needs a square matrix")
    shape = _partial_permutation(A)
    if shape is not None:
        succ, pred, height = shape
        heads = Counter(height[v] for v in range(A.rows) if pred[v] < 0)
        closed = sum(1 for _ in _closed_orbits(succ, height))
        return sum(count * count for count in heads.values()) + closed
    return linalg.nullity(_selfadjoint_rows(A), A.rows * A.rows, A.mode, tol)


def is_lower_toeplitz(P: DenseMatrix, tol: float | None = None) -> bool:
    """True when P is lower triangular and constant along each diagonal,
    the shape every matrix commuting with a single shift block must have."""
    return P.rows == P.cols and is_block_lower_toeplitz(P, P.rows, tol)


def is_block_lower_toeplitz(
    P: DenseMatrix | SparseMatrix,
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
    is formed.  The scan is ``toeplitz_break``'s, O(nnz).
    """
    n = P.rows
    if P.cols != n or block_size < 1 or n % block_size:
        return False
    return toeplitz_break(P, block_size, tol, order) is None


@lru_cache(maxsize=8)
def _inverse(order: tuple[int, ...], n: int) -> tuple[int, ...]:
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the row indices")
    inv = [0] * n
    for a, f in enumerate(order):
        inv[f] = a
    return tuple(inv)


def toeplitz_break(
    P: DenseMatrix | SparseMatrix, block_size: int, tol: float | None = None,
    order: Sequence[int] | None = None,
) -> tuple[int, int] | None:
    """The first nonzero (u, v) of P, in P's own indices, that breaks the
    pattern of ``is_block_lower_toeplitz`` (whose shape rules P must pass),
    or None.  At relabeled (a, b) with block offsets u < v an entry must
    vanish; any other must equal Q[a-1][b-1] if u, v > 0 and Q[a+1][b+1]
    if u, v < block_size - 1, an absent entry reading as zero.  That
    compares each pair of diagonal neighbours with a nonzero side."""
    order = range(P.rows) if order is None else order
    inv = _inverse(tuple(order), P.rows)
    if isinstance(P, SparseMatrix):
        stored = P.entries
    else:
        stored = {(u, v): s for u, v, s in P.nonzero_items()}
    z, exact = zero(P.mode), P.mode == "exact"

    def differs(s, key) -> bool:
        # an exact scalar equals itself, and the chain basis shares its ones
        t = stored.get(key, z)
        return not (exact and t is s) and not scalars_close(s, t, tol)

    for (f, g), s in stored.items():
        a, b = inv[f], inv[g]
        u, v = a % block_size, b % block_size
        if u < v:
            if not scalar_is_zero(s, tol):
                return (f, g)
        elif (u and v and differs(s, (order[a - 1], order[b - 1]))) or (
            u < block_size - 1 and differs(s, (order[a + 1], order[b + 1]))
        ):
            return (f, g)
    return None


def restrict(
    A: DenseMatrix | SparseMatrix,
    basis: Union[ChannelBasis, Sequence[int]],
    tol: float | None = None,
) -> SparseMatrix:
    """Compression of A to the span of the given flat coordinates, after
    verifying that A maps that span into itself.

    Raises InvarianceError when a column of A leaks outside the span, since
    a restriction to a non-invariant coordinate subspace would silently
    change the operator.  The leak named is the first in ``indices`` order
    of columns, then the lowest row.  One scan of A's nonzeros decides
    both; entry (a, b) of the result is A[indices[a]][indices[b]].
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
    position = {f: a for a, f in enumerate(indices)}
    entries = {}
    leak = None
    for u, v, s in A.nonzero_items():
        b = position.get(v)
        if b is None:
            continue
        a = position.get(u)
        if a is not None:
            entries[(a, b)] = s
        elif not scalar_is_zero(s, tol) and (leak is None or (b, u) < leak):
            leak = (b, u)
    if leak is not None:
        b, u = leak
        raise InvarianceError(
            f"column {indices[b]} has a component at row {u} outside the subspace"
        )
    return SparseMatrix(entries, len(indices), len(indices), A.mode)
