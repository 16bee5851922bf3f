"""Shared fixtures: the parameter sweep and independent oracles.

The oracles here recompute expected behavior through a different route than
the package (polynomial coefficient dicts instead of flat matrices, numpy
instead of exact elimination) so agreement is evidence, not tautology.
Truncated functions enter them as ``CoeffVector`` coefficient tuples with
the Hardy-space pairing; the package itself works on matrices only.

The dense references further down (the intertwiner X, the direct sum of
shift blocks, mask projections, commutators, ``restrict_reference``) state
the paper's identities as dense matrix products.  The package checks the
same identities by index relabels and scans of nonzeros, and never builds
these matrices.  Their algebra (indexing, nonzero scans, products, sums,
powers, adjoints) is this module's ``DenseMatrix``, which extends the
package's symbol coefficient matrix; ``dense`` gives that view of any
package matrix.  The package reads every operator as a ``SparseMatrix``,
and ``sparse`` builds one from a grid or a dense matrix.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hardyshift import (
    GaussianRational,
    RankAmbiguityError,
    ShapeError,
    TruncationParams,
    floatsolve,
    linalg,
    matrices,
    scalar_shift,
)
from hardyshift.errors import Record
from hardyshift.scalars import as_scalar, one, scalar_is_zero, scalars_close, zero

SWEEP = [
    TruncationParams(m, n, K)
    for m in (1, 2, 3)
    for n in (1, 2, 3)
    for K in (2, 3, 4)
]

SMALL_SWEEP = [p for p in SWEEP if p.d <= 12]


@dataclass(frozen=True)
class BasisIndex:
    """Basis vector e_i z^p, component i in 1..m, degree p in 0..N-1."""

    i: int
    p: int


def flat_index(i, p, params):
    """Flat position p*m + (i - 1) of the basis vector e_i z^p, the
    degree-major layout of ``space``."""
    if not 1 <= i <= params.m:
        raise IndexError(f"component {i} out of range 1..{params.m}")
    if not 0 <= p < params.N:
        raise IndexError(f"degree {p} out of range 0..{params.N - 1}")
    return p * params.m + (i - 1)


def unflat_index(f, params):
    """Inverse of ``flat_index``."""
    if not 0 <= f < params.d:
        raise IndexError(f"flat index {f} out of range 0..{params.d - 1}")
    p, rem = divmod(f, params.m)
    return BasisIndex(i=rem + 1, p=p)


@dataclass(frozen=True)
class CoeffVector:
    """Flat coefficient tuple of a truncated function."""

    entries: tuple
    mode: str = "exact"

    @property
    def dim(self):
        return len(self.entries)


def vector_of(entries, mode="exact"):
    return CoeffVector(tuple(as_scalar(e, mode) for e in entries), mode)


def zero_vector(params, mode="exact"):
    return CoeffVector((zero(mode),) * params.d, mode)


def basis_vector(i, p, params, mode="exact"):
    f = flat_index(i, p, params)
    z = zero(mode)
    entries = [z] * params.d
    entries[f] = one(mode)
    return CoeffVector(tuple(entries), mode)


def inner_product(f, g):
    """Hardy-space pairing of truncated functions: linear in the first
    argument, conjugate-linear in the second."""
    if f.dim != g.dim:
        raise ShapeError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if f.mode != g.mode:
        raise TypeError(f"mode mismatch: {f.mode!r} vs {g.mode!r}")
    acc = zero(f.mode)
    for a, b in zip(f.entries, g.entries):
        if a and b:
            acc = acc + a * b.conjugate()
    return acc


def scalar_abs2(s):
    """Squared modulus: exact Fraction for Gaussian rationals, float otherwise."""
    if isinstance(s, GaussianRational):
        return s.abs2()
    s = complex(s)
    return s.real * s.real + s.imag * s.imag


def norm_squared(f):
    """Exact squared norm: a Fraction in exact mode, a float otherwise."""
    acc = Fraction(0) if f.mode == "exact" else 0.0
    for a in f.entries:
        if a:
            acc = acc + scalar_abs2(a)
    return acc


def norm(f):
    return math.sqrt(float(norm_squared(f)))


def poly_from_vector(vec, params):
    """Flat coefficient tuple -> {degree: [component values]} dict."""
    coeffs = {}
    for f, s in enumerate(vec.entries):
        idx = unflat_index(f, params)
        coeffs.setdefault(idx.p, [None] * params.m)[idx.i - 1] = s
    return coeffs


def poly_multiply_truncate(symbol_coeffs, vec, params, zero_scalar):
    """Oracle for truncated multiplication by a matrix polynomial.

    symbol_coeffs: list of (t, rows) with rows a list of lists of scalars.
    Works degree by degree in polynomial space, drops degrees >= N, and
    reflattens, never touching the package's operator matrices.
    """
    m, N = params.m, params.N
    invec = poly_from_vector(vec, params)
    out = {p: [zero_scalar] * m for p in range(N)}
    for t, rows in symbol_coeffs:
        for p, comps in invec.items():
            q = p + t
            if q >= N:
                continue
            target = out[q]
            for a in range(m):
                acc = target[a]
                row = rows[a]
                for b in range(m):
                    if row[b] and comps[b]:
                        acc = acc + row[b] * comps[b]
                target[a] = acc
    flat = [zero_scalar] * params.d
    for p, comps in out.items():
        for a in range(m):
            flat[flat_index(a + 1, p, params)] = comps[a]
    return vector_of(flat, vec.mode)


class FractionGaussianRational:
    """Reference Gaussian rational: a pair of ``Fraction`` parts, each
    operation spelled out on the parts.  The package's ``GaussianRational``
    holds one reduced triple of ints instead; ``test_scalars`` compares the
    two on every operation.  It prints as the class it stands for."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("float is not exact; use mode='float' instead")
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _coerce(value):
        if isinstance(value, FractionGaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return FractionGaussianRational(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FractionGaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FractionGaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FractionGaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = other.abs2()
        if not den:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return FractionGaussianRational(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return FractionGaussianRational(-self.re, -self.im)

    def conjugate(self):
        return FractionGaussianRational(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def __abs__(self):
        return math.sqrt(float(self.abs2()))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({str(self.re)!r}, {str(self.im)!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def rand_gaussian_rational(rng, span=4, den=3):
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
    )


def rand_vector(rng, params, span=4, den=3):
    return vector_of(
        [rand_gaussian_rational(rng, span, den) for _ in range(params.d)]
    )


def dense_rank(rows):
    """Rank of a list of equal-length exact rows, via a dense elimination
    (no shared code with the package's sparse eliminator)."""
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    rows = [list(r) for r in rows]
    while rank < len(rows) and col < ncols:
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pval = rows[rank][col]
        rows[rank] = [x / pval for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def span_rank(mats):
    """Rank of the span of a list of exact matrices, by ``dense_rank``
    over vectorized rows."""
    return dense_rank([[s for row in mat.entries for s in row] for mat in mats])


def in_span(mats, candidate):
    """True when candidate lies in the linear span of mats (exact)."""
    return span_rank(list(mats)) == span_rank(list(mats) + [candidate])


class DenseMatrix(matrices.DenseMatrix):
    """The package's dense matrix with the algebra of the references.
    Products skip zero entries of the left factor, which makes
    multiplication by shifts, projections and permutations effectively
    linear in the number of nonzeros.  An operand may be any package
    ``DenseMatrix``; every result is this class."""

    @classmethod
    def _raw(cls, entries, mode):
        # entries already normalized tuples of the right scalar type
        self = object.__new__(cls)
        Record.__init__(self, entries, len(entries), len(entries[0]), mode)
        return self

    def __getitem__(self, u):
        return self.entries[u]

    def nonzero_items(self):
        for u, row in enumerate(self.entries):
            for v, s in enumerate(row):
                if s:
                    yield (u, v, s)

    def nnz(self):
        return sum(1 for _ in self.nonzero_items())

    @classmethod
    def zeros(cls, rows, cols, mode="exact"):
        if rows < 1 or cols < 1:
            raise ShapeError("matrix must have at least one row and column")
        z = zero(mode)
        return cls._raw(tuple((z,) * cols for _ in range(rows)), mode)

    @classmethod
    def diagonal(cls, values, mode="exact"):
        vals = [as_scalar(v, mode) for v in values]
        z = zero(mode)
        n = len(vals)
        return cls._raw(
            tuple(tuple(vals[u] if u == v else z for v in range(n)) for u in range(n)),
            mode,
        )

    def _require_same_mode(self, other):
        if self.mode != other.mode:
            raise TypeError(f"mode mismatch: {self.mode!r} vs {other.mode!r}")

    def __matmul__(self, other):
        if not isinstance(other, matrices.DenseMatrix):
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
        if not isinstance(other, matrices.DenseMatrix):
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
        if not isinstance(other, matrices.DenseMatrix):
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

    def scaled(self, s):
        s = as_scalar(s, self.mode)
        return DenseMatrix._raw(
            tuple(tuple(s * a for a in row) for row in self.entries), self.mode
        )

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("matrix powers must be nonnegative integers")
        if self.rows != self.cols:
            raise ShapeError("matrix power needs a square matrix")
        acc = DenseMatrix.identity(self.rows, self.mode)
        for _ in range(k):
            acc = acc @ self
        return acc

    def adjoint(self):
        return DenseMatrix._raw(
            tuple(
                tuple(self.entries[u][v].conjugate() for u in range(self.rows))
                for v in range(self.cols)
            ),
            self.mode,
        )

    def matvec(self, vec):
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

    def is_zero(self, tol=None):
        return all(
            scalar_is_zero(s, tol) for row in self.entries for s in row
        )

    def to_numpy(self):
        return np.array(
            [[complex(s) for s in row] for row in self.entries], dtype=complex
        )


def dense(X):
    """The reference ``DenseMatrix`` view of a package matrix, built from
    its entries: a ``SparseMatrix``'s ``{(u, v): scalar}`` dict, absent
    entries read as zero, or a ``DenseMatrix``'s grid."""
    if isinstance(X, matrices.SparseMatrix):
        z = zero(X.mode)
        grid = tuple(tuple(X.entries.get((u, v), z) for v in range(X.cols))
                     for u in range(X.rows))
        return DenseMatrix._raw(grid, X.mode)
    return DenseMatrix._raw(X.entries, X.mode)


def sparse(X, mode="exact", full=False):
    """The package ``SparseMatrix`` of a dense matrix, in its mode, or of a
    grid of numbers, coerced to ``mode``: its nonzero entries, or with
    ``full`` every entry, zeros stored too."""
    if not isinstance(X, matrices.DenseMatrix):
        X = matrices.DenseMatrix(X, mode)
    entries = {(u, v): s for u, row in enumerate(X.entries) for v, s in enumerate(row)
               if full or s}
    return matrices.SparseMatrix(entries, X.rows, X.cols, X.mode)


def dense_basis(cb):
    """The elements of a ``CommutantBasis`` as reference dense matrices."""
    return [dense(cb.element(i)) for i in range(cb.dim)]


def matrices_close(a, b, tol=None):
    """Same shape, same mode, and every pair of entries ``scalars_close``."""
    if a.shape != b.shape or a.mode != b.mode:
        return False
    return all(
        scalars_close(x, y, tol)
        for ra, rb in zip(a.entries, b.entries)
        for x, y in zip(ra, rb)
    )


def dense_block_toeplitz_reference(P, block_size, tol=None, order=None):
    """The dense scan that ``is_block_lower_toeplitz`` used before it read
    only the nonzeros: every entry of the relabeled matrix
    Q[a][b] = P[order[a]][order[b]], the upper part of each block of
    block_size against zero and every other entry against its diagonal
    predecessor, skipping pairs of two zero objects.  P may be any package
    matrix, sparse or dense."""
    P = dense(P)
    n = P.rows
    if P.cols != n or block_size < 1 or n % block_size:
        return False
    if order is None:
        order = range(n)
    elif sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the row indices")
    entries = P.entries
    z = zero(P.mode)
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


def is_lower_toeplitz(P, tol=None):
    """True when P is lower triangular and constant along each diagonal,
    the shape every matrix commuting with a single shift block must have."""
    return P.rows == P.cols and dense_block_toeplitz_reference(P, P.rows, tol)


def intertwines_reference(T, order, params, mode, tol=None):
    """``verify_equivalence``'s intertwining test as a dense scan: every one
    of the d^2 relabelled entries T[order[a]][order[b]] against the entry
    of ``decomposed_shift``, one where b = a - 1 inside a block, else zero."""
    o, z = one(mode), zero(mode)
    return all(
        scalars_close(T.entries[f][order[b]], o if b == a - 1 and a % params.K else z, tol)
        for a, f in enumerate(order)
        for b in range(params.d)
    )


def direct_sum(blocks):
    """Block-diagonal DenseMatrix of the given dense blocks."""
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
    return DenseMatrix(grid, mode)


def commutator(a, b):
    return a @ b - b @ a


def is_permutation(m, tol=None):
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


def is_projection(P, tol=None):
    """True when P is self-adjoint and idempotent (within tol in float mode)."""
    if P.rows != P.cols:
        return False
    return matrices_close(P, P.adjoint(), tol) and matrices_close(P @ P, P, tol)


def channel_order_reference(params):
    """Flat position of the basis vector e_i z^{n k + j} at index c*K + k,
    for the channel of ordinal c = j*m + (i - 1): the row of the
    intertwiner's single 1 in column c*K + k.  Built from
    ``space.flat_index`` alone, so it shares no code with the package's
    channel arithmetic."""
    return tuple(
        flat_index(i, params.n * k + j, params)
        for j in range(params.n)
        for i in range(1, params.m + 1)
        for k in range(params.K)
    )


def channel_flats_reference(c, params):
    """Flat positions of the channel of ordinal c, k ascending."""
    return channel_order_reference(params)[c * params.K:(c + 1) * params.K]


def build_intertwiner(params, mode="exact"):
    """Unitary (permutation) matrix X sending the k-th coordinate of channel
    c to the channel's k-th basis vector: column a has its single 1 in row
    ``channel_order_reference(params)[a]``."""
    d = params.d
    z, o = zero(mode), one(mode)
    grid = [[z] * d for _ in range(d)]
    for a, f in enumerate(channel_order_reference(params)):
        grid[f][a] = o
    return DenseMatrix(grid, mode)


def decomposed_shift(params, mode="exact"):
    """Direct sum of r = m*n scalar shift blocks of size K, the normal form
    that X* T X must reach."""
    return direct_sum([dense(scalar_shift(params.K, mode))] * params.r)


def mask_projection(value, r, params, mode="exact"):
    """Diagonal 0/1 projection onto the union of the channels selected by
    the r-bit mask ``value``, bit c for the channel of ordinal c."""
    if r != params.r:
        raise ShapeError(f"mask has {r} bits but the model has {params.r} channels")
    diag = [0] * params.d
    for c in range(params.r):
        if (value >> c) & 1:
            for f in channel_flats_reference(c, params):
                diag[f] = 1
    return DenseMatrix.diagonal(diag, mode)


def apply(operator, vec):
    """A dense operator applied to a coefficient vector."""
    if operator.mode != vec.mode:
        raise TypeError(f"mode mismatch: {operator.mode!r} vs {vec.mode!r}")
    return CoeffVector(operator.matvec(vec.entries), vec.mode)


class InvarianceError(Exception):
    """``restrict_reference`` was asked to compress onto a coordinate
    subspace that the operator does not leave invariant."""


def restrict_reference(A, indices, tol=None):
    """The compression of a DenseMatrix to the span of the flat coordinates
    in ``indices``, as a dense scan: every entry of each column in
    ``indices`` order, rows ascending, for a leak out of the span (which
    raises InvarianceError), then the compressed block read off the grid."""
    index_set = set(indices)
    for v in indices:
        for u in range(A.rows):
            if u not in index_set and not scalar_is_zero(A.entries[u][v], tol):
                raise InvarianceError(
                    f"column {v} has a component at row {u} outside the subspace"
                )
    return DenseMatrix(
        [[A.entries[u][v] for v in indices] for u in indices], A.mode
    )


def _add_term(row, key, coeff):
    # row[key] += coeff, dropping the entry when the sum cancels
    cur = row.get(key)
    nv = coeff if cur is None else cur + coeff
    if nv:
        row[key] = nv
    elif cur is not None:
        del row[key]


def commutation_rows_reference(A):
    """The commutation system of A as ``{unknown: coefficient}`` rows, one
    per matrix position (a, b) with a nonzero left after cancellation:
    sum_w A[a][w] P[w][b] - P[a][w] A[w][b], unknowns P[u][v] -> u*d + v.
    Each equation is written out in full, in either mode."""
    d = A.rows
    rows_nz = [[] for _ in range(d)]
    cols_nz = [[] for _ in range(d)]
    for u, v, s in A.nonzero_items():
        rows_nz[u].append((v, s))
        cols_nz[v].append((u, -s))
    rows = []
    for a in range(d):
        for b in range(d):
            row = {}
            for w, s in rows_nz[a]:
                _add_term(row, w * d + b, s)
            for w, neg_s in cols_nz[b]:
                _add_term(row, a * d + w, neg_s)
            if row:
                rows.append(row)
    return rows


def rank_reference(A, tol=None):
    """Rank of a ``SparseMatrix``, its width minus the length of the
    kernel basis of its own rows, by elimination or by the float SVDs,
    with no chain-path shortcut: what ``operator_rank`` must agree with."""
    rows = [{} for _ in range(A.rows)]
    for u, v, s in A.nonzero_items():
        rows[u][v] = s
    return A.cols - len(linalg.kernel_basis(rows, A.cols, A.mode, tol))


def sym_var_ids_reference(d):
    """Ids of the unknowns of Hermitian P = X + iY as dicts: x_(a,b) for
    a <= b, then y_(a,b) for a < b, each row-major; d*d in all."""
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    strict = [pair for pair in pairs if pair[0] < pair[1]]
    xid = {pair: i for i, pair in enumerate(pairs)}
    yid = {pair: len(pairs) + i for i, pair in enumerate(strict)}
    return xid, yid


def selfadjoint_rows_reference(A):
    """The realified system of AP = PA for Hermitian P: the real row, then
    the imaginary row, of each commutation row of
    ``commutation_rows_reference``, each kept when nonempty.  A term
    c P[u][v] is (Re c + i Im c)(x_uv + i s y_uv), s = +1 above the
    diagonal and -1 below it; exact parts are Fractions."""
    d = A.rows
    exact = A.mode == "exact"
    xid, yid = sym_var_ids_reference(d)
    rows = []
    for crow in commutation_rows_reference(A):
        real_row, imag_row = {}, {}
        for key, c in crow.items():
            u, v = divmod(key, d)
            re, im = (c.re, c.im) if exact else (c.real, c.imag)
            pair = (u, v) if u <= v else (v, u)
            if re:
                _add_term(real_row, xid[pair], re)
                if u != v:
                    _add_term(imag_row, yid[pair], -re if u > v else re)
            if im:
                _add_term(imag_row, xid[pair], im)
                if u != v:
                    _add_term(real_row, yid[pair], im if u > v else -im)
        if real_row:
            rows.append(real_row)
        if imag_row:
            rows.append(imag_row)
    return rows


def float_block_solve_reference(rows, ncols, tol):
    """``floatsolve``'s solve one block at a time: a dense array filled
    entry by entry and one SVD per block, its rank and both of its gates,
    the cut-off's band and the roundoff floor, decided by loops over the
    singular values.  Returns the kernel's dimension and its basis in
    ``kernel_basis`` order."""
    found, dim = [], 0
    for cols, block in linalg.components(rows, ncols):
        width = len(cols)
        if not block:
            found.append((cols[0], {cols[0]: 1 + 0j}))
            dim += 1
            continue
        dense = np.zeros((len(block), width), dtype=complex)
        for i, row in enumerate(block):
            for c, v in row.items():
                dense[i, c] = complex(v)
        _, svals, vh = np.linalg.svd(dense)
        cut = tol * max(1.0, float(svals[0]))
        for s in svals:
            if cut / floatsolve._GAP <= s <= cut * floatsolve._GAP:
                raise RankAmbiguityError(
                    f"singular value {s:.6e} is within an order of magnitude of "
                    f"the cut-off {cut:.6e} (tol={tol:.6e}); the rank decision "
                    "is not trustworthy (adjust tol or use exact mode)"
                )
        rank = int(np.sum(svals > cut))
        floor = float(svals[0]) * max(dense.shape) * np.finfo(float).eps
        for s in svals[:rank]:
            if s <= floor * floatsolve._GAP:
                raise RankAmbiguityError(
                    f"singular value {s:.6e} lies above the cut-off {cut:.6e} "
                    f"(tol={tol:.6e}) but not an order of magnitude above the "
                    f"roundoff floor {floor:.6e}; the rank decision is not "
                    "trustworthy (raise tol or use exact mode)"
                )
        dim += width - rank
        vecs, pivots = floatsolve.echelonize_float(
            [np.conj(vh[i]) for i in range(rank, width)], tol
        )
        for i, vec in enumerate(vecs):
            key = cols[pivots[i]] if i < len(pivots) else ncols
            found.append((key, {cols[c]: complex(x) for c, x in enumerate(vec) if x}))
    return dim, [vec for _, vec in sorted(found, key=lambda item: item[0])]
