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
these matrices.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from hardyshift import (
    DenseMatrix,
    GaussianRational,
    InvarianceError,
    ShapeError,
    TruncationParams,
    all_channel_bases,
    channel_order,
    matrices_close,
    scalar_shift,
)
from hardyshift.scalars import as_scalar, one, scalar_is_zero, scalars_close, zero
from hardyshift.space import flat_index

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


def unflat_index(f, params):
    """Inverse of ``space.flat_index``."""
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


def rand_gaussian_rational(rng, span=4, den=3):
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
    )


def rand_vector(rng, params, span=4, den=3):
    return vector_of(
        [rand_gaussian_rational(rng, span, den) for _ in range(params.d)]
    )


def span_rank(mats):
    """Rank of the span of a list of exact matrices, via an independent
    dense elimination over vectorized rows (no shared code with the
    package's sparse eliminator)."""
    if not mats:
        return 0
    rows = [
        [s for row in mat.entries for s in row] for mat in mats
    ]
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


def in_span(mats, candidate):
    """True when candidate lies in the linear span of mats (exact)."""
    return span_rank(list(mats)) == span_rank(list(mats) + [candidate])


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


def build_intertwiner(params, mode="exact"):
    """Unitary (permutation) matrix X sending the k-th coordinate of channel
    c to the channel's k-th basis vector: column a has its single 1 in row
    ``channel_order(params)[a]``."""
    d = params.d
    z, o = zero(mode), one(mode)
    grid = [[z] * d for _ in range(d)]
    for a, f in enumerate(channel_order(params)):
        grid[f][a] = o
    return DenseMatrix(grid, mode)


def decomposed_shift(params, mode="exact"):
    """Direct sum of r = m*n scalar shift blocks of size K, the normal form
    that X* T X must reach."""
    return direct_sum([scalar_shift(params.K, mode).to_dense()] * params.r)


def mask_projection(mask, params, mode="exact"):
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


def apply(operator, vec):
    """A dense operator applied to a coefficient vector."""
    if operator.mode != vec.mode:
        raise TypeError(f"mode mismatch: {operator.mode!r} vs {vec.mode!r}")
    return CoeffVector(operator.matvec(vec.entries), vec.mode)


def restrict_reference(A, indices, tol=None):
    """``commutant.restrict`` as a dense scan of a DenseMatrix: every entry
    of each column in ``indices`` order, rows ascending, for a leak, then the
    compressed block read off the grid."""
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
