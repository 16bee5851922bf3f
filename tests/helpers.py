"""Shared fixtures: the parameter sweep and independent oracles.

The oracles here recompute expected behavior through a different route than
the package (polynomial coefficient dicts instead of flat matrices, numpy
instead of exact elimination) so agreement is evidence, not tautology.
"""

from fractions import Fraction

from hardyshift import GaussianRational, TruncationParams, vector_of
from hardyshift.scalars import one, scalars_close, zero
from hardyshift.space import flat_index, unflat_index

SWEEP = [
    TruncationParams(m, n, K)
    for m in (1, 2, 3)
    for n in (1, 2, 3)
    for K in (2, 3, 4)
]

SMALL_SWEEP = [p for p in SWEEP if p.d <= 12]


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
