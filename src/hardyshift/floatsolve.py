"""Float-mode solves with numpy: the only module that imports numpy.

``linalg.kernel_basis`` imports it in its float branch only, so a run
that solves no float system never loads numpy.  The commutants of
T_{z^n} and of its channel restrictions never get here in either mode:
``commutant`` reads them off their chains.  What does is the commutant
of a float symbol, or of any float operator that is not a 0/1 shift
along one subdiagonal, and such an operator's float ``operator_rank``.

A float system is the same list of ``{column: value}`` rows as an exact
one.  ``linalg.components`` splits it into connected blocks: two unknowns
are connected when some equation holds both, so the system is block
diagonal after a permutation, and its kernel is the direct sum of the
blocks' kernels.  The commutation systems of this package fall apart this
way (an unknown P[u][v] shares equations only with the unknowns that A's
nonzeros reach from it).  Each block with rows is solved by one
``np.linalg.svd`` call, looked up on numpy at call time (``_solve_block``).
A singular value counts when it exceeds tol times its block's largest
singular value (or tol itself when that is below one), so a symbol scaled
by 1e10 gets the same ranks as the unscaled one.  No rank is decided when
a singular value falls within one order of magnitude of that cut-off, or
when one that the cut-off counts is not an order of magnitude above the
block's roundoff floor, its largest singular value times its larger side
times the machine epsilon, which roundoff alone can reach: a tol far below
the floor would count noise as rank (``RankAmbiguityError``, naming the
first such block in block order).
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg, scalars
from .errors import RankAmbiguityError

_GAP = math.sqrt(10.0)
_EPS = float(np.finfo(float).eps)


def _solve_block(rows: list[dict], width: int, tol: float):
    """The rank of one block with rows, its columns renumbered to
    range(width), and its conjugated right singular vectors, ``vh``, from
    one SVD of the dense block.

    Raises RankAmbiguityError when a singular value lies within a factor
    ``_GAP`` of the cut-off tol * max(1, the largest), naming the largest
    such value, or when a counted one lies at or below ``_GAP`` times the
    roundoff floor, naming the largest of those and the floor."""
    dense = np.zeros((len(rows), width), dtype=complex)
    for i, row in enumerate(rows):
        for c, v in row.items():
            dense[i, c] = v
    _, svals, vh = np.linalg.svd(dense)
    svals = svals.tolist()
    cut = tol * max(1.0, svals[0])
    rank = sum(1 for s in svals if s > cut)
    band = next((s for s in svals if cut / _GAP <= s <= cut * _GAP), None)
    if band is not None:
        raise RankAmbiguityError(
            f"singular value {band:.6e} is within an order of magnitude of "
            f"the cut-off {cut:.6e} (tol={tol:.6e}); the rank decision "
            "is not trustworthy (adjust tol or use exact mode)"
        )
    floor = svals[0] * max(dense.shape) * _EPS
    noise = next((s for s in svals[:rank] if s <= floor * _GAP), None)
    if noise is not None:
        raise RankAmbiguityError(
            f"singular value {noise:.6e} lies above the cut-off {cut:.6e} "
            f"(tol={tol:.6e}) but not an order of magnitude above the "
            f"roundoff floor {floor:.6e}; the rank decision is not "
            "trustworthy (raise tol or use exact mode)"
        )
    return rank, vh


def kernel_basis(rows: list[dict], ncols: int, tol: float) -> list[dict]:
    """Basis of the kernel of a float system: each block's SVD kernel,
    echelonized in the block's columns, in pivot-column order (an unknown
    in no equation gives its unit vector), the echelon basis of the whole
    kernel, deterministic up to the SVD backend."""
    one = scalars.one("float")
    found = []  # (sort column, vector); ncols for a vector left without a pivot
    for cols, block in linalg.components(rows, ncols):
        if not block:
            found.append((cols[0], {cols[0]: one}))
            continue
        rank, vh = _solve_block(block, len(cols), tol)
        if rank == len(cols):
            continue
        vecs, pivots = echelonize_float(np.conj(vh[rank:]), tol)
        found += [
            (cols[pivots[i]] if i < len(pivots) else ncols,
             {c: x for c, x in zip(cols, vec.tolist()) if x})
            for i, vec in enumerate(vecs)
        ]
    # vectors left without a pivot sort last, in block order
    found.sort(key=lambda item: item[0])
    return [vec for _, vec in found]


def echelonize_float(vecs, tol: float) -> tuple[list[np.ndarray], list[int]]:
    """Gauss-Jordan a small set of floating vectors into a canonical echelon
    basis of their span (pivot by largest magnitude, pivots scaled to 1).

    Returns the vectors and the pivot column of each, in ascending order;
    vectors left without a pivot (numerically zero) come last and have no
    entry in the pivot list.
    """
    vecs = [np.array(v, dtype=complex) for v in vecs]
    pivots: list[int] = []
    if not vecs:
        return vecs, pivots
    n = vecs[0].shape[0]
    rowi = 0
    for col in range(n):
        if rowi == len(vecs):
            break
        best = max(range(rowi, len(vecs)), key=lambda i: abs(vecs[i][col]))
        if abs(vecs[best][col]) <= tol:
            continue
        vecs[rowi], vecs[best] = vecs[best], vecs[rowi]
        vecs[rowi] = vecs[rowi] / vecs[rowi][col]
        for i in range(len(vecs)):
            if i != rowi and abs(vecs[i][col]) > 0.0:
                vecs[i] = vecs[i] - vecs[i][col] * vecs[rowi]
        pivots.append(col)
        rowi += 1
    return vecs, pivots