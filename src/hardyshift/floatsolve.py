"""Float-mode solves on numpy arrays: the only module that imports numpy.

``linalg.kernel_basis`` and ``linalg.nullity`` import it in their float
branch, and ``commutant`` imports it to build a float system, so a run
that solves no float system never loads numpy.  The commutants of
T_{z^n} and of its channel restrictions never get here in either mode:
``commutant`` reads them off their chains.  What does is the commutant
of a float symbol, or of any float operator with an entry other than
exactly 1, and a float ``SparseMatrix.rank``.

A system is a triple of numpy arrays, one (equation, unknown, coefficient)
term per entry (``float_terms`` for a commutant, ``hermitian_terms`` for
the self-adjoint part of one), split into connected blocks: two
unknowns are connected when some equation holds both, so the system is
block diagonal after a permutation, and its kernel is the direct sum of
the blocks' kernels.  The commutation systems of this package fall apart
this way (an unknown P[u][v] shares equations only with the unknowns that
A's nonzeros reach from it).  ``float_blocks`` adds up repeated terms,
labels each unknown with the smallest unknown of its block (label
propagation), and renumbers rows and columns within each block, all on
arrays; blocks are ordered by their smallest unknown, and each keeps its
unknowns in ascending order and its equations in the system's order.
Blocks of the same shape (rows, unknowns) are scattered into one stack,
and the stack's bitwise-distinct blocks are solved by one
``np.linalg.svd`` call per shape, looked up on numpy at call time.  A
singular value counts when it exceeds tol times its block's largest
singular value (or tol itself when that is below one), so a symbol scaled
by 1e10 gets the same ranks as the unscaled one.  No rank is decided when
a singular value falls within one order of magnitude of that cut-off
(``RankAmbiguityError``, naming the first such block in block order).
``nullity`` skips the singular vectors.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import scalars
from .commutant import CommutantBasis, _commutation_terms, _hermitian_terms
from .errors import RankAmbiguityError
from .matrices import SparseMatrix

_GAP = math.sqrt(10.0)


def float_terms(A: SparseMatrix):
    """The terms of A's float commutation system, as the numpy arrays
    ``float_blocks`` splits: every nonzero of A against every t in
    range(d) at once."""
    d = A.rows
    items = list(A.nonzero_items())
    u = np.array([u for u, _, _ in items], dtype=np.int64)[:, None]
    v = np.array([v for _, v, _ in items], dtype=np.int64)[:, None]
    s = np.array([s for _, _, s in items], dtype=complex)[:, None]
    shape = (len(items), d)
    return tuple(
        np.concatenate([np.broadcast_to(x, shape).ravel() for x in part])
        for part in zip(*_commutation_terms(u, v, s, -s, np.arange(d), d))
    )


def hermitian_terms(cb: CommutantBasis) -> tuple:
    """The terms of P(c) - P(c)* = 0 on the coordinates c of a float
    ``CommutantBasis``, as arrays: ``commutant._hermitian_terms`` applied
    to every entry of every element at once."""
    k = np.repeat(np.arange(cb.dim), [len(P.entries) for P in cb.members])
    uv = np.array([key for P in cb.members for key in P.entries], dtype=np.int64).reshape(-1, 2)
    s = np.array([s for P in cb.members for s in P.entries.values()], dtype=complex)
    parts = _hermitian_terms(k, uv[:, 0], uv[:, 1], s.real, s.imag, cb.d)
    return tuple(np.concatenate(part) for part in zip(*parts))


def _row_counts(mask) -> list[int]:
    """The number of True entries in each row of a 2-D boolean array.
    (``np.sum(mask, axis=1)`` raised a float run's peak memory by about
    0.1 MB, the code pages of its reduction loop.)"""
    return [row.count(True) for row in mask.tolist()]


class FloatBlocks(NamedTuple):
    """A float system split into connected blocks, ordered by their
    smallest columns.  Block b owns the columns ``columns[starts[b]:
    starts[b + 1]]``, ascending, and ``heights[b]`` rows, in the system's
    row order.  Entry e is ``value[e]`` at row ``row[e]`` and column
    ``col[e]`` of block ``block[e]``, both renumbered to positions within
    the block; entries come in the system's row order."""

    columns: np.ndarray
    starts: np.ndarray
    heights: np.ndarray
    block: np.ndarray
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray


def _runs(keys: np.ndarray) -> np.ndarray:
    """Whether each entry of a sorted array starts a run of equal keys."""
    return np.concatenate(([True], keys[1:] != keys[:-1]))[:len(keys)]


def _group(keys: np.ndarray, count: int):
    """Indices of ``keys`` (ints in range(count)) grouped by key, index
    order kept within a group: the grouped indices, where each group starts
    among them (count + 1 offsets), and each index's place in its group."""
    order = np.argsort(keys, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=count))))
    place = np.empty(len(keys), dtype=np.int64)
    place[order] = np.arange(len(keys)) - starts[keys[order]]
    return order, starts, place


def _labels(entry_row: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    """Each column's label: the smallest column connected to it, where a
    row joins all of its columns.  Entries come row by row.  Each round
    gives every column the smallest label among the columns of its rows,
    then follows labels to their fixed points; a label is always a column
    of the same block, and the rounds stop when no label moves."""
    label = np.arange(ncols)
    if not len(cols):
        return label
    row_starts = np.flatnonzero(_runs(entry_row))
    by_col = np.argsort(cols, kind="stable")
    col_starts = np.flatnonzero(_runs(cols[by_col]))
    touched = cols[by_col[col_starts]]
    while True:
        row_min = np.minimum.reduceat(label[cols], row_starts)
        new = label.copy()
        new[touched] = np.minimum.reduceat(row_min[entry_row[by_col]], col_starts)
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, label):
            return label
        label = new


def float_blocks(terms, ncols: int) -> FloatBlocks:
    """Merge and split a float system given as terms.

    ``terms`` is a triple of equal-length sequences: the equation, unknown
    and coefficient of each term.  Terms of one (equation, unknown) pair
    add up in the order given, and a zero sum leaves no entry.  Rows are
    the equations with an entry, in the order of their ids, which need not
    be contiguous.  The blocks are those of ``linalg.components``, in its
    order, with its columns and its renumbered rows; an unknown in no
    equation is a block of its own with no rows.
    """
    eqs, unknowns, coeffs = (np.asarray(a).ravel() for a in terms)
    keep = coeffs != 0
    key = eqs[keep].astype(np.int64) * ncols + unknowns[keep].astype(np.int64)
    order = np.argsort(key, kind="stable")
    key, values = key[order], coeffs[keep][order]
    first = np.flatnonzero(_runs(key))
    key, values = key[first], np.add.reduceat(values, first)
    nonzero = values != 0
    rows, cols = np.divmod(key[nonzero], ncols)
    values = values[nonzero]
    entry_row = np.cumsum(_runs(rows)) - 1
    label = _labels(entry_row, cols, ncols)
    # blocks numbered by their smallest column, columns ascending within
    col_block = (np.cumsum(label == np.arange(ncols)) - 1)[label]
    nblocks = int(col_block.max()) + 1
    columns, starts, col_place = _group(col_block, nblocks)
    # each row lies in the block of its first column, and keeps its order
    row_block = col_block[cols[np.flatnonzero(_runs(entry_row))]]
    _, row_starts, row_place = _group(row_block, nblocks)
    return FloatBlocks(
        columns=columns,
        starts=starts,
        heights=np.diff(row_starts),
        block=row_block[entry_row],
        row=row_place[entry_row],
        col=col_place[cols],
        value=values,
    )


def _float_kernels(blocks: FloatBlocks, ncols: int, tol: float, vectors: bool):
    """The rank of every float block, and the kernel vectors of those with
    rows, in block order.

    Blocks of one shape are scattered into one stack, and its distinct
    blocks (compared bitwise, so -0.0 differs from 0.0) are solved by one
    batched SVD, with the singular vectors only when ``vectors`` is set;
    equal inputs give equal LAPACK outputs, so each copy takes its
    original's rank and echelonized vectors.  A singular value counts when
    it exceeds tol * max(1, the block's largest).  If some block has a
    singular value within a factor ``_GAP`` of its cut-off, no rank is
    returned: the error names the first such block in block order and,
    within it, the largest such value.  Each block's vectors are its SVD
    kernel echelonized in its columns, as ``(sort column, {column:
    complex})`` pairs; the sort column of a vector left without a pivot is
    ``ncols``.
    """
    widths = np.diff(blocks.starts)
    shapes, group = np.unique(blocks.heights * (ncols + 1) + widths, return_inverse=True)
    members_of, group_starts, slot = _group(group, len(shapes))
    entries_of, entry_starts, _ = _group(group[blocks.block], len(shapes))
    ranks = np.zeros(len(widths), dtype=np.int64)
    found: dict[int, list] = {}  # vectors by block
    ambiguous = None  # (block, singular value, cut-off) first in block order
    for g, (height, width) in enumerate(divmod(s, ncols + 1) for s in shapes.tolist()):
        if not height:
            continue  # unknowns in no equation: rank 0
        members = members_of[group_starts[g]:group_starts[g + 1]]
        sel = entries_of[entry_starts[g]:entry_starts[g + 1]]
        stack = np.zeros((len(members), height, width), dtype=complex)
        stack[slot[blocks.block[sel]], blocks.row[sel], blocks.col[sel]] = blocks.value[sel]
        # bitwise copies get bitwise the same SVD: solve each distinct block
        # once, in order of first appearance, and give member k the results
        # of distinct block copy[k]
        distinct: dict[bytes, int] = {}
        copy = [distinct.setdefault(block.tobytes(), len(distinct)) for block in stack]
        stack = np.frombuffer(b"".join(distinct), dtype=complex).reshape(-1, height, width)
        if vectors:
            _, svals, vh = np.linalg.svd(stack)
        else:
            svals, vh = np.linalg.svd(stack, compute_uv=False), None
        top = svals[:, 0]
        cut = tol * top
        cut[top < 1.0] = tol
        cut = cut[:, None]
        distinct_ranks = _row_counts(svals > cut)
        # per block, the values above the ambiguity band and those at or
        # above its floor: the values between lie in the band, largest first
        above = _row_counts(svals > cut * _GAP)
        reach = _row_counts(svals >= cut / _GAP)
        for k, j in enumerate(copy):
            if above[j] < reach[j]:
                if ambiguous is None or members[k] < ambiguous[0]:
                    ambiguous = (members[k], svals[j, above[j]], cut[j, 0])
                break
        if ambiguous is not None:
            continue
        ranks[members] = [distinct_ranks[j] for j in copy]
        if not vectors:
            continue
        kernels = {
            j: echelonize_float(np.conj(vh[j, rank:]), tol)
            for j, rank in enumerate(distinct_ranks) if rank < width
        }
        group_cols = blocks.columns[blocks.starts[members, None] + np.arange(width)].tolist()
        for b, j, cols in zip(members.tolist(), copy, group_cols):
            if j not in kernels:
                continue
            vecs, pivots = kernels[j]
            found[b] = [
                (cols[pivots[i]] if i < len(pivots) else ncols,
                 {c: x for c, x in zip(cols, vec.tolist()) if x})
                for i, vec in enumerate(vecs)
            ]
        del stack, svals, vh  # one group's singular vectors at a time
    if ambiguous is not None:
        _, s, cut = ambiguous
        raise RankAmbiguityError(
            f"singular value {s:.6e} is within an order of magnitude of "
            f"the cut-off {cut:.6e} (tol={tol:.6e}); the rank decision "
            "is not trustworthy (adjust tol or use exact mode)"
        )
    return ranks, [vec for b in sorted(found) for vec in found[b]]


def nullity(terms, ncols: int, tol: float) -> int:
    """Dimension of the kernel of a float system, width minus rank per
    block, without the singular vectors."""
    ranks, _ = _float_kernels(float_blocks(terms, ncols), ncols, tol, False)
    return ncols - int(ranks.sum())


def kernel_basis(terms, ncols: int, tol: float) -> list[dict]:
    """Basis of the kernel of a float system: each block's SVD kernel,
    echelonized in the block's columns, in pivot-column order (an unknown
    in no equation gives its unit vector), the echelon basis of the whole
    kernel, deterministic up to the SVD backend."""
    blocks = float_blocks(terms, ncols)
    _, vecs = _float_kernels(blocks, ncols, tol, True)
    one = scalars.one("float")
    rowless = blocks.columns[blocks.starts[:-1][blocks.heights == 0]].tolist()
    # vectors left without a pivot sort last, in block order
    found = sorted([(c, {c: one}) for c in rowless] + vecs, key=lambda item: item[0])
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
