"""Sparse homogeneous systems: ``kernel_basis`` and ``nullity``.

A system is a list of sparse rows, each row a ``{column: coefficient}``
dict over ``ncols`` unknowns.  The two entry points serve both modes and
share one loop.  It first splits the system with ``components``: two
unknowns are connected when some row holds both, so the system is block
diagonal after a permutation, and its kernel is the direct sum of the
blocks' kernels.  The commutation systems of this package fall apart this
way (an unknown P[u][v] shares equations only with unknowns in the same
channel pair, on the same diagonal).  The loop then picks one solver per
block, in one place:

- float mode: a dense numpy SVD.  A singular value counts when it exceeds
  tol times the block's largest singular value (or tol itself when that
  is below one), so a symbol scaled by 1e10 gets the same ranks as the
  unscaled one.  No rank is decided when a singular value falls within
  one order of magnitude of that cut-off (``RankAmbiguityError``).
  ``nullity`` skips the singular vectors.
- exact mode: sparse Gauss-Jordan elimination (``rref``) over any exact
  field (Fraction and GaussianRational both qualify).  T_{z^n} never gets
  here: ``commutant`` solves 0/1 partial permutations by walking their
  chains, without building rows.
"""

from __future__ import annotations

import math

import numpy as np

from . import scalars
from .errors import RankAmbiguityError
from .scalars import Mode

_GAP = math.sqrt(10.0)


def rref(rows: list[dict], ncols: int):
    """Reduced row echelon form of a sparse system.

    Returns ``(reduced_rows, pivots)`` where ``pivots`` maps pivot column to
    the index of the row reduced against it.  Input rows are not mutated.
    Pivot choice (sparsest candidate row, ties by index) is deterministic.
    """
    work = [dict(r) for r in rows]
    by_col: dict[int, set[int]] = {}
    for idx, row in enumerate(work):
        for c in row:
            by_col.setdefault(c, set()).add(idx)

    pivots: dict[int, int] = {}
    pivoted: set[int] = set()
    for col in range(ncols):
        holders = by_col.get(col)
        if not holders:
            continue
        candidates = [i for i in holders if i not in pivoted]
        if not candidates:
            continue
        piv = min(candidates, key=lambda i: (len(work[i]), i))
        prow = work[piv]
        pval = prow[col]
        if pval != 1:
            for c in prow:
                prow[c] = prow[c] / pval
        piv_items = [(c, v) for c, v in prow.items() if c != col]
        for i in list(holders):
            if i == piv:
                continue
            row = work[i]
            factor = row.pop(col, None)
            if factor is None:
                continue
            holders.discard(i)
            for c, v in piv_items:
                cur = row.get(c)
                if cur is None:
                    row[c] = -(factor * v)
                    by_col.setdefault(c, set()).add(i)
                else:
                    nv = cur - factor * v
                    if nv:
                        row[c] = nv
                    else:
                        del row[c]
                        by_col[c].discard(i)
        pivots[col] = piv
        pivoted.add(piv)
    return work, pivots


def components(rows: list[dict], ncols: int) -> list[tuple[list[int], list[dict]]]:
    """Split a sparse system into its connected components.

    Returns one ``(columns, block_rows)`` pair per component, ordered by
    its smallest column.  ``columns`` lists the component's unknowns in
    ascending order, and ``block_rows`` holds its nonempty rows with each
    column renumbered to its position in ``columns``.  An unknown that
    appears in no row is a component of its own with no rows.
    """
    parent = list(range(ncols))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for row in rows:
        cols = iter(row)
        first = next(cols, None)
        if first is None:
            continue
        root = find(first)
        for c in cols:
            other = find(c)
            if other != root:
                parent[other] = root
    members: dict[int, list[int]] = {}
    for c in range(ncols):
        members.setdefault(find(c), []).append(c)
    block_rows: dict[int, list[dict]] = {root: [] for root in members}
    for row in rows:
        if row:
            block_rows[find(next(iter(row)))].append(row)
    out = []
    for root, cols in members.items():
        local = {c: i for i, c in enumerate(cols)}
        out.append(
            (cols, [{local[c]: v for c, v in row.items()} for row in block_rows[root]])
        )
    return out


def _block_rank(svals, tol: float) -> int:
    """Rank of one block from its singular values (largest first), against
    the cut-off tol * max(1, largest), behind the ambiguity gate."""
    cut = tol * max(1.0, float(svals[0]))
    for s in svals:
        if cut / _GAP <= s <= cut * _GAP:
            raise RankAmbiguityError(
                f"singular value {s:.6e} is within an order of magnitude of "
                f"the cut-off {cut:.6e} (tol={tol:.6e}); the rank decision "
                "is not trustworthy (adjust tol or use exact mode)"
            )
    return int(np.sum(svals > cut))


def _solve(rows: list[dict], ncols: int, mode: Mode, tol, vectors: bool):
    """The per-block loop of ``kernel_basis`` and ``nullity``: the kernel's
    dimension and its vectors as ``(sort column, {column: scalar})`` pairs.
    Float blocks give vectors only when ``vectors`` is set, so that the SVDs
    of ``nullity`` skip the singular vectors; exact blocks always do."""
    if mode == "float" and (tol is None or tol <= 0):
        raise ValueError("float-mode solves require a positive tol")
    one = scalars.one(mode)
    if mode == "exact":
        # the kernel of an exact system lives in the field of its rows
        field = next((type(c) for row in rows for c in row.values()), type(one))
        if field is not type(one):
            one = field(1)
    uncounted = 0  # kernel dimensions of float blocks solved without vectors
    found = []
    for cols, block in components(rows, ncols):
        width = len(cols)
        if not block:
            found.append((cols[0], {cols[0]: one}))
        elif mode == "float":
            dense = np.zeros((len(block), width), dtype=complex)
            for i, row in enumerate(block):
                for c, v in row.items():
                    dense[i, c] = complex(v)
            if not vectors:
                svals = np.linalg.svd(dense, compute_uv=False)
                uncounted += width - _block_rank(svals, tol)
                continue
            _, svals, vh = np.linalg.svd(dense)
            rank = _block_rank(svals, tol)
            vecs, pivots = echelonize_float(
                [np.conj(vh[i]) for i in range(rank, width)], tol
            )
            for i, vec in enumerate(vecs):
                key = cols[pivots[i]] if i < len(pivots) else ncols
                vec = {cols[c]: complex(x) for c, x in enumerate(vec) if x}
                found.append((key, vec))
        else:
            reduced, pivots = rref(block, width)
            for f in range(width):
                if f not in pivots:
                    vec = {cols[f]: one}
                    for pc, ridx in pivots.items():
                        coeff = reduced[ridx].get(f)
                        if coeff:
                            vec[cols[pc]] = -coeff
                    found.append((cols[f], vec))
    return uncounted + len(found), found


def nullity(rows: list[dict], ncols: int, mode: Mode, tol: float | None = None) -> int:
    """Dimension of the kernel of a sparse homogeneous system."""
    return _solve(rows, ncols, mode, tol, False)[0]


def kernel_basis(
    rows: list[dict], ncols: int, mode: Mode, tol: float | None = None
) -> list[dict]:
    """Basis of the kernel of a sparse homogeneous system as sparse
    ``{column: scalar}`` vectors.

    Exact vectors have the one of the rows' field at their free column
    (the shared ``scalars.one(mode)`` for Gaussian rationals, ``Fraction(1)``
    for a Fraction system) and come in ascending free-column order: each
    block's reduced echelon form is the one a single elimination of the
    whole system reaches.  Float vectors are each block's SVD kernel,
    echelonized in the block's columns, in pivot-column order: the echelon
    basis of the whole kernel, deterministic up to the SVD backend.
    """
    found = _solve(rows, ncols, mode, tol, True)[1]
    return [vec for _, vec in sorted(found, key=lambda item: item[0])]


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
