"""Sparse homogeneous systems, solved one connected component at a time.

A system is a list of sparse rows, each row a ``{column: coefficient}``
dict over ``ncols`` unknowns.  Two unknowns are connected when some row
holds both, and the rows split by the components this relation makes: the
system is block diagonal after a permutation, so its rank is the sum of
the blocks' ranks and its kernel is the direct sum of theirs.  The
commutation systems of this package fall apart this way (an unknown
P[u][v] shares equations only with unknowns in the same channel pair, on
the same diagonal), so every routine here finds the components first and
solves each block alone.  A system that does not split is one block.

The exact routines pick a solver per block from its rows.  A block whose
rows each hold one entry, or two entries a and b with b = a or b = -a, is
a signed graph: a two-entry row says x_i = x_j or x_i = -x_j, a one-entry
row says x_i = 0.  Every commutation row of z^n, and every row of its
realified self-adjoint system, has this shape, because T_{z^n} is a sum of
shifts.  Union-find with parity decides such a block without arithmetic:
a one-entry row or a cycle whose signs disagree forces every unknown of
the connected block to zero, and otherwise the kernel is the one signed
indicator vector of the block.  Sparse Gauss-Jordan elimination (``rref``)
over any exact field (Fraction and GaussianRational both qualify) reaches
the same vector: a kernel spanned by a vector with no zero entry makes
every proper subset of the columns independent, so the pivots are all
columns but the last, and the free last column is normalized to one.
Every other block (ratios other than +-1, rows of three or more entries,
most blocks of a custom symbol) is eliminated by ``rref``.

The floating routines run a dense numpy SVD per block.  A singular value
counts when it exceeds tol times the block's largest singular value (or
tol itself when that is below one), so a symbol scaled by 1e10 gets the
same ranks as the unscaled one.  They refuse to decide a rank when any
singular value falls within one order of magnitude of that cut-off, since
such a system cannot be trusted either way.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RankAmbiguityError

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


def _signed_kernel(block: list[dict], width: int, negs: dict):
    """Kernel of a connected block whose rows are signed equalities.

    Returns None when the block is not one: some row holds three or more
    entries, or two whose ratio is not +-1, or the two-entry rows do not
    connect all ``width`` unknowns.  Otherwise returns an empty list when
    the kernel is zero, and else the sign of each column in the kernel
    vector relative to the last column (True where it is negated).

    ``negs`` memoizes -a by ``id(a)`` across the blocks of one system, so
    the +-1 test builds one scalar per distinct coefficient object rather
    than one per row; its keys stay valid while the system's rows, which
    hold every coefficient, are alive.
    """
    parent = list(range(width))
    flip = [False] * width  # parity of each column relative to its parent

    def find(c: int):
        path = []
        while parent[c] != c:
            path.append(c)
            c = parent[c]
        parity = False
        for x in reversed(path):
            parity ^= flip[x]
            flip[x] = parity
            parent[x] = c
        return c

    forced_zero = False
    joined = 0
    for row in block:
        if len(row) == 1:
            forced_zero = True
            continue
        if len(row) != 2:
            return None
        (i, a), (j, b) = row.items()
        if b == a:
            odd = True  # a x_i + a x_j = 0
        else:
            neg = negs.get(id(a))
            if neg is None:
                neg = negs[id(a)] = -a
            if b != neg:
                return None
            odd = False
        ri, rj = find(i), find(j)
        odd ^= flip[i] ^ flip[j]
        if ri != rj:
            parent[ri] = rj
            flip[ri] = odd
            joined += 1
        elif odd:
            forced_zero = True
    if joined != width - 1:
        return None
    if forced_zero:
        return []
    find(width - 1)
    last = flip[width - 1]
    signs = []
    for c in range(width):
        find(c)
        signs.append(flip[c] ^ last)
    return signs


def rank_exact(rows: list[dict], ncols: int) -> int:
    negs: dict = {}
    rank = 0
    for cols, block in components(rows, ncols):
        signs = _signed_kernel(block, len(cols), negs)
        if signs is None:
            rank += len(rref(block, len(cols))[1])
        else:
            rank += len(cols) - (1 if signs else 0)
    return rank


def kernel_basis_exact(rows: list[dict], ncols: int, one) -> list[dict]:
    """Basis of the solution space of the homogeneous system, one sparse
    vector per free column, in ascending free-column order.

    ``one`` is the multiplicative identity of the coefficient field, used to
    seed the free coordinate.  Each block's reduced echelon form is the
    one a single elimination of the whole system reaches, so the vectors
    do not depend on the split, nor on which solver a block took.
    """
    negs: dict = {}
    minus_one = -one
    found = []
    for cols, block in components(rows, ncols):
        last = len(cols) - 1
        signs = _signed_kernel(block, len(cols), negs)
        if signs is not None:
            if signs:
                vec = {cols[last]: one}
                for c in range(last):
                    vec[cols[c]] = minus_one if signs[c] else one
                found.append((cols[last], vec))
            continue
        reduced, pivots = rref(block, len(cols))
        for f in range(len(cols)):
            if f in pivots:
                continue
            vec = {cols[f]: one}
            for pc, ridx in pivots.items():
                coeff = reduced[ridx].get(f)
                if coeff is not None and coeff:
                    vec[cols[pc]] = -coeff
            found.append((cols[f], vec))
    found.sort(key=lambda item: item[0])
    return [vec for _, vec in found]


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


def _require_tol(tol: float | None) -> None:
    if tol is None or tol <= 0:
        raise ValueError("float-mode solves require a positive tol")


def _dense_block(block: list[dict], width: int) -> np.ndarray:
    mat = np.zeros((len(block), width), dtype=complex)
    for i, row in enumerate(block):
        for c, v in row.items():
            mat[i, c] = complex(v)
    return mat


def rank_float(rows: list[dict], ncols: int, tol: float) -> int:
    """Numerical rank of a sparse floating system, one SVD per block, each
    block's singular values cut at tol relative to the block's scale and
    passed through the ambiguity gate."""
    _require_tol(tol)
    rank = 0
    for cols, block in components(rows, ncols):
        if block:
            svals = np.linalg.svd(_dense_block(block, len(cols)), compute_uv=False)
            rank += _block_rank(svals, tol)
    return rank


def kernel_basis_float(rows: list[dict], ncols: int, tol: float) -> list[dict]:
    """Kernel basis of a sparse floating system as sparse ``{column:
    complex}`` vectors.

    Each block's kernel comes from its SVD, behind the ambiguity gate, and
    is echelonized in the block's own columns; the vectors are then listed
    in order of their pivot columns.  That is the echelon basis of the
    whole kernel, so the output is deterministic up to the SVD backend.
    """
    _require_tol(tol)
    found = []
    for cols, block in components(rows, ncols):
        if not block:
            found.append((cols[0], {cols[0]: 1 + 0j}))
            continue
        width = len(cols)
        _, svals, vh = np.linalg.svd(_dense_block(block, width))
        rank = _block_rank(svals, tol)
        vecs, pivots = echelonize_float(
            [np.conj(vh[i]) for i in range(rank, width)], tol
        )
        for i, vec in enumerate(vecs):
            key = cols[pivots[i]] if i < len(pivots) else ncols
            found.append((key, {cols[c]: complex(x) for c, x in enumerate(vec) if x}))
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
