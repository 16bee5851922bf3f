"""Sparse homogeneous systems: ``kernel_basis``.

It serves both modes, and takes a system the same way in each: a list of
sparse ``{column: coefficient}`` rows.  A rank or a kernel dimension is
counted off the basis it returns: one solve per system.

- exact mode: the rows are eliminated whole by one sparse Gauss-Jordan
  (``rref``) over the field of the rows' values: the package's
  GaussianRational, whose every operation reduces one triple of ints by
  one gcd, or any other exact field, such as Fraction.  Elimination
  never spreads fill between unknowns that share no chain of equations,
  and the reduced echelon form is unique, so splitting the system first
  would change neither the fill nor the basis.  T_{z^n} never gets here: ``commutant`` solves a 0/1 shift
  along one subdiagonal by its chains, without building rows.
- float mode: the rows are split into connected blocks (``components``)
  and each block is solved with one SVD behind a rank-ambiguity gate.
  That code, and every other use of numpy, lives in ``floatsolve``, which
  ``kernel_basis`` imports only in its float branch: a run that solves
  no float system, exact z^n and float z^n alike, never loads numpy.  A
  tol outside (0, 1) is refused (``require_tol``): at 1 or more the rank
  cut-off would count no singular value.
"""

from __future__ import annotations

from . import scalars
from .scalars import Mode


def require_tol(mode: Mode, tol: float | None) -> None:
    """Refuse a float-mode solve without a tol in (0, 1).  Exact mode
    takes no tol."""
    if mode == "float" and (tol is None or not 0 < tol < 1):
        raise ValueError("float-mode solves require 0 < tol < 1")


def rref(rows: list[dict], ncols: int):
    """Reduced row echelon form of a sparse system.

    Returns ``(reduced_rows, pivots)`` where ``pivots`` maps each pivot
    column, in ascending order, to the index of the row reduced against
    it.  Input rows are not mutated.
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
    appears in no row is a component of its own with no rows.  The float
    solves of ``floatsolve`` take one SVD per component with rows, and
    ``lattice`` counts the components of its channel-edge graph with it.
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
        head = find(first)
        for c in cols:
            other = find(c)
            if other != head:
                parent[other] = head
    # each column's root, and its position among its component's columns
    root = [find(c) for c in range(ncols)]
    pos = [0] * ncols
    members: dict[int, list[int]] = {}
    for c, rc in enumerate(root):
        cols = members.setdefault(rc, [])
        pos[c] = len(cols)
        cols.append(c)
    block_rows: dict[int, list[dict]] = {rc: [] for rc in members}
    for row in rows:
        if row:
            block_rows[root[next(iter(row))]].append({pos[c]: v for c, v in row.items()})
    return [(cols, block_rows[rc]) for rc, cols in members.items()]


def kernel_basis(
    system, ncols: int, mode: Mode, tol: float | None = None
) -> list[dict]:
    """Basis of the kernel of a sparse homogeneous system of
    ``{column: scalar}`` rows, as sparse ``{column: scalar}`` vectors.

    Exact vectors are read off one ``rref`` of the whole system: one per
    free column, in ascending order, holding the one of the rows' field
    there (the shared ``scalars.one(mode)`` for Gaussian rationals,
    ``Fraction(1)`` for a Fraction system), then minus that column's entry
    of each reduced pivot row, pivot columns ascending.  Float vectors are
    each block's SVD kernel, echelonized in the block's columns, in
    pivot-column order (an unknown in no equation gives its unit vector):
    the echelon basis of the whole kernel, deterministic up to the SVD
    backend.
    """
    if mode == "float":
        require_tol(mode, tol)
        from . import floatsolve

        return floatsolve.kernel_basis(system, ncols, tol)
    one = scalars.one(mode)
    # the kernel of an exact system lives in the field of its rows
    field = next((type(c) for row in system for c in row.values()), type(one))
    if field is not type(one):
        one = field(1)
    reduced, pivots = rref(system, ncols)
    basis = {f: {f: one} for f in range(ncols) if f not in pivots}
    # a reduced pivot row holds its pivot and free columns only
    for pc, ridx in pivots.items():
        for c, v in reduced[ridx].items():
            if c != pc:
                basis[c][pc] = -v
    return list(basis.values())
