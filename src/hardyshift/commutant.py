"""Commutants of truncated operators, computed as honest kernels.

The commutant of A is the kernel of P -> AP - PA.  When A is a 0/1 shift
along one subdiagonal, every nonzero exactly the mode's one at (v + s, v)
for one s, as T = M_{z^n} (s = r) and each of its channel restrictions
(s = 1) are in either mode, no system is built.  One scan of A, made once
per operator, gives s and the height of each walk v -> v + s -> ...;
equation (a, b) reads P[a - s][b] = P[a][b + s], so the unknowns fall
into chains (u, v) -> (u + s, v + s), and ``_chains`` reads the kernel off
their ends as ranges of flat integer keys, the vectors
``linalg.kernel_basis`` returns.  As the paper counts, for z^n the
surviving chains are the diagonals of the channel pairs, r^2 K of them,
each decided by the Lemma-3 audit from its two ends, and the self-adjoint
commutant has dimension r^2.  That is a fact about the pattern of ones,
not about the scalar type, so float mode makes no numerical rank decision
for these operators; it still refuses a missing tol, or one outside
(0, 1), first.  ``basis_head_break`` certifies such a basis whole: its
elements hold the identity at column offset 0, where Lemma 3 says a
commutant element is determined.

Every other operator goes through a sparse homogeneous system with one
equation per matrix position, unknowns P vectorized row-major, which
``linalg.kernel_basis`` solves.  ``_commutation_rows`` is the one
statement of that equation, one loop over AP's terms and one over PA's,
adding them up into ``{unknown: coefficient}`` rows in either mode.  Exact
mode eliminates them whole with one ``rref``, over Gaussian rationals, so
the exact commutant dimension of a custom symbol is a theorem about the
matrix, not a numerical estimate.  Float mode solves each connected block
of the same rows with one SVD, behind the rank-ambiguity gate
(``floatsolve``).  The basis is solved once per operator and tol and kept
in A's ``__dict__``, outside its fields (``_eliminated_basis``), like the
scan of ``_shape``.

The self-adjoint commutant {P = P* : AP = PA} is what decides how many
reducing subspaces the truncated operator has: its real dimension counts
the orthogonal projections' degrees of freedom.  Every such P is
sum_k c_k B_k over the D elements of that kept basis, so its equations
are the real and imaginary parts of P[u][v] - conj(P[v][u]) = 0 in the
2D real unknowns Re c_k and Im c_k, four terms per entry of a basis
element (``selfadjoint_commutant_dim``), where a system in P's entries
would be d^2 wide.  Both modes add the terms up into rows of real parts,
real Gaussian rationals or floats, and count the vectors of their
``linalg.kernel_basis``, refusing a float count outside 1..D.  A 0/1
shift along one subdiagonal needs no system at all.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import Sequence

from . import linalg, scalars
from .errors import RankAmbiguityError, Record, ShapeError
from .matrices import SparseMatrix
from .scalars import Mode, scalar_is_zero, scalars_close, zero
from .space import TruncationParams


class CommutantBasis(Record):
    """``CommutantBasis(d, mode, members)``: an echelon-normalized basis of
    {P : AP = PA} for a d x d matrix A.  The chain path keeps each element
    as its chain (``_chains``), the ``range`` of ascending flat keys
    u*d + v where it holds the one, one diagonal of z^n or of a channel
    restriction, read as a matrix through ``chain_view``.  Every other
    path keeps a ``SparseMatrix``.
    ``mode`` is the operator's, and a chain's view holds that mode's one.
    A read-only value (``errors.Record``)."""

    _fields = ("d", "mode", "members")

    def __repr__(self):
        return f"CommutantBasis(d={self.d}, mode={self.mode!r}, dim={self.dim})"

    @property
    def dim(self) -> int:
        return len(self.members)

    def element(self, i: int) -> SparseMatrix:
        P = self.members[i]
        return P if isinstance(P, SparseMatrix) else chain_view(P, self.d, self.mode)


def chain_view(keys: Sequence[int], d: int, mode: Mode) -> SparseMatrix:
    """The d x d matrix with the mode's one at each key of a chain, stored
    as ``kernel_basis`` returns its vector: the last key (the free column)
    first."""
    entries = dict.fromkeys(map(divmod, [*keys[-1:], *keys[:-1]], repeat(d)), scalars.one(mode))
    return SparseMatrix(entries, d, d, mode)


def _add(row: dict, key: int, coeff) -> None:
    # row[key] += coeff, dropping the entry when the sum cancels
    cur = row.get(key)
    nv = coeff if cur is None else cur + coeff
    if nv:
        row[key] = nv
    elif cur is not None:
        del row[key]


def _commutation_rows(A: SparseMatrix) -> list[dict]:
    """The nonempty ``{unknown: coefficient}`` rows of A's commutation
    system, in equation order, unknowns P[u][v] -> u*d + v: the input of
    ``rref`` or of the float block solve.  Equation (a, b) and unknown
    P[a][b] are both numbered a*d + b.  For every t in range(d), a nonzero
    s = A[u][v] puts s P[v][t] into equation (u, t), from AP, and -s P[t][u]
    into equation (t, v), from PA.  The terms come all of AP's, then all of
    PA's, one nonzero of A in row-major order and one t at a time, and each
    entry adds them up in that order, so that a float row, and with it each
    block's SVD, is bitwise reproducible."""
    d = A.rows
    nonzeros = list(A.nonzero_items())
    rows: list[dict] = [{} for _ in range(d * d)]
    for u, v, s in nonzeros:
        for t in range(d):
            _add(rows[u * d + t], v * d + t, s)
    for u, v, s in nonzeros:
        neg = -s
        for t in range(d):
            _add(rows[t * d + v], t * d + u, neg)
    return [row for row in rows if row]


def _stride(A: SparseMatrix):
    """``(s, height)`` when A is a square 0/1 shift along its s-th
    subdiagonal, every nonzero exactly ``scalars.one(A.mode)`` at (v + s, v)
    for one s >= 1 (s = 1 when A has no nonzeros), and None for any other A.
    One offset rules out a second entry in a row or a column, and a cycle.
    ``height[v]`` counts the steps v -> v + s -> ... before the walk stops,
    filled by one descending pass."""
    d = A.rows
    if A.cols != d:
        return None
    one = scalars.one(A.mode)
    s, columns = 0, []
    for u, v, x in A.nonzero_items():
        if (x is not one and x != one) or u <= v or (s and u - v != s):
            return None
        s = u - v
        columns.append(v)
    height = [0] * d
    for v in reversed(columns):  # row-major order is ascending v
        height[v] = height[v + s] + 1
    return s or 1, height


def _shape(A: SparseMatrix):
    """``_stride(A)``, scanned once per operator: kept on A, which is never
    changed, for its next commutant."""
    cache = A.__dict__
    if "_shape" not in cache:
        cache["_shape"] = _stride(A)
    return cache["_shape"]


def operator_rank(A: SparseMatrix, tol: float | None = None) -> int:
    """Rank of A; float mode requires a tol in (0, 1) first.  A 0/1 shift
    along one subdiagonal, as z^n is in either mode, has one nonzero in
    each of its nonzero rows and columns, so its rank is its count of
    nonzeros, read off the scan of ``_shape`` with no elimination and no
    SVD.  Any other A's rank is its width minus the length of the kernel
    basis of its rows (``linalg.kernel_basis``)."""
    linalg.require_tol(A.mode, tol)
    if _shape(A) is not None:
        return A.nnz()
    system = [{} for _ in range(A.rows)]
    for u, v, s in A.nonzero_items():
        system[u][v] = s
    return A.cols - len(linalg.kernel_basis(system, A.cols, A.mode, tol))


def _heads(s: int, height: list[int]) -> list[int]:
    """The indices where a walk of the stride-s shift starts: no one sits
    in their row, so v < s or column v - s holds none."""
    return [v for v in range(len(height)) if v < s or not height[v - s]]


def _chains(s: int, height: list[int]):
    """The chains of a 0/1 stride-s shift's commutation system that carry
    a kernel vector, each a ``range`` of its ascending flat keys u*d + v.

    Equation (a, b) of AP = PA reads P[a - s][b] = P[a][b + s], a side
    dropped where column a - s or column b holds no one, so the unknowns
    fall into chains (u, v) -> (u + s, v + s), and each chain's kernel is
    spanned by its indicator unless a one-term equation zeroes it.  A
    chain that starts at (u0, v0) escapes the one-term equation at its
    start exactly when v0 is a head (``_heads``), and the one at its end
    exactly when height[u0] <= height[v0]: it zips the rest of u0's walk
    with the start of v0's, which is no shorter.  Its height[u0] + 1 keys
    step by s*d + s, one diagonal of one block (the paper's Lemma 3): for
    z^n s = r, and for a channel restriction s = 1.
    """
    d, step = len(height), s * len(height) + s
    for v0 in _heads(s, height):
        for u0 in range(d):
            if height[u0] <= height[v0]:
                key = u0 * d + v0
                yield range(key, key + (height[u0] + 1) * step, step)


def commutant_basis(A: SparseMatrix, tol: float | None = None) -> CommutantBasis:
    """Basis of the commutant of A, canonical up to the elimination order.

    Exact mode needs no tol; float mode requires one in (0, 1), even for a
    0/1 shift along one subdiagonal, and may raise RankAmbiguityError when
    the kernel boundary is too close to call.  An A that is not such a
    shift returns the same basis on every call with the same tol
    (``_eliminated_basis``).
    """
    if A.rows != A.cols:
        raise ShapeError("commutant needs a square matrix")
    linalg.require_tol(A.mode, tol)
    shape = _shape(A)
    if shape is not None:
        # in kernel_basis's order: ascending free column, each chain's last key
        chains = sorted(_chains(*shape), key=lambda keys: keys[-1])
        return CommutantBasis(A.rows, A.mode, tuple(chains))
    return _eliminated_basis(A, tol)


def _eliminated_basis(A: SparseMatrix, tol: float | None) -> CommutantBasis:
    """The kernel of A's commutation system, solved once per tol and kept
    on A, which is never changed, for ``commutant_basis`` and
    ``selfadjoint_commutant_dim`` alike."""
    bases = A.__dict__.setdefault("_bases", {})
    if tol not in bases:
        d = A.rows
        vecs = linalg.kernel_basis(_commutation_rows(A), d * d, A.mode, tol)
        bases[tol] = CommutantBasis(d, A.mode, tuple(
            SparseMatrix({divmod(k, d): s for k, s in vec.items()}, d, d, A.mode)
            for vec in vecs
        ))
    return bases[tol]


def selfadjoint_commutant_dim(A: SparseMatrix, tol: float | None = None) -> int:
    """Real dimension of {P = P* : AP = PA}.

    This equals the complex commutant dimension when A is diagonalizable
    with real spectrum, but at truncation the operators here are nilpotent,
    and it need not: diag(1, 2) z has a commutant of dimension 4K but a
    self-adjoint commutant of dimension 2.  For an A that ``_shape``
    declines it is the real nullity of c -> P(c) - P(c)* on the
    coordinates of A's commutant basis, which ``commutant_basis`` has
    usually solved already.  For P = sum_k (a_k + i b_k) B_k, unknowns
    a_k -> 2k and b_k -> 2k + 1, an entry re + i im of B_k at (u, v), with
    lo <= hi its sorted pair, adds (a re - b im) + i (a im + b re) to
    P[lo][hi] - conj(P[hi][lo]) above the diagonal and minus its conjugate
    below: s re on a and -s im on b in e = 2 (lo*d + hi), the real part,
    with s = +1 above and -1 below, and im on a and re on b in e + 1.  On
    the diagonal s = 0, and e + 1, twice Im P[u][u], is written halved.
    The identity is self-adjoint, and no nonzero P is both self-adjoint and
    i times a self-adjoint element, so the count lies in 1..D.  A float
    count outside, which a basis with huge entries gets from the relative
    cut-off far from its ambiguity band, raises RankAmbiguityError.

    A 0/1 shift along one subdiagonal needs no system: by ``_chains``, P
    is a combination of the indicators 1_C of the surviving chains, and P*
    of the indicators of their transposes, so the self-adjoint commutant
    is spanned by 1_C where C = C^T and by 1_C + 1_C^T and i(1_C - 1_C^T)
    for each pair with C != C^T that both survive.  Its real dimension
    counts the surviving C whose transpose survives too.  The transpose of
    the chain from (u0, v0) starts at (v0, u0), so both survive exactly
    when u0 and v0 are heads (``_heads``) of equal height.  That is sum
    over h of (heads of height h)^2.
    """
    if A.rows != A.cols:
        raise ShapeError("commutant needs a square matrix")
    linalg.require_tol(A.mode, tol)
    shape = _shape(A)
    if shape is not None:
        s, height = shape
        heads = Counter(height[v] for v in _heads(s, height))
        return sum(count * count for count in heads.values())
    cb = _eliminated_basis(A, tol)
    exact = A.mode == "exact"
    # rows of real parts, real Gaussian rationals or floats,
    # in ascending equation id: a fixed order, so a float block's SVD input
    # is bitwise reproducible
    rows: dict[int, dict] = {}
    d = cb.d
    for k, P in enumerate(cb.members):
        a, b = 2 * k, 2 * k + 1
        for (u, v), x in P.entries.items():
            re, im = x.real, x.imag
            e = 2 * (min(u, v) * d + max(u, v))
            s = 0 if u == v else 1 if u < v else -1
            # coefficient first: a Gaussian rational times an int takes its
            # fast path
            for eq, unknown, c in ((e, a, re * s), (e, b, im * -s),
                                   (e + 1, a, im), (e + 1, b, re)):
                if c:
                    _add(rows.setdefault(eq, {}), unknown, c)
    system = [rows[eq] for eq in sorted(rows) if rows[eq]]
    dim = len(linalg.kernel_basis(system, 2 * cb.dim, A.mode, tol))
    if not exact and not 1 <= dim <= cb.dim:
        raise RankAmbiguityError(
            f"self-adjoint commutant dimension {dim} lies outside 1..{cb.dim} (tol={tol:.6e}); "
            "the rank decision is not trustworthy (adjust tol or use exact mode)"
        )
    return dim


def is_block_lower_toeplitz(
    P: SparseMatrix | Sequence[int], params: TruncationParams, tol: float | None = None
) -> bool:
    """True when X* P X is block lower Toeplitz for the intertwiner X of
    ``params``: every K x K block, the entries between two channels, is
    lower Toeplitz.  This is the shape of the commutant of a direct sum of
    r equal shift blocks, read through the block partition.

    Conjugating by X is a relabel (see ``decomposition``): the block
    offsets of P[f][g] are f // r and g // r, and its diagonal neighbours
    are P[f - r][g - r] and P[f + r][g + r], so no product is formed.  A P
    that is not d x d is not.  The scan is ``toeplitz_break``'s, O(nnz).

    A chain (``CommutantBasis``) that is a nonempty ``range`` of step
    r*d + r is one diagonal of one block, and passes exactly when its head
    has g < r, so it wraps no row, and its tail f >= d - r: it is decided
    from its two ends in O(1).  Any other chain is decided by
    ``toeplitz_break``, which names its witness.
    """
    d, r = params.d, params.r
    if isinstance(P, range) and P and P.step == r * d + r:
        return 0 <= P[0] and P[0] % d < r and d - r <= P[-1] // d < d
    if isinstance(P, SparseMatrix) and P.shape != (d, d):
        return False
    return toeplitz_break(P, params, tol) is None


def toeplitz_break(
    P: SparseMatrix | Sequence[int], params: TruncationParams, tol: float | None = None
) -> tuple[int, int] | None:
    """The first nonzero (f, g) of P, a d x d matrix or a chain, that
    breaks the pattern of ``is_block_lower_toeplitz``, or None.  An entry
    with block offsets f // r < g // r must vanish; any other must equal
    P[f - r][g - r] if g >= r and P[f + r][g + r] if f < d - r, an absent
    entry reading as zero.  That compares each pair of diagonal neighbours
    with a nonzero side.  A chain is a pattern of ones, decided exactly on
    its view in either mode, and its first key outside range(d^2), which
    has no place in the view, is its witness."""
    d, r = params.d, params.r
    if not isinstance(P, SparseMatrix):
        outside = next((k for k in P if not 0 <= k < d * d), None)
        if outside is not None:
            return divmod(outside, d)
        P, tol = chain_view(P, d, "exact"), None
    stored, z = P.entries, zero(P.mode)
    last = d - r

    def differs(s, key) -> bool:
        return not scalars_close(s, stored.get(key, z), tol)

    for (f, g), s in stored.items():
        if f // r < g // r:
            if not scalar_is_zero(s, tol):
                return (f, g)
        elif (g >= r and differs(s, (f - r, g - r))) or (
            f < last and differs(s, (f + r, g + r))
        ):
            return (f, g)
    return None


def basis_head_break(
    cb: CommutantBasis, params: TruncationParams, tol: float | None = None
) -> str | None:
    """Why a basis of the commutant of z^n does not hold the identity at
    column offset 0, as a phrase naming the witness, or None when it does.

    By Lemma 3 a commutant element is block lower Toeplitz, so it is
    determined by its entries at the d*r = r^2 K positions (f, g) with
    g < r, its heads.  Elements that pass the Lemma-3 audit, each holding
    exactly one head, at one, with every head held by exactly one of them,
    are therefore a basis of the commutant, not only r^2 K elements of it.
    A chain holds its keys with g < r; a ``range`` of step r*d + r meets
    column offset 0 every K keys, so slicing finds them in O(1).  A
    ``SparseMatrix`` holds its entries with g < r beyond tol of zero, each
    of which must be within tol of one.  The witness named is a head held
    by two elements, else the first missing head, else the first element
    whose head is not one, else the first that holds no head or several.

    A range of that step that starts at a head and holds 1 to K keys holds
    that one head alone, so a basis of such ranges, the chain basis of
    z^n, passes when its first keys, sorted, are the heads; the scan of
    each element is left to name a witness.
    """
    d, r, K = params.d, params.r, params.K
    run = r * d + r
    members = cb.members
    heads = [k for f in range(0, d * d, d) for k in range(f, f + r)]
    if all(type(P) is range and P.step == run and 0 < len(P) <= K for P in members) and (
            sorted(P.start for P in members) == heads):
        return None
    holder: dict[int, int] = {}
    counts = []
    odd = None  # (element, key, value) of the first head that is not one
    for i, P in enumerate(members):
        if isinstance(P, SparseMatrix):
            held = sorted((f * d + g, s) for (f, g), s in P.entries.items()
                          if g < r and not scalar_is_zero(s, tol))
            one = scalars.one(P.mode)
            if odd is None:
                odd = next(((i, k, s) for k, s in held if not scalars_close(s, one, tol)), None)
            keys = [k for k, _ in held]
        elif isinstance(P, range) and P.step == run and P:
            keys = P[-((P[0] % d) // r) % K::K]
        else:
            keys = [k for k in P if k % d < r]
        counts.append(len(keys))
        for k in keys:
            j = holder.setdefault(k, i)
            if j != i:
                return f"head {divmod(k, d)} is held by basis elements {j} and {i}"
    missing = next((k for k in heads if k not in holder), None)
    if missing is not None:
        return f"no basis element holds head {divmod(missing, d)}"
    if odd is not None:
        i, k, s = odd
        return f"basis element {i} holds {s} at head {divmod(k, d)}, not one"
    i = next((i for i, count in enumerate(counts) if count != 1), None)
    if i is not None:
        return f"basis element {i} holds {counts[i]} heads, not one"
    return None

