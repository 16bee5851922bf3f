"""Builders for truncated multiplication-operator matrices.

The operator of multiplication by a matrix polynomial acts on truncated
coefficient vectors; products are compressed back into the truncated space
by dropping every coefficient of degree N and above.  The truncated shift is
therefore nilpotent, and identities that only move coefficients within the
retained degree range hold exactly.

Every builder here returns a ``SparseMatrix`` holding only the operator's
nonzero entries: ``power_symbol`` has d - m*n of them, which is all the
pipeline reads.  Identities stated between dense matrices, such as
``power_symbol`` coinciding with ``vector_shift ** n``, hold between their
``to_dense()`` views.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError
from .matrices import DenseMatrix, SparseMatrix
from .scalars import Mode, scalar_from_json, scalar_to_json, zero
from .space import TruncationParams


@dataclass(frozen=True)
class MatrixSymbol:
    """Matrix polynomial sum_t C_t z^t with square m x m coefficients.

    Coefficient matrices must share one mode; powers are distinct and
    nonnegative.  Stored sorted by power.
    """

    m: int
    coeffs: tuple[tuple[int, DenseMatrix], ...]

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ShapeError(f"symbol size must be a positive integer, got {self.m!r}")
        seen = set()
        for t, mat in self.coeffs:
            if not isinstance(t, int) or t < 0:
                raise ShapeError(f"symbol power must be a nonnegative integer, got {t!r}")
            if t in seen:
                raise ShapeError(f"duplicate symbol power {t}")
            seen.add(t)
            if mat.shape != (self.m, self.m):
                raise ShapeError(
                    f"coefficient of z^{t} has shape {mat.shape}, expected "
                    f"({self.m}, {self.m})"
                )
        modes = {mat.mode for _, mat in self.coeffs}
        if len(modes) > 1:
            raise TypeError("symbol coefficients must share a mode")
        object.__setattr__(self, "coeffs", tuple(sorted(self.coeffs)))

    @property
    def mode(self) -> Mode:
        return self.coeffs[0][1].mode if self.coeffs else "exact"

    @property
    def degree(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else 0


def monomial_symbol(m: int, t: int, mode: Mode = "exact") -> MatrixSymbol:
    """The symbol z^t I_m."""
    return MatrixSymbol(m, ((t, DenseMatrix.identity(m, mode)),))


def toeplitz_matrix(
    symbol: MatrixSymbol, params: TruncationParams, mode: Mode | None = None
) -> SparseMatrix:
    """Matrix of truncated multiplication by the symbol, in the flat basis.

    Column flat(i_in, p) receives, in block row p + t, the i_in-th column of
    the coefficient of z^t; contributions past degree N - 1 are dropped.
    Entry (flat(i_out, q), flat(i_in, p)) can only come from the power
    t = q - p, so each nonzero coefficient entry is stored as it is, with
    no sum formed.  A float entry is stored as 0j + e, so that a part of
    -0.0 reads 0.0.  ``mode`` defaults to the coefficients' mode and must
    match it; it is what decides the mode of a symbol without
    coefficients.
    """
    if symbol.m != params.m:
        raise ShapeError(
            f"symbol is {symbol.m} x {symbol.m} but the space has {params.m} components"
        )
    if mode is None:
        mode = symbol.mode
    elif symbol.coeffs and mode != symbol.mode:
        raise TypeError(f"symbol is in {symbol.mode!r} mode, not {mode!r}")
    m, z = params.m, zero(mode)
    entries = {}  # flat(i, p) = p*m + (i - 1)
    for t, C in symbol.coeffs:
        for i_out, crow in enumerate(C.entries):
            for i_in, e in enumerate(crow):
                if e:
                    e = e if mode == "exact" else z + e
                    for p in range(params.N - t):
                        entries[((p + t) * m + i_out, p * m + i_in)] = e
    return SparseMatrix(entries, params.d, params.d, mode)


def scalar_shift(L: int, mode: Mode = "exact") -> SparseMatrix:
    """Nilpotent L x L subdiagonal shift block, the truncated model of
    multiplication by z on scalar-valued functions."""
    if not isinstance(L, int) or L < 1:
        raise ShapeError(f"block size must be a positive integer, got {L!r}")
    return toeplitz_matrix(monomial_symbol(1, 1, mode), TruncationParams(1, 1, L))


def vector_shift(params: TruncationParams, mode: Mode = "exact") -> SparseMatrix:
    """Truncated multiplication by z on the C^m-valued space: the block
    subdiagonal shift."""
    return toeplitz_matrix(monomial_symbol(params.m, 1, mode), params)


def power_symbol(params: TruncationParams, mode: Mode = "exact") -> SparseMatrix:
    """Truncated multiplication by z^n, the operator whose reducing structure
    this package certifies.  Its ``to_dense()`` coincides with
    ``vector_shift(params).to_dense() ** n``."""
    return toeplitz_matrix(monomial_symbol(params.m, params.n, mode), params)


def symbol_from_json(obj, mode: Mode = "exact") -> MatrixSymbol:
    """Parse ``{"m": int, "coeffs": [{"t": int, "matrix": [[scalar, ...], ...]}]}``.

    Scalar entries are ints, rational strings or ``{"re": ..., "im": ...}``
    objects whose parts are either; floats are only accepted in float mode.
    """
    if not isinstance(obj, dict):
        raise ValueError("symbol file must contain a JSON object")
    m = obj.get("m")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"'m' must be a positive integer, got {m!r}")
    coeffs_json = obj.get("coeffs")
    if not isinstance(coeffs_json, list):
        raise ValueError("'coeffs' must be a list of {t, matrix} objects")
    coeffs = []
    for item in coeffs_json:
        if not isinstance(item, dict) or set(item) != {"t", "matrix"}:
            raise ValueError(f"symbol coefficient must have 't' and 'matrix', got {item!r}")
        t = item["t"]
        if not isinstance(t, int) or isinstance(t, bool) or t < 0:
            raise ValueError(f"'t' must be a nonnegative integer, got {t!r}")
        rows = item["matrix"]
        if (
            not isinstance(rows, list)
            or len(rows) != m
            or any(not isinstance(r, list) or len(r) != m for r in rows)
        ):
            raise ValueError(f"coefficient of z^{t} must be an {m} x {m} matrix")
        entries = [[scalar_from_json(e, mode) for e in row] for row in rows]
        coeffs.append((t, DenseMatrix(entries, mode)))
    try:
        return MatrixSymbol(m, tuple(coeffs))
    except (ShapeError, TypeError) as exc:
        raise ValueError(str(exc)) from exc


def symbol_to_json(symbol: MatrixSymbol) -> dict:
    return {
        "m": symbol.m,
        "coeffs": [
            {
                "t": t,
                "matrix": [[scalar_to_json(e) for e in row] for row in mat.entries],
            }
            for t, mat in symbol.coeffs
        ],
    }
