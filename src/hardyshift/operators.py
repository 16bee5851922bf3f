"""Builders for truncated multiplication-operator matrices.

The operator of multiplication by a matrix polynomial acts on truncated
coefficient vectors; products are compressed back into the truncated space
by dropping every coefficient of degree N and above.  The truncated shift is
therefore nilpotent, and identities that only move coefficients within the
retained degree range hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError
from .matrices import DenseMatrix
from .scalars import Mode, scalar_from_json, scalar_to_json, zero
from .space import CoeffVector, TruncationParams, flat_index


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


def toeplitz_matrix(symbol: MatrixSymbol, params: TruncationParams) -> DenseMatrix:
    """Matrix of truncated multiplication by the symbol, in the flat basis.

    Column flat(i_in, p) receives, in block row p + t, the i_in-th column of
    the coefficient of z^t; contributions past degree N - 1 are dropped.
    """
    if symbol.m != params.m:
        raise ShapeError(
            f"symbol is {symbol.m} x {symbol.m} but the space has {params.m} components"
        )
    mode = symbol.mode
    d = params.d
    z = zero(mode)
    grid = [[z] * d for _ in range(d)]
    for t, C in symbol.coeffs:
        for p in range(params.N - t):
            for i_out in range(1, params.m + 1):
                row = grid[flat_index(i_out, p + t, params)]
                crow = C.entries[i_out - 1]
                for i_in in range(1, params.m + 1):
                    e = crow[i_in - 1]
                    if e:
                        col = flat_index(i_in, p, params)
                        row[col] = row[col] + e
    return DenseMatrix(grid, mode)


def scalar_shift(L: int, mode: Mode = "exact") -> DenseMatrix:
    """Nilpotent L x L subdiagonal shift block, the truncated model of
    multiplication by z on scalar-valued functions."""
    if not isinstance(L, int) or L < 1:
        raise ShapeError(f"block size must be a positive integer, got {L!r}")
    return toeplitz_matrix(monomial_symbol(1, 1, mode), TruncationParams(1, 1, L))


def vector_shift(params: TruncationParams, mode: Mode = "exact") -> DenseMatrix:
    """Truncated multiplication by z on the C^m-valued space: the block
    subdiagonal shift."""
    return toeplitz_matrix(monomial_symbol(params.m, 1, mode), params)


def power_symbol(params: TruncationParams, mode: Mode = "exact") -> DenseMatrix:
    """Truncated multiplication by z^n, the operator whose reducing structure
    this package certifies.  Coincides with vector_shift ** n."""
    return toeplitz_matrix(monomial_symbol(params.m, params.n, mode), params)


def apply(operator: DenseMatrix, vec: CoeffVector) -> CoeffVector:
    if operator.mode != vec.mode:
        raise TypeError(f"mode mismatch: {operator.mode!r} vs {vec.mode!r}")
    return CoeffVector(operator.matvec(vec.entries), vec.mode)


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
