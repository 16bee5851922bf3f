"""Truncated vector-valued Hardy space: its size and its indexing.

A C^m-valued analytic function F = sum_p A_p z^p is truncated to degrees
p < N and identified with the flat tuple of its coefficients in the basis
{e_i z^p}.  The ordering is degree-major: the coefficient of e_i z^p sits at
flat position p*m + (i-1), with components i running 1..m.  With that
ordering multiplication by z acts as the block subdiagonal shift, which the
operator builders rely on.

The truncation horizon is always N = n*K: K coefficients retained per
channel of the multiplication operator by z^n, so the truncated model of
that operator is exactly a direct sum of m*n nilpotent shift blocks of
size K.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TruncationParams:
    """Model size: m components, multiplication by z^n, K coefficients kept
    per channel."""

    m: int
    n: int
    K: int

    def __post_init__(self):
        for name in ("m", "n", "K"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")

    @property
    def N(self) -> int:
        """Degree cutoff: coefficients of z^p are kept for p < N."""
        return self.n * self.K

    @property
    def d(self) -> int:
        """Dimension of the truncated space."""
        return self.m * self.N

    @property
    def r(self) -> int:
        """Number of channels (shift blocks) in the decomposition."""
        return self.m * self.n


def flat_index(i: int, p: int, params: TruncationParams) -> int:
    if not 1 <= i <= params.m:
        raise IndexError(f"component {i} out of range 1..{params.m}")
    if not 0 <= p < params.N:
        raise IndexError(f"degree {p} out of range 0..{params.N - 1}")
    return p * params.m + (i - 1)
