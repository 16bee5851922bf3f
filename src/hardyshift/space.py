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
from functools import cached_property


@dataclass(frozen=True)
class TruncationParams:
    """Model size: m components, multiplication by z^n, K coefficients kept
    per channel.  The derived sizes are computed on first read and then
    read as plain attributes, since the Lemma-3 audit reads d and r once
    per commutant element."""

    m: int
    n: int
    K: int

    def __post_init__(self):
        for name in ("m", "n", "K"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")

    @cached_property
    def N(self) -> int:
        """Degree cutoff: coefficients of z^p are kept for p < N."""
        return self.n * self.K

    @cached_property
    def d(self) -> int:
        """Dimension of the truncated space."""
        return self.m * self.N

    @cached_property
    def r(self) -> int:
        """Number of channels (shift blocks) in the decomposition."""
        return self.m * self.n

