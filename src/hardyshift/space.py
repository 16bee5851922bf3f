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
size K.  ``TruncationParams`` holds (m, n, K) as a read-only value
(``errors.Record``), the one record that also hashes by value.
"""

from __future__ import annotations

from .errors import Record


class TruncationParams(Record):
    """Model size: m components, multiplication by z^n, K coefficients kept
    per channel, with the derived sizes N, d and r computed here and read
    as plain attributes, since the Lemma-3 audit reads d and r once per
    commutant element.  Equal, hashed and shown by its fields m, n and K.

    N is the degree cutoff (coefficients of z^p are kept for p < N), d the
    dimension of the truncated space and r the number of channels (shift
    blocks) in the decomposition.
    """

    _fields = ("m", "n", "K")

    def __init__(self, m: int, n: int, K: int):
        for name, v in (("m", m), ("n", n), ("K", K)):
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        super().__init__(m, n, K)
        vars(self).update(N=n * K, d=m * n * K, r=m * n)

    def __hash__(self):
        return hash((self.m, self.n, self.K))
