"""Truncated matrix models of analytic multiplication operators on the
C^m-valued Hardy space.

The package builds the finite compression of multiplication by a matrix
polynomial to degrees below N = n*K, certifies that multiplication by z^n
is unitarily equivalent to a direct sum of m*n scalar shift blocks via an
explicit permutation intertwiner, computes commutants exactly over Gaussian
rationals, and enumerates the lattice of channel-union reducing subspaces
with per-channel minimality certificates.
"""

from .commutant import (
    CommutantBasis,
    commutant_basis,
    is_block_lower_toeplitz,
    operator_rank,
    selfadjoint_commutant_dim,
)
from .decomposition import (
    Channel,
    EquivalenceReport,
    channel,
    channel_flats,
    channels,
    verify_equivalence,
)
from .errors import (
    CapError,
    HardyShiftError,
    RankAmbiguityError,
    ShapeError,
)
from .lattice import (
    ChannelMinimality,
    LatticeCounts,
    LatticeReport,
    channel_edges,
    check_minimal,
    enumerate_lattice,
    lattice_closure_check,
    mask_is_reducing,
)
from .matrices import DenseMatrix, SparseMatrix
from .operators import (
    MatrixSymbol,
    monomial_symbol,
    power_symbol,
    scalar_shift,
    symbol_from_json,
    symbol_to_json,
    toeplitz_matrix,
    vector_shift,
)
from .scalars import GaussianRational, Mode
from .space import TruncationParams

__all__ = [
    "CapError",
    "Channel",
    "ChannelMinimality",
    "CommutantBasis",
    "DenseMatrix",
    "EquivalenceReport",
    "GaussianRational",
    "HardyShiftError",
    "LatticeCounts",
    "LatticeReport",
    "MatrixSymbol",
    "Mode",
    "RankAmbiguityError",
    "ShapeError",
    "SparseMatrix",
    "TruncationParams",
    "channel",
    "channel_edges",
    "channel_flats",
    "channels",
    "check_minimal",
    "commutant_basis",
    "enumerate_lattice",
    "is_block_lower_toeplitz",
    "lattice_closure_check",
    "mask_is_reducing",
    "monomial_symbol",
    "operator_rank",
    "power_symbol",
    "scalar_shift",
    "selfadjoint_commutant_dim",
    "symbol_from_json",
    "symbol_to_json",
    "toeplitz_matrix",
    "vector_shift",
    "verify_equivalence",
]

__version__ = "0.1.0"
