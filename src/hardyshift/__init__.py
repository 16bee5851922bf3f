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
    is_lower_toeplitz,
    restrict,
    selfadjoint_commutant_dim,
)
from .decomposition import (
    Channel,
    ChannelBasis,
    EquivalenceReport,
    all_channel_bases,
    channel,
    channel_basis,
    channel_order,
    channels,
    partition_check,
    verify_equivalence,
)
from .errors import (
    CapError,
    HardyShiftError,
    InvarianceError,
    RankAmbiguityError,
    ShapeError,
)
from .lattice import (
    ChannelMask,
    ChannelMinimality,
    LatticeCounts,
    LatticeReport,
    MaskEntry,
    channel_edges,
    check_minimal,
    enumerate_lattice,
    lattice_closure_check,
    mask_is_reducing,
)
from .matrices import (
    DenseMatrix,
    SparseMatrix,
    matrices_close,
)
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
from .space import TruncationParams, flat_index

__all__ = [
    "CapError",
    "Channel",
    "ChannelBasis",
    "ChannelMask",
    "ChannelMinimality",
    "CommutantBasis",
    "DenseMatrix",
    "EquivalenceReport",
    "GaussianRational",
    "HardyShiftError",
    "InvarianceError",
    "LatticeCounts",
    "LatticeReport",
    "MaskEntry",
    "MatrixSymbol",
    "Mode",
    "RankAmbiguityError",
    "ShapeError",
    "SparseMatrix",
    "TruncationParams",
    "all_channel_bases",
    "channel",
    "channel_basis",
    "channel_edges",
    "channel_order",
    "channels",
    "check_minimal",
    "commutant_basis",
    "enumerate_lattice",
    "flat_index",
    "is_block_lower_toeplitz",
    "is_lower_toeplitz",
    "lattice_closure_check",
    "mask_is_reducing",
    "matrices_close",
    "monomial_symbol",
    "partition_check",
    "power_symbol",
    "restrict",
    "scalar_shift",
    "selfadjoint_commutant_dim",
    "symbol_from_json",
    "symbol_to_json",
    "toeplitz_matrix",
    "vector_shift",
    "verify_equivalence",
]

__version__ = "0.1.0"
