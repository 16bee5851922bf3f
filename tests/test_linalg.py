from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyshift import TruncationParams, power_symbol
from hardyshift.commutant import _commutation_rows
from hardyshift.errors import RankAmbiguityError
from hardyshift.linalg import (
    components,
    echelonize_float,
    kernel_basis_exact,
    kernel_basis_float,
    rank_exact,
    rank_float,
    rref,
)

TOL = 1e-9


def whole_system_kernel_exact(rows, ncols, one):
    """Reference: one elimination of the whole system, free columns in
    ascending order."""
    reduced, pivots = rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: one}
        for pc, ridx in pivots.items():
            coeff = reduced[ridx].get(f)
            if coeff:
                vec[pc] = -coeff
        basis.append(vec)
    return basis


def whole_system_kernel_float(rows, ncols, tol):
    """Reference: one dense SVD of the whole system, echelonized."""
    dense = np.zeros((len(rows), ncols), dtype=complex)
    for i, row in enumerate(rows):
        for c, v in row.items():
            dense[i, c] = v
    _, svals, vh = np.linalg.svd(dense)
    rank = int(np.sum(svals > tol))
    vecs, _ = echelonize_float([np.conj(vh[i]) for i in range(rank, ncols)], tol)
    return vecs


@st.composite
def planted_systems(draw):
    """A sparse Fraction system whose unknowns fall into planted groups
    (every row stays inside one group), with the groups' columns shuffled
    together and the rows shuffled."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    ncols = sum(sizes)
    perm = draw(st.permutations(range(ncols)))
    groups, start = [], 0
    for size in sizes:
        groups.append([perm[start + i] for i in range(size)])
        start += size
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    rows = []
    for group in groups:
        for _ in range(draw(st.integers(0, len(group) + 1))):
            support = draw(
                st.lists(st.sampled_from(group), min_size=1, max_size=3, unique=True)
            )
            rows.append({c: draw(coeff) for c in support})
    rows = draw(st.permutations(rows)) if rows else rows
    return rows, ncols, groups


@settings(max_examples=80, deadline=None)
@given(planted_systems())
def test_blockwise_exact_matches_whole_system_rref(system):
    rows, ncols, groups = system
    reference = whole_system_kernel_exact(rows, ncols, Fraction(1))
    assert kernel_basis_exact(rows, ncols, Fraction(1)) == reference
    assert rank_exact(rows, ncols) == len(rref(rows, ncols)[1])
    assert rank_exact(rows, ncols) + len(reference) == ncols
    group_of = {c: g for g, group in enumerate(groups) for c in group}
    found = components(rows, ncols)
    assert sorted(c for cols, _ in found for c in cols) == list(range(ncols))
    for cols, block in found:
        assert len({group_of[c] for c in cols}) == 1
        assert all(0 <= c < len(cols) for row in block for c in row)


def test_ambiguous_one_by_one_block_in_well_conditioned_system():
    rng = np.random.default_rng(7)
    n = 40
    well = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    rows = [{c: complex(v) for c, v in enumerate(r)} for r in well]
    assert rank_float(rows, n + 1, TOL) == n
    rows.append({n: 1e-9})
    with pytest.raises(RankAmbiguityError):
        rank_float(rows, n + 1, TOL)
    with pytest.raises(RankAmbiguityError):
        kernel_basis_float(rows, n + 1, TOL)


def test_unknowns_in_no_equation_give_unit_vectors():
    rows = [{0: Fraction(1), 2: Fraction(-1)}]
    assert kernel_basis_exact(rows, 5, Fraction(1)) == [
        {1: 1}, {2: 1, 0: 1}, {3: 1}, {4: 1}
    ]
    # float vectors come in pivot-column order: the solution of the
    # equation pivots on column 0
    basis = kernel_basis_float([{0: 1.0, 2: -1.0}], 5, TOL)
    assert sorted(basis[0]) == [0, 2]
    assert basis[0][0] == 1 and basis[0][2] == pytest.approx(1)
    assert basis[1:] == [{1: 1 + 0j}, {3: 1 + 0j}, {4: 1 + 0j}]
    assert kernel_basis_float([], 3, TOL) == [{0: 1 + 0j}, {1: 1 + 0j}, {2: 1 + 0j}]


def test_float_kernel_lists_vectors_by_pivot_column_across_blocks():
    # the block of columns {0, 2, 3} starts first, but its kernel vector
    # (0, 1, -1) pivots on column 2, after the unit vector of column 1
    rows = [{0: 1.0}, {0: 1.0, 2: 1.0, 3: 1.0}]
    basis = kernel_basis_float(rows, 4, TOL)
    assert basis[0] == {1: 1 + 0j}
    assert sorted(basis[1]) == [2, 3]
    assert basis[1][2] == 1 and basis[1][3] == pytest.approx(-1)


def test_float_solves_repeat_and_match_the_whole_system_echelon_basis():
    p = TruncationParams(2, 2, 3)
    rows = _commutation_rows(power_symbol(p, mode="float"))
    ncols = p.d * p.d
    first = kernel_basis_float(rows, ncols, TOL)
    assert kernel_basis_float(rows, ncols, TOL) == first
    reference = whole_system_kernel_float(rows, ncols, TOL)
    assert len(first) == len(reference) == p.r * p.r * p.K
    for vec, ref in zip(first, reference):
        dense = np.zeros(ncols, dtype=complex)
        for c, v in vec.items():
            dense[c] = v
        assert np.allclose(dense, ref, atol=1e-12)


def test_float_rank_requires_tol():
    with pytest.raises(ValueError):
        rank_float([{0: 1.0}], 1, None)
    with pytest.raises(ValueError):
        kernel_basis_float([{0: 1.0}], 1, 0.0)
