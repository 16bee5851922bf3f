from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hardyshift import GaussianRational, TruncationParams, linalg, power_symbol
from hardyshift.commutant import _commutation_rows
from hardyshift.errors import RankAmbiguityError
from hardyshift.linalg import (
    components,
    echelonize_float,
    kernel_basis,
    nullity,
    rref,
)

TOL = 1e-9
ONE = GaussianRational(1)


def lifted(rows):
    """The same system over GaussianRational, the field ``kernel_basis``
    serves in exact mode."""
    return [
        {c: v if isinstance(v, GaussianRational) else GaussianRational(v)
         for c, v in row.items()}
        for row in rows
    ]


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


FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def planted_systems(draw, coeff=FRACTIONS):
    """A sparse system, Fraction by default, whose unknowns fall into
    planted groups (every row stays inside one group), with the groups'
    columns shuffled together and the rows shuffled."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    ncols = sum(sizes)
    perm = draw(st.permutations(range(ncols)))
    groups, start = [], 0
    for size in sizes:
        groups.append([perm[start + i] for i in range(size)])
        start += size
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
    reference = whole_system_kernel_exact(lifted(rows), ncols, ONE)
    assert kernel_basis(lifted(rows), ncols, "exact") == reference
    rank = ncols - nullity(rows, ncols, "exact")
    assert rank == len(rref(rows, ncols)[1])
    assert rank + len(reference) == ncols
    group_of = {c: g for g, group in enumerate(groups) for c in group}
    found = components(rows, ncols)
    assert sorted(c for cols, _ in found for c in cols) == list(range(ncols))
    for cols, block in found:
        assert len({group_of[c] for c in cols}) == 1
        assert all(0 <= c < len(cols) for row in block for c in row)


FIELDS = {"fraction": Fraction, "gaussian": GaussianRational}


@st.composite
def signed_systems(draw, field):
    """A system whose rows hold one entry, or two entries of ratio +-1.

    Columns form shuffled groups.  Each group of two or more is joined by a
    random spanning tree of signed equalities, then may gain a closing edge
    of random sign (an odd-sign cycle about half the time) and a zero row;
    groups of one may get a zero row or stay isolated unknowns.  Every
    coefficient is a random nonzero scalar, so a ratio of +-1 is not the
    same as an entry of +-1.
    """
    make = FIELDS[field]
    part = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    if field == "fraction":
        scalar = part.filter(bool).map(make)
    else:
        scalar = st.tuples(part, part).filter(any).map(lambda p: make(*p))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    ncols = sum(sizes)
    perm = draw(st.permutations(range(ncols)))
    rows, start = [], 0

    def equality(i, j):
        a = draw(scalar)
        return {i: a, j: a if draw(st.booleans()) else -a}

    for size in sizes:
        group = perm[start:start + size]
        start += size
        for k in range(1, size):
            rows.append(equality(group[draw(st.integers(0, k - 1))], group[k]))
        if size > 2 and draw(st.booleans()):
            i, j = draw(st.lists(st.sampled_from(group), min_size=2, max_size=2,
                                 unique=True))
            rows.append(equality(i, j))
        if draw(st.integers(0, 3)) == 0:
            rows.append({draw(st.sampled_from(group)): draw(scalar)})
    rows = draw(st.permutations(rows)) if rows else rows
    return rows, ncols


def _check_against_rref(rows, ncols):
    """Kernel vectors over GaussianRational, and the nullity of the system
    as given (Fraction or GaussianRational), against one whole-system
    ``rref``."""
    reference = whole_system_kernel_exact(lifted(rows), ncols, ONE)
    kernel = kernel_basis(lifted(rows), ncols, "exact")
    assert kernel == reference
    # same scalar types and entry order, so reports built from it match
    assert repr(kernel) == repr(reference)
    assert ncols - nullity(rows, ncols, "exact") == len(rref(rows, ncols)[1])


@settings(max_examples=60, deadline=None)
@given(st.one_of(planted_systems().map(lambda s: s[:2]), signed_systems("fraction")))
def test_fraction_kernel_stays_in_the_fractions(system):
    # a system with no rows names no field
    rows, ncols = system
    assume(rows)
    kernel = kernel_basis(rows, ncols, "exact")
    assert all(type(s) is Fraction for vec in kernel for s in vec.values())
    assert repr(kernel) == repr(whole_system_kernel_exact(rows, ncols, Fraction(1)))


@pytest.mark.parametrize("field", sorted(FIELDS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_signed_blocks_match_rref(field, data):
    rows, ncols = data.draw(signed_systems(field))
    _check_against_rref(rows, ncols)


def test_single_entry_row_zeroes_its_block():
    # x0 = x1 and x1 = 0: nothing but zero is left
    f = Fraction
    rows = [{0: f(1), 1: f(-1)}, {1: f(2)}]
    assert kernel_basis(lifted(rows), 2, "exact") == []
    assert nullity(rows, 2, "exact") == 0


def test_closing_edge_parity_decides_the_cycle():
    # x0 = -x1 and x1 = x2 give x0 = -x2: a closing row x0 = -x2 (an odd
    # row) keeps the kernel, a closing row x0 = x2 (an even one) kills it
    f = Fraction
    path = [{0: f(1), 1: f(1)}, {1: f(1), 2: f(-1)}]
    consistent = path + [{0: f(1), 2: f(1)}]
    assert kernel_basis(lifted(consistent), 3, "exact") == [{2: 1, 0: -1, 1: 1}]
    assert nullity(consistent, 3, "exact") == 1
    contradicting = path + [{0: f(1), 2: f(-1)}]
    assert kernel_basis(lifted(contradicting), 3, "exact") == []
    assert nullity(contradicting, 3, "exact") == 0


@pytest.mark.parametrize(
    "rows",
    [
        [{0: Fraction(1), 1: Fraction(-1)}, {1: Fraction(1), 2: Fraction(2)}],
        [{0: Fraction(1), 1: Fraction(-1)}, {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}],
    ],
    ids=["ratio-2", "three-entries"],
)
def test_other_blocks_fall_back_to_rref(rows, monkeypatch):
    calls = []

    def counted(block, width):
        calls.append(width)
        return rref(block, width)

    monkeypatch.setattr(linalg, "rref", counted)
    _check_against_rref(rows, 3)
    assert 3 in calls


# what each block solver is called with and decides, for comparing the
# solver choices of two calls
SPIES = {
    "rref": lambda args, out: (len(args[0]), args[1]),
    "_block_rank": lambda args, out: (len(args[0]), out),
}


def solver_log(call, *args):
    """Run ``call(*args)`` and list, in order, the block solvers it used."""
    log = []
    with pytest.MonkeyPatch.context() as mp:
        for name, summary in SPIES.items():
            def spy(*a, _real=getattr(linalg, name), _name=name, _summary=summary):
                out = _real(*a)
                log.append((_name, _summary(a, out)))
                return out

            mp.setattr(linalg, name, spy)
        result = call(*args)
    return result, log


@pytest.mark.parametrize("mode", ["exact", "float"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nullity_counts_the_kernel_basis_with_the_same_solvers(mode, data):
    if mode == "exact":
        rows, ncols = data.draw(
            st.one_of(planted_systems().map(lambda s: s[:2]), signed_systems("fraction"))
        )
        tol = None
    else:
        # small integers keep every nonzero singular value far above the
        # cut-off, so the ambiguity gate never fires
        rows, ncols, _ = data.draw(
            planted_systems(st.integers(-3, 3).filter(bool).map(float))
        )
        tol = TOL
    count, counted_by = solver_log(nullity, rows, ncols, mode, tol)
    basis, built_by = solver_log(kernel_basis, rows, ncols, mode, tol)
    assert count == len(basis)
    assert counted_by == built_by


def test_ambiguous_one_by_one_block_in_well_conditioned_system():
    rng = np.random.default_rng(7)
    n = 40
    well = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    rows = [{c: complex(v) for c, v in enumerate(r)} for r in well]
    assert nullity(rows, n + 1, "float", TOL) == 1
    rows.append({n: 1e-9})
    with pytest.raises(RankAmbiguityError):
        nullity(rows, n + 1, "float", TOL)
    with pytest.raises(RankAmbiguityError):
        kernel_basis(rows, n + 1, "float", TOL)


def test_unknowns_in_no_equation_give_unit_vectors():
    rows = [{0: Fraction(1), 2: Fraction(-1)}]
    assert kernel_basis(lifted(rows), 5, "exact") == [
        {1: 1}, {2: 1, 0: 1}, {3: 1}, {4: 1}
    ]
    # float vectors come in pivot-column order: the solution of the
    # equation pivots on column 0
    basis = kernel_basis([{0: 1.0, 2: -1.0}], 5, "float", TOL)
    assert sorted(basis[0]) == [0, 2]
    assert basis[0][0] == 1 and basis[0][2] == pytest.approx(1)
    assert basis[1:] == [{1: 1 + 0j}, {3: 1 + 0j}, {4: 1 + 0j}]
    assert kernel_basis([], 3, "float", TOL) == [{0: 1 + 0j}, {1: 1 + 0j}, {2: 1 + 0j}]


def test_float_kernel_lists_vectors_by_pivot_column_across_blocks():
    # the block of columns {0, 2, 3} starts first, but its kernel vector
    # (0, 1, -1) pivots on column 2, after the unit vector of column 1
    rows = [{0: 1.0}, {0: 1.0, 2: 1.0, 3: 1.0}]
    basis = kernel_basis(rows, 4, "float", TOL)
    assert basis[0] == {1: 1 + 0j}
    assert sorted(basis[1]) == [2, 3]
    assert basis[1][2] == 1 and basis[1][3] == pytest.approx(-1)


def test_float_solves_repeat_and_match_the_whole_system_echelon_basis():
    p = TruncationParams(2, 2, 3)
    rows = _commutation_rows(power_symbol(p, mode="float"))
    ncols = p.d * p.d
    first = kernel_basis(rows, ncols, "float", TOL)
    assert kernel_basis(rows, ncols, "float", TOL) == first
    reference = whole_system_kernel_float(rows, ncols, TOL)
    assert len(first) == len(reference) == p.r * p.r * p.K
    for vec, ref in zip(first, reference):
        dense = np.zeros(ncols, dtype=complex)
        for c, v in vec.items():
            dense[c] = v
        assert np.allclose(dense, ref, atol=1e-12)


def test_float_rank_requires_tol():
    with pytest.raises(ValueError):
        nullity([{0: 1.0}], 1, "float", None)
    with pytest.raises(ValueError):
        kernel_basis([{0: 1.0}], 1, "float", 0.0)
