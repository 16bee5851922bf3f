from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hardyshift import GaussianRational, TruncationParams, linalg, power_symbol
from hardyshift.errors import RankAmbiguityError
from hardyshift.commutant import _commutation_rows
from hardyshift.floatsolve import echelonize_float
from hardyshift.linalg import components, kernel_basis, rref

from helpers import (
    commutation_rows_reference,
    dense_rank,
    float_block_solve_reference,
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
    ascending order.  This is ``kernel_basis``'s own algorithm, so it pins
    the vectors' order, entry order and scalar types;
    ``test_exact_kernel_is_certified`` checks that they are a kernel
    basis without it."""
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
def test_exact_kernel_matches_rref_and_components_keep_planted_groups(system):
    rows, ncols, groups = system
    reference = whole_system_kernel_exact(lifted(rows), ncols, ONE)
    assert kernel_basis(lifted(rows), ncols, "exact") == reference
    rank = ncols - len(kernel_basis(rows, ncols, "exact"))
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


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    planted_systems().map(lambda s: s[:2]),
    planted_systems().map(lambda s: (lifted(s[0]), s[1])),
    signed_systems("fraction"),
    signed_systems("gaussian"),
))
def test_exact_kernel_is_certified(system):
    # a basis of the kernel: every vector solves every row, each has the
    # field's one at its own free column (its first key), where every other
    # vector is zero, and there are as many as ncols minus the rank
    rows, ncols = system
    field = next((type(c) for row in rows for c in row.values()), GaussianRational)
    zero = field(0)
    basis = kernel_basis(rows, ncols, "exact")
    for vec in basis:
        for row in rows:
            assert sum((c * vec.get(k, zero) for k, c in row.items()), zero) == 0
    free = [next(iter(vec)) for vec in basis]
    for vec, f in zip(basis, free):
        assert type(vec[f]) is field and vec[f] == 1
        assert all(not other.get(f) for other in basis if other is not vec)
    dense = [[row.get(c, zero) for c in range(ncols)] for row in rows]
    assert len(basis) == len(kernel_basis(rows, ncols, "exact")) == ncols - dense_rank(dense)
    assert len(basis) == ncols - len(rref(rows, ncols)[1])


def _check_against_rref(rows, ncols):
    """Kernel vectors over GaussianRational, and the nullity of the system
    as given (Fraction or GaussianRational), against one whole-system
    ``rref``."""
    reference = whole_system_kernel_exact(lifted(rows), ncols, ONE)
    kernel = kernel_basis(lifted(rows), ncols, "exact")
    assert kernel == reference
    # same scalar types and entry order, so reports built from it match
    assert repr(kernel) == repr(reference)
    assert ncols - len(kernel_basis(rows, ncols, "exact")) == len(rref(rows, ncols)[1])


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
def test_signed_systems_match_rref(field, data):
    rows, ncols = data.draw(signed_systems(field))
    _check_against_rref(rows, ncols)


def test_single_entry_row_zeroes_the_unknowns_joined_to_it():
    # x0 = x1 and x1 = 0: nothing but zero is left
    f = Fraction
    rows = [{0: f(1), 1: f(-1)}, {1: f(2)}]
    assert kernel_basis(lifted(rows), 2, "exact") == []
    assert len(kernel_basis(rows, 2, "exact")) == 0


def test_closing_edge_parity_decides_the_cycle():
    # x0 = -x1 and x1 = x2 give x0 = -x2: a closing row x0 = -x2 (an odd
    # row) keeps the kernel, a closing row x0 = x2 (an even one) kills it
    f = Fraction
    path = [{0: f(1), 1: f(1)}, {1: f(1), 2: f(-1)}]
    consistent = path + [{0: f(1), 2: f(1)}]
    assert kernel_basis(lifted(consistent), 3, "exact") == [{2: 1, 0: -1, 1: 1}]
    assert len(kernel_basis(consistent, 3, "exact")) == 1
    contradicting = path + [{0: f(1), 2: f(-1)}]
    assert kernel_basis(lifted(contradicting), 3, "exact") == []
    assert len(kernel_basis(contradicting, 3, "exact")) == 0


@pytest.mark.parametrize(
    "rows",
    [
        [{0: Fraction(1), 1: Fraction(-1)}, {1: Fraction(1), 2: Fraction(2)}],
        [{0: Fraction(1), 1: Fraction(-1)}, {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}],
    ],
    ids=["ratio-2", "three-entries"],
)
def test_kernel_basis_and_nullity_each_make_one_rref_call(rows, monkeypatch):
    calls = []

    def counted(system, width):
        calls.append((len(system), width))
        return rref(system, width)

    monkeypatch.setattr(linalg, "rref", counted)
    _check_against_rref(rows, 3)
    # the references call this module's own rref, which is not counted
    assert calls == [(2, 3), (2, 3)]


def test_ambiguous_one_by_one_block_in_well_conditioned_system():
    rng = np.random.default_rng(7)
    n = 40
    well = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    rows = [{c: complex(v) for c, v in enumerate(r)} for r in well]
    assert len(kernel_basis(rows, n + 1, "float", TOL)) == 1
    rows.append({n: 1e-9})
    with pytest.raises(RankAmbiguityError):
        kernel_basis(rows, n + 1, "float", TOL)


FLOATS = st.one_of(
    st.integers(-3, 3).filter(bool).map(float),
    st.floats(-3, 3).filter(lambda x: abs(x) > 1e-3),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=3,
                       allow_nan=False, allow_infinity=False),
)


def solve_or_message(call, *args):
    """``call(*args)``, or the message of the ``RankAmbiguityError`` it
    raises."""
    try:
        return call(*args)
    except RankAmbiguityError as exc:
        return str(exc)


@settings(max_examples=120, deadline=None)
@given(planted_systems(FLOATS))
def test_float_solve_matches_the_per_block_reference(system):
    rows, ncols, _ = system
    reference = solve_or_message(float_block_solve_reference, rows, ncols, TOL)
    basis = solve_or_message(kernel_basis, rows, ncols, "float", TOL)
    if isinstance(reference, str):
        assert basis == reference
        return
    dim, ref_basis = reference
    assert dim == len(ref_basis) == len(basis)
    for vec, ref in zip(basis, ref_basis):
        # same support, listed in the same order
        assert list(vec) == list(ref)
        assert all(abs(vec[c] - ref[c]) <= 1e-12 for c in vec)


def test_first_ambiguous_block_in_component_order_is_named():
    # blocks of columns {0}, {1, 2} and {3}: the 1x1 blocks form the first
    # shape group and the ambiguous {3} is in it, but the 2x2 block {1, 2},
    # whose singular values are 3e-9 and 1e-9, comes first in component order
    rows = [{0: 1.0}, {1: 2e-9, 2: 1e-9}, {1: 1e-9, 2: 2e-9}, {3: 2e-9}]
    expected = solve_or_message(float_block_solve_reference, rows, 4, TOL)
    assert expected.startswith("singular value 3.000000e-09 ")
    assert solve_or_message(kernel_basis, rows, 4, "float", TOL) == expected


def near(v, how):
    """v moved by one ulp (in its imaginary part when that is nonzero), or
    with the sign of its zero imaginary part flipped: equal to v or nearly,
    but not bitwise."""
    v = complex(v)
    if how == "ulp":
        if v.imag:
            return complex(v.real, np.nextafter(v.imag, np.inf))
        return complex(np.nextafter(v.real, np.inf), v.imag)
    if v.imag:
        return complex(v.real, np.nextafter(v.imag, -np.inf))
    return complex(v.real, -0.0)


@st.composite
def systems_with_copies(draw):
    """A planted float system, then copies of some of its groups on new
    columns that keep the group's column order and its rows' order: exact
    copies, whose blocks are bitwise the original's, and near copies with
    one entry changed by ``near``."""
    rows, ncols, groups = draw(planted_systems(FLOATS))
    for group in draw(st.lists(st.sampled_from(groups), max_size=4)):
        new_col = {c: ncols + i for i, c in enumerate(sorted(group))}
        ncols += len(group)
        copied = [{new_col[c]: complex(v) for c, v in row.items()}
                  for row in rows if next(iter(row)) in new_col]
        how = draw(st.sampled_from(["exact", "ulp", "negative zero"]))
        if copied and how != "exact":
            row = draw(st.sampled_from(copied))
            c = draw(st.sampled_from(sorted(row)))
            row[c] = near(row[c], how)
        rows = rows + copied
    return rows, ncols


def solve_each_block_alone(rows, ncols):
    """``kernel_basis`` of each block of ``components`` in a call of its
    own, vectors in global columns; or the message of the first block, in
    block order, that raises ``RankAmbiguityError``."""
    bases, dim = [], 0
    for cols, block in components(rows, ncols):
        basis = solve_or_message(kernel_basis, block, len(cols), "float", TOL)
        if isinstance(basis, str):
            return basis
        bases.append([{cols[c]: x for c, x in vec.items()} for vec in basis])
        dim += len(basis)
    return dim, bases


@settings(max_examples=120, deadline=None)
@given(systems_with_copies())
def test_float_copies_give_bitwise_the_solve_of_each_block_alone(system):
    rows, ncols = system
    expected = solve_each_block_alone(rows, ncols)
    basis = solve_or_message(kernel_basis, rows, ncols, "float", TOL)
    if isinstance(expected, str):
        assert basis == expected
        return
    dim, bases = expected
    assert dim == len(basis)
    # each block's vectors, in the order of the whole system's basis; repr
    # tells -0.0 from 0.0 and prints every float exactly
    block_of = {c: b for b, (cols, _) in enumerate(components(rows, ncols)) for c in cols}
    found = [[] for _ in bases]
    for vec in basis:
        found[block_of[next(iter(vec))]].append(vec)
    assert repr(found) == repr(bases)


def test_float_copies_of_a_block_each_take_their_own_svd(monkeypatch):
    # six 2x2 blocks: an invertible one, an exact copy, a copy one ulp away,
    # a copy whose zero imaginary part is -0.0, and a singular block twice;
    # each block, copies too, takes one SVD of its own shape
    block = [{0: 1.0, 1: 2.0}, {0: 3.0 + 0j, 1: 4.0}]
    singular = [{0: 1.0, 1: 2.0}, {0: 2.0, 1: 4.0}]
    copies = [block, block, [{0: near(1.0, "ulp"), 1: 2.0}, block[1]],
              [block[0], {0: near(3.0, "negative zero"), 1: 4.0}], singular, singular]
    rows = [{2 * b + c: v for c, v in row.items()} for b, copy in enumerate(copies)
            for row in copy]
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert len(kernel_basis(rows, 12, "float", TOL)) == 2
    first, second = kernel_basis(rows, 12, "float", TOL)
    assert shapes == [(2, 2)] * 12
    # the two singular blocks get bitwise the same vector, on their own columns
    assert list(first) == [8, 9] and list(second) == [10, 11]
    assert repr(list(first.values())) == repr(list(second.values()))


@pytest.mark.parametrize(
    "order",
    [["fine", "copied", "other", "fine", "copied"],
     ["fine", "other", "copied", "fine", "copied"]],
    ids=["copy-first", "other-first"],
)
def test_first_ambiguous_block_is_named_when_blocks_repeat(order):
    # 1x1 blocks: "copied" (singular value 3e-9) at two positions and
    # "other" (2e-9), both in the ambiguity band around the cut-off 1e-9,
    # and a well-conditioned "fine" block, also repeated
    value = {"fine": 1.0, "copied": 3e-9, "other": 2e-9}
    rows = [{c: value[name]} for c, name in enumerate(order)]
    expected = solve_or_message(float_block_solve_reference, rows, len(rows), TOL)
    first = next(name for name in order if name != "fine")
    assert expected.startswith(f"singular value {value[first]:.6e} ")
    assert solve_or_message(kernel_basis, rows, len(rows), "float", TOL) == expected


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
    T = power_symbol(p, mode="float")
    ncols = p.d * p.d
    first = kernel_basis(_commutation_rows(T), ncols, "float", TOL)
    assert kernel_basis(_commutation_rows(T), ncols, "float", TOL) == first
    reference = whole_system_kernel_float(commutation_rows_reference(T), ncols, TOL)
    assert len(first) == len(reference) == p.r * p.r * p.K
    for vec, ref in zip(first, reference):
        dense = np.zeros(ncols, dtype=complex)
        for c, v in vec.items():
            dense[c] = v
        assert np.allclose(dense, ref, atol=1e-12)


def test_float_rank_requires_tol():
    with pytest.raises(ValueError):
        kernel_basis([{0: 1.0}], 1, "float", None)
    with pytest.raises(ValueError):
        kernel_basis([{0: 1.0}], 1, "float", 0.0)
    # with tol >= 1 the cut-off tol * max(1, top) leaves no singular value
    for tol in (1.0, 5.0):
        with pytest.raises(ValueError):
            kernel_basis([{0: 1.0}], 1, "float", tol)

