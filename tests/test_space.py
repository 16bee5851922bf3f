import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardyshift import GaussianRational, TruncationParams
from hardyshift.errors import ShapeError

from helpers import (
    SWEEP,
    basis_vector,
    flat_index,
    inner_product,
    norm,
    norm_squared,
    rand_vector,
    unflat_index,
    vector_of,
    zero_vector,
)


def test_params_derived_sizes():
    p = TruncationParams(2, 3, 4)
    assert p.N == 12
    assert p.d == 24
    assert p.r == 6


def test_params_validation():
    with pytest.raises(ValueError):
        TruncationParams(0, 1, 1)
    with pytest.raises(ValueError):
        TruncationParams(1, -2, 1)
    with pytest.raises(ValueError):
        TruncationParams(1, 1, 0)


def test_flat_index_examples():
    p = TruncationParams(2, 2, 3)
    assert flat_index(1, 0, p) == 0
    assert flat_index(2, 0, p) == 1
    assert flat_index(1, 1, p) == 2
    assert flat_index(1, 3, p) == 6
    assert flat_index(2, 5, p) == 11


def test_flat_index_bounds():
    p = TruncationParams(2, 2, 2)
    with pytest.raises(IndexError):
        flat_index(0, 0, p)
    with pytest.raises(IndexError):
        flat_index(3, 0, p)
    with pytest.raises(IndexError):
        flat_index(1, 4, p)
    with pytest.raises(IndexError):
        unflat_index(8, p)
    with pytest.raises(IndexError):
        unflat_index(-1, p)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_flat_unflat_round_trip(m, n, K, data):
    p = TruncationParams(m, n, K)
    f = data.draw(st.integers(min_value=0, max_value=p.d - 1))
    idx = unflat_index(f, p)
    assert flat_index(idx.i, idx.p, p) == f


def test_basis_orthonormality():
    p = TruncationParams(2, 2, 2)
    vecs = [basis_vector(i, q, p) for q in range(p.N) for i in (1, 2)]
    for a, u in enumerate(vecs):
        for b, v in enumerate(vecs):
            expected = GaussianRational(1 if a == b else 0)
            assert inner_product(u, v) == expected


def test_inner_product_sesquilinearity():
    p = TruncationParams(1, 1, 2)
    f = vector_of([GaussianRational(1, 1), GaussianRational(2)])
    g = vector_of([GaussianRational(0, 1), GaussianRational(1, -1)])
    s = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    scaled_f = vector_of([s * e for e in f.entries])
    scaled_g = vector_of([s * e for e in g.entries])
    assert inner_product(scaled_f, g) == s * inner_product(f, g)
    assert inner_product(f, scaled_g) == s.conjugate() * inner_product(f, g)
    assert inner_product(f, g) == inner_product(g, f).conjugate()


def test_norm_squared_exact():
    f = vector_of([GaussianRational(Fraction(1, 2)), GaussianRational(0, Fraction(1, 3))])
    assert norm_squared(f) == Fraction(1, 4) + Fraction(1, 9)
    assert isinstance(norm_squared(f), Fraction)
    assert norm(f) == pytest.approx((13 / 36) ** 0.5)


def test_pythagorean_examples():
    p = TruncationParams(2, 1, 2)  # m = 2, N = 2, d = 4
    # coefficient 1 on the second component constant and on the first
    # component degree-one term: two orthonormal directions
    f = vector_of([0, 1, 1, 0])
    assert inner_product(f, f) == GaussianRational(2)
    assert norm_squared(f) == 2
    g = vector_of([3, 0, 0, 4])
    assert norm_squared(g) == 25
    assert norm(g) == 5.0


def test_norm_squared_is_self_pairing():
    rng = random.Random(5)
    for p in [TruncationParams(2, 2, 2), TruncationParams(3, 1, 3)]:
        f = rand_vector(rng, p)
        assert inner_product(f, f) == GaussianRational(norm_squared(f))


def test_parseval_against_basis_expansion():
    rng = random.Random(9)
    p = TruncationParams(2, 2, 2)
    f = rand_vector(rng, p)
    # expansion coefficients are exactly the pairings with the basis
    total = Fraction(0)
    for q in range(p.N):
        for i in (1, 2):
            c = inner_product(f, basis_vector(i, q, p))
            total += c.abs2()
    assert total == norm_squared(f)


def test_zero_vector_and_dim():
    p = TruncationParams(2, 3, 2)
    z = zero_vector(p)
    assert z.dim == p.d
    assert norm_squared(z) == 0


def test_mode_and_shape_guards():
    f = vector_of([1, 2])
    g = vector_of([1, 2, 3])
    with pytest.raises(ShapeError):
        inner_product(f, g)
    h = vector_of([1.0, 2.0], mode="float")
    with pytest.raises(TypeError):
        inner_product(f, h)


def test_channel_sizes_over_sweep():
    for p in SWEEP:
        assert p.d == p.r * p.K
