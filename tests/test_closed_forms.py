"""Frozen values and symmetries of the closed-form dimension counts, and the
general lower bound checked against the tables."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tatehh import QQ, PrimeField, QciAlgebra, TateRequest, tate_dims
from tatehh.closed_forms import (
    binom,
    ci_dim,
    codim2_cohomology_dim,
    divides,
    exterior_dim,
)

from oracles import codim2_homology_dim, holm_dim, lower_bound


def test_divides_characteristic_zero_never():
    assert not divides(0, 2)
    assert not divides(0, 12)
    assert divides(2, 4)
    assert not divides(3, 4)


def test_binom_counting_convention():
    assert binom(4, 2) == 6
    assert binom(4, -1) == 0
    assert binom(3, 5) == 0
    assert binom(-1, 0) == 0
    assert binom(-2, -2) == 0


def test_holm_dim_cases():
    assert holm_dim(2, 0, 0) == 2
    assert holm_dim(2, 2, 5) == 2
    assert holm_dim(3, 2, 4) == 2
    assert holm_dim(5, 5, 1) == 5
    assert holm_dim(5, 3, 1) == 4
    with pytest.raises(ValueError):
        holm_dim(1, 0, 0)
    with pytest.raises(ValueError):
        holm_dim(2, 0, -1)


def test_ci_dim_frozen_values():
    assert ci_dim(2, 2, 0, 0) == 3
    assert ci_dim(2, 2, 0, 2) == 5
    assert ci_dim(2, 2, 2, 3) == 16
    # two square-zero variables over the rationals: 3, 4, 5, 6, ...
    assert [ci_dim(2, 2, 0, n) for n in range(4)] == [3, 4, 5, 6]
    # same algebra in characteristic 2: 4(n+1)
    assert [ci_dim(2, 2, 2, n) for n in range(4)] == [4, 8, 12, 16]
    # in positive degrees one generator reduces to the one-variable count;
    # in degree 0 the stable count drops below the ordinary one by the
    # projective contribution (a^c - 1 versus a when p does not divide a)
    for n in range(1, 5):
        for a in (2, 3, 4):
            for p in (0, 2, 3):
                assert ci_dim(1, a, p, n) == holm_dim(a, p, n)
    assert ci_dim(1, 2, 0, 0) == 1
    assert ci_dim(1, 2, 2, 0) == 2


def test_exterior_dim_frozen_values():
    assert exterior_dim(2, 3, 0) == 2
    assert exterior_dim(3, 0, 2) == 24
    assert exterior_dim(2, 2, 1) == 8
    assert [exterior_dim(2, 3, n) for n in range(3)] == [2, 4, 6]
    assert [exterior_dim(3, 2, n) for n in range(3)] == [8, 24, 48]


def test_exterior_matches_ci_in_characteristic_two():
    # over GF(2) the exterior algebra is the commutative square-zero algebra
    for c in (1, 2, 3):
        for n in range(5):
            assert exterior_dim(c, 2, n) == ci_dim(c, 2, 2, n)


def test_lower_bound_cases():
    assert lower_bound((2, 3), 0, 0) == 3
    assert lower_bound((2, 2), 2, 4) == 4
    assert lower_bound((2, 3), 2, 0) == 4
    assert lower_bound((2, 3), 2, -1) == 4
    assert lower_bound((2, 3), 2, 3) == 4
    assert lower_bound((4, 6), 2, 7) == 10
    assert lower_bound((2,), 0, -5) == 1
    with pytest.raises(ValueError):
        lower_bound((), 0, 0)
    with pytest.raises(ValueError):
        lower_bound((2, 1), 0, 0)


def test_lower_bound_is_positive_everywhere():
    for n in range(-6, 7):
        for p in (0, 2, 3, 5):
            assert lower_bound((2, 2, 3), p, n) >= 1


@st.composite
def bounded_qcis(draw):
    """QCIs with c <= 3 and dim <= 12 over QQ and GF(2, 3, 5, 7), q = +-1
    and other roots of unity included."""
    field = draw(st.sampled_from([QQ] + [PrimeField(p) for p in (2, 3, 5, 7)]))
    exponents = draw(st.sampled_from(
        [(a,) for a in range(2, 7)] +
        [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 3), (2, 2, 2), (2, 2, 3)]))
    units = st.sampled_from([Fraction(v) for v in (1, -1, 2, -3)] +
                            [Fraction(1, 2), Fraction(-5, 3)]) \
        if field.characteristic == 0 else \
        st.integers(1, field.characteristic - 1)
    c = len(exponents)
    q = [[field.one] * c for _ in range(c)]
    for i in range(c):
        for j in range(i + 1, c):
            q[i][j] = draw(units)
            q[j][i] = field.inv(q[i][j])
    return QciAlgebra(field, exponents, q)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(bounded_qcis())
def test_property_regular_homology_meets_lower_bound(A):
    """Every cell of the auto table of regular homology on [-6, 6] is at
    least lower_bound, the published bound for each degree."""
    table = tate_dims(TateRequest(A, -6, 6))
    p = A.field.characteristic
    assert [(e.degree, e.dimension >= lower_bound(A.exponents, p, e.degree))
            for e in table.entries] == [(n, True) for n in range(-6, 7)]


def test_codim2_homology_cases():
    assert codim2_homology_dim(2, 3, 0, 0) == 3
    assert codim2_homology_dim(2, 2, 2, 5) == 4
    assert codim2_homology_dim(2, 3, 3, 2) == 4
    # degree 0/-1 caps the correction at one even when p divides both
    assert codim2_homology_dim(2, 2, 2, 0) == 3
    assert codim2_homology_dim(2, 2, 2, -1) == 3
    assert codim2_homology_dim(3, 3, 3, 4) == 6
    with pytest.raises(ValueError):
        codim2_homology_dim(1, 2, 0, 0)


def test_codim2_homology_palindrome():
    for a in (2, 3, 4):
        for b in (2, 3):
            for p in (0, 2, 3):
                for n in range(-6, 6):
                    assert codim2_homology_dim(a, b, p, n) == \
                        codim2_homology_dim(a, b, p, -(n + 1))


def test_codim2_cohomology_values_and_asymmetry():
    assert codim2_cohomology_dim(0) == 1
    assert codim2_cohomology_dim(1) == 2
    assert codim2_cohomology_dim(2) == 1
    assert codim2_cohomology_dim(-3) == 0
    assert codim2_cohomology_dim(3) == 0
    assert codim2_cohomology_dim(-1) == 0
    # cohomology is not palindromic about -1/2: degree 1 vs degree -2
    assert codim2_cohomology_dim(1) != codim2_cohomology_dim(-2)
    assert codim2_cohomology_dim(0) != codim2_cohomology_dim(-1)
