"""Bar-complex dimensions against published values, duality, and formulas."""

from fractions import Fraction

import pytest

from tatehh.closed_forms import ci_dim, exterior_dim
from tatehh.exact_field import QQ, PrimeField
from tatehh.hochschild_bar import (
    BarWindow,
    BarWindowRequest,
    BudgetExceeded,
    boundary_matrix,
    coboundary_matrix,
    hh_cohomology_dims,
    hh_homology_dims,
)
from tatehh.qci_algebra import (
    codim2_algebra,
    dual_bimodule,
    exterior_algebra,
    truncated_polynomial_algebra,
    twisted_bimodule,
)

from oracles import center_dim, commutator_space_dim, regular_bimodule


def homology(B, n_max, budget=5_000_000):
    return hh_homology_dims(BarWindowRequest(B, n_max, "homology", budget))


def cohomology(B, n_max, budget=5_000_000):
    return hh_cohomology_dims(BarWindowRequest(B, n_max, "cohomology", budget))


def test_request_validation():
    B = regular_bimodule(truncated_polynomial_algebra(QQ, (2,)))
    with pytest.raises(ValueError):
        BarWindowRequest(B, -1, "homology")
    with pytest.raises(ValueError):
        BarWindowRequest(B, 1, "sideways")
    with pytest.raises(ValueError):
        hh_homology_dims(BarWindowRequest(B, 1, "cohomology"))
    with pytest.raises(ValueError):
        hh_cohomology_dims(BarWindowRequest(B, 1, "homology"))


@pytest.mark.parametrize("name, value", [
    ("n_max", True), ("n_max", 1.0), ("budget", 10.5)])
def test_request_and_window_take_int_fields_only(name, value):
    """n_max=True would serve degrees 0..1, n_max=1.0 fail inside range, and
    budget=10.5 be reported as "budget is 10.5"."""
    B = regular_bimodule(codim2_algebra(QQ, 2, 3, Fraction(2)))
    fields = {"n_max": 1, "budget": 10_000, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        BarWindowRequest(B, fields["n_max"], "homology", fields["budget"])
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        BarWindow(B, fields["n_max"], "homology", fields["budget"])


def test_budget_error_names_first_unaffordable_degree():
    A = truncated_polynomial_algebra(QQ, (2, 2))
    B = regular_bimodule(A)
    with pytest.raises(BudgetExceeded) as info:
        homology(B, 3, budget=100)
    assert info.value.degree == 2
    assert "degree 2" in str(info.value)
    assert info.value.needed == 4 * 4 ** 3


def test_dual_numbers_char2_homology_window():
    A = truncated_polynomial_algebra(PrimeField(2), (2,))
    B = regular_bimodule(A)
    assert homology(B, 3) == [2, 2, 2, 2]
    assert cohomology(B, 3) == [2, 2, 2, 2]


def test_dual_numbers_rational_cohomology():
    A = truncated_polynomial_algebra(QQ, (2,))
    B = regular_bimodule(A)
    assert cohomology(B, 3) == [2, 1, 1, 1]
    assert homology(B, 3) == [2, 1, 1, 1]


def test_degree_zero_homology_is_commutator_quotient():
    algebras = [
        truncated_polynomial_algebra(QQ, (2, 2)),
        exterior_algebra(QQ, 2),
        codim2_algebra(QQ, 3, 2, Fraction(2)),
        exterior_algebra(PrimeField(3), 2),
    ]
    for A in algebras:
        got = homology(regular_bimodule(A), 0)[0]
        assert got == A.dim - commutator_space_dim(A)


def test_degree_zero_cohomology_is_centre():
    algebras = [
        truncated_polynomial_algebra(QQ, (2, 2)),
        exterior_algebra(QQ, 2),
        codim2_algebra(QQ, 2, 2, Fraction(2)),
        exterior_algebra(PrimeField(3), 2),
    ]
    for A in algebras:
        got = cohomology(regular_bimodule(A), 0)[0]
        assert got == center_dim(A)
    # the commutative square on two generators is its own centre
    A = truncated_polynomial_algebra(QQ, (2, 2))
    assert cohomology(regular_bimodule(A), 0)[0] == 4


def test_codim2_regular_cohomology_window():
    A = codim2_algebra(QQ, 2, 2, Fraction(2))
    assert cohomology(regular_bimodule(A), 3) == [2, 2, 1, 0]


def test_codim2_inverse_nakayama_twist_homology_vanishes():
    A = codim2_algebra(QQ, 2, 2, Fraction(2))
    B = twisted_bimodule(A, A.nakayama(-1), None)
    assert homology(B, 3)[1:] == [0, 0, 0]
    A2 = codim2_algebra(QQ, 3, 2, Fraction(2))
    B2 = twisted_bimodule(A2, A2.nakayama(-1), None)
    assert homology(B2, 2)[1:] == [0, 0]


def test_boundary_squares_to_zero_with_twists():
    A = codim2_algebra(QQ, 2, 2, Fraction(3))
    B = twisted_bimodule(A, (Fraction(2), Fraction(5)),
                         (Fraction(-1), Fraction(1, 2)))
    for n in (2, 3):
        assert boundary_matrix(B, n - 1).compose(boundary_matrix(B, n)).is_zero()
        assert coboundary_matrix(B, n - 1).compose(
            coboundary_matrix(B, n - 2)).is_zero()


DUALITY_CASES = [
    ("regular", truncated_polynomial_algebra(QQ, (2,))),
    ("regular", exterior_algebra(QQ, 2)),
    ("regular", codim2_algebra(QQ, 3, 2, Fraction(2))),
    ("nakayama", codim2_algebra(QQ, 3, 2, Fraction(2))),
    ("inverse", codim2_algebra(QQ, 2, 2, Fraction(2))),
    ("nakayama", exterior_algebra(PrimeField(3), 2)),
]


@pytest.mark.parametrize("twist,A", DUALITY_CASES,
                         ids=[f"{t}-{A!r}" for t, A in DUALITY_CASES])
def test_cohomology_equals_homology_of_dual(twist, A):
    """Cochain dimensions with coefficients B match chain dimensions in D(B)."""
    power = {"regular": 0, "nakayama": 1, "inverse": -1}[twist]
    B = twisted_bimodule(A, A.nakayama(power), None) if power else \
        regular_bimodule(A)
    n_max = 3 if A.dim <= 4 else 2
    assert cohomology(B, n_max) == homology(dual_bimodule(B), n_max)


def test_positive_degrees_match_exterior_formula():
    for field, p in ((QQ, 0), (PrimeField(2), 2), (PrimeField(3), 3)):
        for c in (1, 2):
            dims = homology(regular_bimodule(exterior_algebra(field, c)), 3)
            for n in range(1, 4):
                assert dims[n] == exterior_dim(c, p, n)


def test_positive_degrees_match_ci_formula():
    for field, p in ((QQ, 0), (PrimeField(2), 2), (PrimeField(3), 3)):
        for c, a in ((1, 2), (1, 3), (2, 2)):
            A = truncated_polynomial_algebra(field, (a,) * c)
            n_max = 4 if A.dim <= 3 else 3
            dims = homology(regular_bimodule(A), n_max)
            for n in range(1, n_max + 1):
                assert dims[n] == ci_dim(c, a, p, n)


def test_homology_and_cohomology_agree_for_symmetric_algebras():
    # commutative equal-exponent algebras are symmetric: self-dual coefficients
    for A in (truncated_polynomial_algebra(QQ, (3,)),
              truncated_polynomial_algebra(PrimeField(3), (3,))):
        B = regular_bimodule(A)
        assert homology(B, 3) == cohomology(B, 3)
