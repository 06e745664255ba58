"""Tests for the explicit two-generator complex with a generic scalar."""

from fractions import Fraction

import pytest

from tatehh import QQ, PrimeField, codim2_algebra, twisted_bimodule
from tatehh.codim2_complex import (
    DeltaComplex,
    KScalarTable,
    expected_kernel_dim,
)
from tatehh.hochschild_bar import BarWindowRequest, hh_homology_dims


def generic_algebra(a=2, b=2, q=Fraction(2)):
    return codim2_algebra(QQ, a, b, q)


class TestKScalars:
    def test_frozen_examples(self):
        table = KScalarTable(generic_algebra(2, 2, Fraction(2)))
        # K_4(1,1,0,0) = q^b - 1, K_5(t,0,0,0) = q^{1-a} - 1, K_3(1,1,0,0) = q - q^{1-a}
        assert table.k_scalar(4, 1, 1, 0, 0) == Fraction(3)
        assert table.k_scalar(5, 1, 0, 0, 0) == Fraction(-1, 2)
        assert table.k_scalar(5, 4, 0, 0, 0) == Fraction(-1, 2)
        assert table.k_scalar(3, 1, 1, 0, 0) == Fraction(3, 2)

    def test_frozen_examples_other_shape(self):
        q = Fraction(3)
        table = KScalarTable(generic_algebra(3, 2, q))
        assert table.k_scalar(4, 1, 1, 0, 0) == q**2 - 1
        assert table.k_scalar(5, 2, 0, 0, 0) == q**-2 - 1
        assert table.k_scalar(3, 1, 1, 0, 0) == q - q**-2

    @pytest.mark.parametrize("m,t,i", [
        (1, 1, 1),   # needs i even
        (2, 1, 3),   # even but too large
        (2, 1, 4),
        (3, 1, 2),   # needs i odd
        (4, 1, 3),   # odd but exceeds 2t-1
        (7, 1, 0),
        (8, 1, 5),   # exceeds 2t+1
    ])
    def test_side_condition_errors(self, m, t, i):
        table = KScalarTable(generic_algebra())
        with pytest.raises(ValueError, match=f"K_{m}"):
            table.k_scalar(m, t, i, 0, 0)

    def test_unknown_index_and_negative_parameters(self):
        table = KScalarTable(generic_algebra())
        with pytest.raises(ValueError, match="K_9"):
            table.k_scalar(9, 1, 0, 0, 0)
        with pytest.raises(ValueError, match="non-negative"):
            table.k_scalar(1, 1, 0, -1, 0)

    def test_geometric_sums_match_closed_form(self):
        q = Fraction(5, 3)
        table = KScalarTable(generic_algebra(3, 4, q))
        a, b = 3, 4
        t, i, u, v = 2, 2, 1, 1
        e = a + a * i // 2 + v - 1
        assert table.k_scalar(1, t, i, u, v) == \
            q**(a + b - a * b - 1) * sum(q**(j * e) for j in range(b))
        e = b * t + b - b * i // 2 + u
        assert table.k_scalar(6, t, i, u, v) == sum(q**(j * e) for j in range(a))


class TestGates:
    def test_prime_field_refused(self):
        A = codim2_algebra(PrimeField(5), 2, 2, 2)
        with pytest.raises(ValueError, match="root of unity"):
            DeltaComplex(A, 3)

    def test_rational_root_of_unity_refused(self):
        for q in (Fraction(1), Fraction(-1)):
            with pytest.raises(ValueError, match="root of unity"):
                KScalarTable(generic_algebra(2, 2, q))

    def test_three_generators_refused(self):
        from tatehh import QciAlgebra
        two = Fraction(2)
        q = [[Fraction(1), two, two],
             [Fraction(1, 2), Fraction(1), two],
             [Fraction(1, 2), Fraction(1, 2), Fraction(1)]]
        A = QciAlgebra(QQ, (2, 2, 2), q)
        with pytest.raises(ValueError, match="two generators"):
            DeltaComplex(A, 3)


class TestDeltaComplex:
    @pytest.mark.parametrize("a,b,q", [
        (2, 2, Fraction(2)),
        (3, 2, Fraction(2)),
        (2, 3, Fraction(1, 2)),
        (3, 3, Fraction(2)),
        (4, 3, Fraction(3)),
        (2, 4, Fraction(5, 3)),
    ])
    def test_compositions_vanish(self, a, b, q):
        # the window constructor checks every consecutive composition
        DeltaComplex(generic_algebra(a, b, q), 6)

    def test_space_dimensions(self):
        complex_ = DeltaComplex(generic_algebra(3, 2), 5)
        assert complex_.window.spaces == {n: (n + 1) * 6 for n in range(6)}

    def test_frozen_kernel_dimensions(self):
        complex_ = DeltaComplex(generic_algebra(2, 2), 2)
        assert [complex_.kernel_dim(n) for n in (1, 2)] == [5, 7]
        assert DeltaComplex(generic_algebra(3, 2), 3).kernel_dim(3) == 13

    @pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (2, 4),
                                     (3, 2), (3, 3), (3, 4),
                                     (4, 2), (4, 3), (4, 4)])
    def test_kernel_dimensions_match_closed_count(self, a, b):
        A = generic_algebra(a, b, Fraction(2))
        upto = 8 if a * b <= 6 else 5
        complex_ = DeltaComplex(A, upto)
        assert [complex_.kernel_dim(n) for n in range(1, upto + 1)] == \
            [expected_kernel_dim(A, n) for n in range(1, upto + 1)]

    @pytest.mark.parametrize("a,b,q,upto", [
        (2, 2, Fraction(2), 6),
        (3, 2, Fraction(3), 5),
        (2, 3, Fraction(1, 2), 5),
    ])
    def test_twisted_homology_vanishes(self, a, b, q, upto):
        A = generic_algebra(a, b, q)
        complex_ = DeltaComplex(A, upto)
        assert [complex_.homology_dim(n) for n in range(1, upto)] == \
            [0] * (upto - 1)

    def test_degree_bound_validated(self):
        with pytest.raises(ValueError, match="differential"):
            DeltaComplex(generic_algebra(), 0)


class TestBarAgreement:
    @pytest.mark.parametrize("a,b,q", [
        (2, 2, Fraction(2)),
        (3, 2, Fraction(2)),
        (2, 2, Fraction(5, 3)),
    ])
    def test_matches_bar_route_in_low_degrees(self, a, b, q):
        A = generic_algebra(a, b, q)
        n_max = 3 if A.dim <= 4 else 2
        twist = twisted_bimodule(A, A.nakayama(-1), A.identity_twist())
        bar = hh_homology_dims(BarWindowRequest(twist, n_max, "homology"))
        complex_ = DeltaComplex(A, n_max + 1)
        delta = [complex_.homology_dim(n) for n in range(1, n_max + 1)]
        assert bar[1:] == delta[:n_max]
