"""Algebra arithmetic against a string-rewriting oracle, plus bimodule laws."""

import random
from fractions import Fraction

import pytest

from tatehh.exact_field import QQ, PrimeField
from tatehh.sparse_linalg import SparseMatrix
from tatehh.qci_algebra import (
    Bimodule,
    QciAlgebra,
    codim2_algebra,
    dual_bimodule,
    exterior_algebra,
    regular_bimodule,
    truncated_polynomial_algebra,
    twisted_bimodule,
)

from oracles import columns, equal_actions, frobenius_functional, \
    has_equal_exponents, is_commutative, is_exterior, left_apply, mat_mul, \
    multiply, oracle_multiply, retwist, right_apply, twist_apply, \
    twist_compose, twist_inverse, twist_pow


def sample_algebras():
    return [
        truncated_polynomial_algebra(QQ, (2,)),
        truncated_polynomial_algebra(QQ, (2, 3)),
        truncated_polynomial_algebra(PrimeField(2), (2, 2)),
        exterior_algebra(QQ, 2),
        exterior_algebra(PrimeField(3), 3),
        codim2_algebra(QQ, 3, 2, Fraction(2)),
        codim2_algebra(PrimeField(7), 2, 2, 3),
    ]


def test_constructor_validation():
    with pytest.raises(ValueError):
        QciAlgebra(QQ, (), [])
    with pytest.raises(ValueError):
        QciAlgebra(QQ, (1,), [[QQ.one]])
    with pytest.raises(ValueError):
        QciAlgebra(QQ, (2, 2), [[QQ.one]])
    q_bad_diag = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    with pytest.raises(ValueError, match=r"q\[0\]\[0\]"):
        QciAlgebra(QQ, (2, 2), q_bad_diag)
    q_bad_inv = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]]
    with pytest.raises(ValueError, match=r"q\[0\]\[1\]"):
        QciAlgebra(QQ, (2, 2), q_bad_inv)
    q_zero = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    with pytest.raises(ValueError):
        QciAlgebra(QQ, (2, 2), q_zero)


def test_monomial_indexing_first_generator_fastest():
    A = truncated_polynomial_algebra(QQ, (2, 3))
    assert A.dim == 6
    assert A.monomial_index((0, 0)) == 0
    assert A.monomial_index((1, 0)) == 1
    assert A.monomial_index((0, 1)) == 2
    assert A.monomial_index((1, 2)) == 5
    for idx in range(A.dim):
        assert A.monomial_index(A.monomial_exps(idx)) == idx
    assert A.top_index == A.dim - 1
    assert A.monomial_exps(A.top_index) == (1, 2)
    assert A.generator_index(1) == 1
    assert A.generator_index(2) == 2


def test_codim2_commutation_normal_form():
    q = Fraction(2)
    A = codim2_algebra(QQ, 3, 2, q)
    # x * y reorders to q * (y x)
    assert A.multiply_monomials((1, 0), (0, 1)) == (q, (1, 1))
    # y * x is already normal
    assert A.multiply_monomials((0, 1), (1, 0)) == (QQ.one, (1, 1))
    # nilpotency kills x^3
    assert A.multiply_monomials((2, 0), (1, 0)) is None
    assert A.multiply_monomials((2, 1), (1, 1)) is None


def test_exterior_signs():
    E = exterior_algebra(QQ, 2)
    assert E.multiply_monomials((1, 0), (0, 1)) == (Fraction(-1), (1, 1))
    assert E.multiply_monomials((0, 1), (1, 0)) == (QQ.one, (1, 1))
    assert E.multiply_monomials((1, 0), (1, 0)) is None


@pytest.mark.parametrize("A", sample_algebras(), ids=lambda A: repr(A))
def test_multiply_matches_rewriting_oracle(A):
    for i in range(A.dim):
        ei = A.monomial_exps(i)
        for j in range(A.dim):
            got = A.multiply_monomials(ei, A.monomial_exps(j))
            want = oracle_multiply(A, ei, A.monomial_exps(j))
            assert got == want


def test_random_q_matrices_match_oracle():
    rng = random.Random(1729)
    F = PrimeField(11)
    for _ in range(10):
        c = rng.choice([2, 3])
        exponents = tuple(rng.choice([2, 3]) for _ in range(c))
        q = [[F.one] * c for _ in range(c)]
        for i in range(c):
            for j in range(i + 1, c):
                val = F.of_int(rng.randrange(1, 11))
                q[i][j] = val
                q[j][i] = F.inv(val)
        A = QciAlgebra(F, exponents, q)
        for i in range(A.dim):
            for j in range(A.dim):
                ei, ej = A.monomial_exps(i), A.monomial_exps(j)
                assert A.multiply_monomials(ei, ej) == oracle_multiply(A, ei, ej)


@pytest.mark.parametrize("A", sample_algebras()[:5], ids=lambda A: repr(A))
def test_associativity_on_basis(A):
    for i in range(A.dim):
        u = {i: A.field.one}
        for j in range(A.dim):
            v = {j: A.field.one}
            for k in range(A.dim):
                w = {k: A.field.one}
                assert multiply(A, multiply(A, u, v), w) == multiply(A, u, multiply(A, v, w))


def test_element_multiply_cancellation():
    A = truncated_polynomial_algebra(QQ, (2,))
    one, x = {0: QQ.one}, {1: QQ.one}
    u = {0: QQ.one, 1: QQ.one}
    v = {0: QQ.one, 1: Fraction(-1)}
    assert multiply(A, u, v) == one
    assert multiply(A, x, x) == {}


def test_frobenius_functional_picks_socle():
    A = codim2_algebra(QQ, 3, 2, Fraction(2))
    u = {A.top_index: Fraction(5), 0: Fraction(7)}
    assert frobenius_functional(A, u) == 5
    assert frobenius_functional(A, {0: Fraction(7)}) == 0


def test_nakayama_codim2():
    q = Fraction(2)
    A = codim2_algebra(QQ, 3, 2, q)
    # x scales by q^(1-b), y by q^(a-1)
    assert A.nakayama() == (Fraction(1, 2), Fraction(4))
    assert A.nakayama(-1) == (Fraction(2), Fraction(1, 4))
    assert A.nakayama(0) == A.identity_twist()


def test_nakayama_exterior():
    E = exterior_algebra(QQ, 3)
    assert E.nakayama() == (QQ.one, QQ.one, QQ.one)
    E2 = exterior_algebra(QQ, 2)
    assert E2.nakayama() == (Fraction(-1), Fraction(-1))


def test_twist_helpers():
    A = codim2_algebra(QQ, 2, 2, Fraction(3))
    f = (Fraction(2), Fraction(-1))
    g = (Fraction(1, 2), Fraction(3))
    assert twist_compose(A, f, twist_inverse(A, f)) == A.identity_twist()
    assert twist_pow(A, f, 3) == (Fraction(8), Fraction(-1))
    assert twist_apply(A, f, (1, 1)) == -2
    with pytest.raises(ValueError):
        A.validate_twist((Fraction(1),))
    with pytest.raises(ValueError):
        A.validate_twist((Fraction(0), Fraction(1)))


def test_classification_predicates():
    assert is_commutative(truncated_polynomial_algebra(QQ, (2, 3)))
    assert not is_commutative(exterior_algebra(QQ, 2))
    assert is_exterior(exterior_algebra(QQ, 2))
    assert is_exterior(exterior_algebra(PrimeField(2), 3))
    # over GF(2) the commutative square-zero algebra is exterior
    assert is_exterior(truncated_polynomial_algebra(PrimeField(2), (2, 2)))
    assert not is_exterior(truncated_polynomial_algebra(QQ, (2, 2)))
    assert not has_equal_exponents(codim2_algebra(QQ, 3, 2, Fraction(2)))
    assert has_equal_exponents(exterior_algebra(QQ, 3))


# ---------------------------------------------------------------------------
# bimodules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("A", sample_algebras(), ids=lambda A: repr(A))
def test_regular_bimodule_matches_algebra_product(A):
    B = regular_bimodule(A)
    for i in range(A.dim):
        u = {i: A.field.one}
        for j in range(A.dim):
            v = {j: A.field.one}
            assert left_apply(B, u, v) == multiply(A, u, v)
            assert right_apply(B, u, v) == multiply(A, u, v)


def test_twisted_bimodule_scales_generator_actions():
    A = codim2_algebra(QQ, 3, 2, Fraction(2))
    f = (Fraction(5), Fraction(7))
    g = (Fraction(-1), Fraction(1, 3))
    B = twisted_bimodule(A, f, g)
    for w in range(1, A.c + 1):
        gen = {A.generator_index(w): QQ.one}
        for j in range(A.dim):
            v = {j: QQ.one}
            plain = multiply(A, gen, v)
            twisted = {k: QQ.mul(f[w - 1], c) for k, c in plain.items()}
            assert left_apply(B, gen, v) == twisted
            plain = multiply(A, v, gen)
            twisted = {k: QQ.mul(g[w - 1], c) for k, c in plain.items()}
            assert right_apply(B, v, gen) == twisted


def test_bimodule_validation_rejects_broken_actions():
    A = exterior_algebra(QQ, 2)
    B = regular_bimodule(A)
    # identity as a left action is not nilpotent
    bad_left = [SparseMatrix.identity(QQ, A.dim), B.left[1]]
    with pytest.raises(ValueError, match="nilpote"):
        Bimodule(A, bad_left, B.right)
    # with q = 2 the two left generator actions cannot be swapped
    C = codim2_algebra(QQ, 3, 2, Fraction(2))
    BC = regular_bimodule(C)
    with pytest.raises(ValueError, match="nilpote|commutation"):
        Bimodule(C, [BC.left[1], BC.left[0]], BC.right)
    # same exponents, asymmetric q: only the commutation check can fire
    D = codim2_algebra(QQ, 2, 2, Fraction(2))
    BD = regular_bimodule(D)
    with pytest.raises(ValueError, match="commutation"):
        Bimodule(D, [BD.left[1], BD.left[0]], BD.right)


def test_bimodule_rejects_malformed_action_shapes():
    A = exterior_algebra(QQ, 2)
    B = regular_bimodule(A)
    # one matrix per generator and side
    with pytest.raises(ValueError, match="one action matrix"):
        Bimodule(A, B.left[:1], B.right)
    with pytest.raises(ValueError, match="one action matrix"):
        Bimodule(A, B.left, B.right + [B.right[0]])
    # every action on the same space
    with pytest.raises(ValueError, match="one shape"):
        Bimodule(A, [B.left[0], SparseMatrix(QQ, 3, 3)], B.right)
    # square actions
    wide = SparseMatrix(QQ, A.dim, A.dim + 1)
    with pytest.raises(ValueError, match="square"):
        Bimodule(A, [wide, wide], [wide, wide])


@pytest.mark.parametrize("A", sample_algebras(), ids=lambda A: repr(A))
def test_dual_bimodule_validates_and_is_involutive(A):
    nu = A.nakayama()
    B = twisted_bimodule(A, nu, None)
    D = dual_bimodule(B)
    assert D.dim == B.dim
    assert equal_actions(dual_bimodule(D), B)


def test_retwist_of_regular_equals_twisted():
    A = codim2_algebra(PrimeField(7), 2, 2, 3)
    f, g = (2, 4), (3, 5)
    assert equal_actions(retwist(regular_bimodule(A), f, g),
                         twisted_bimodule(A, f, g))


@pytest.mark.parametrize("A", [codim2_algebra(QQ, 3, 2, Fraction(2)),
                               exterior_algebra(QQ, 2)],
                         ids=lambda A: repr(A))
def test_twist_shift_isomorphism(A):
    """(f, g)-twist is isomorphic to the (f g^{-1}, 1)-twist.

    The intertwiner is diagonal, scaling the monomial with exponents e by
    the product of g_w^{-e_w}.
    """
    field = A.field
    f = tuple(field.of_int(k + 2) for k in range(A.c))
    g = tuple(field.of_int(3 * k + 5) for k in range(A.c))
    src = twisted_bimodule(A, f, g)
    tgt = twisted_bimodule(A, twist_compose(A, f, twist_inverse(A, g)), None)
    phi = [{j: twist_apply(A, twist_inverse(A, g), A.monomial_exps(j))}
           for j in range(A.dim)]
    for w in range(A.c):
        assert mat_mul(field, phi, columns(src.left[w])) == \
            mat_mul(field, columns(tgt.left[w]), phi)
        assert mat_mul(field, phi, columns(src.right[w])) == \
            mat_mul(field, columns(tgt.right[w]), phi)
