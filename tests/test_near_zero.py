"""The socle-crossing element, its exactness facts, the splice maps' integer
and structural forms, and the degree-0 window."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tatehh import near_zero
from tatehh.cli_reports import _duality_family
from tatehh.closed_forms import ci_dim, exterior_dim, lower_bound
from tatehh.exact_field import QQ, PrimeField, scalar_pow
from tatehh.hochschild_bar import DEFAULT_BUDGET
from tatehh.near_zero import (
    build_s,
    check_exactness_claim,
    d0_matrix_via_s,
    d1_matrix_via_f,
    d1_terms,
    env_dim,
    env_index,
    env_multiply,
    generator_difference,
    norm_scalar,
    splice_dims,
    tate_hh0,
)
from tatehh.qci_algebra import (
    QciAlgebra,
    codim2_algebra,
    exterior_algebra,
    truncated_polynomial_algebra,
)
from tatehh.sparse_linalg import ChainComplexWindow, SparseMatrix
from tatehh.tate_engine import TateRequest, TateWindow, cross_validate, \
    tate_dims

from oracles import multiply, oracle_multiply


def test_build_s_one_variable():
    A = truncated_polynomial_algebra(QQ, (2,))
    # 1 (x) x + x (x) 1
    assert build_s(A) == {env_index(A, 0, 1): QQ.one,
                          env_index(A, 1, 0): QQ.one}


def test_build_s_exterior_two_generators():
    E = exterior_algebra(QQ, 2)
    x1, x2 = E.generator_index(1), E.generator_index(2)
    top = E.top_index
    expected = {
        env_index(E, 0, top): Fraction(1),
        env_index(E, x1, x2): Fraction(1),
        env_index(E, x2, x1): Fraction(-1),
        env_index(E, top, 0): Fraction(1),
    }
    assert build_s(E) == expected


def test_build_s_term_count_and_unit_term():
    for A in (codim2_algebra(QQ, 3, 2, Fraction(2)),
              exterior_algebra(PrimeField(3), 3),
              truncated_polynomial_algebra(QQ, (2, 3))):
        s = build_s(A)
        assert len(s) == A.dim
        assert s[env_index(A, 0, A.top_index)] == A.field.one


def test_env_multiply_conventions():
    A = codim2_algebra(QQ, 2, 2, Fraction(2))
    x, y = A.generator_index(1), A.generator_index(2)
    one = QQ.one
    # tensor legs act independently
    u = {env_index(A, 0, x): one}
    v = {env_index(A, x, 0): one}
    assert env_multiply(A, u, v) == {env_index(A, x, x): one}
    assert env_multiply(A, v, u) == {env_index(A, x, x): one}
    # left leg multiplies in order: x * y = q (y x)
    xy = multiply(A, {x: one}, {y: one})
    ((target, coeff),) = xy.items()
    got = env_multiply(A, {env_index(A, x, 0): one}, {env_index(A, y, 0): one})
    assert got == {env_index(A, target, 0): coeff}
    # right leg multiplies in the opposite order
    got = env_multiply(A, {env_index(A, 0, x): one}, {env_index(A, 0, y): one})
    yx = multiply(A, {y: one}, {x: one})
    ((target2, coeff2),) = yx.items()
    assert got == {env_index(A, 0, target2): coeff2}


def test_env_multiply_associative_on_samples():
    A = exterior_algebra(QQ, 2)
    rng = random.Random(8)
    elems = []
    for _ in range(4):
        elems.append({rng.randrange(env_dim(A)): Fraction(rng.randrange(1, 5))
                      for _ in range(3)})
    for u in elems:
        for v in elems:
            for w in elems:
                lhs = env_multiply(A, env_multiply(A, u, v), w)
                rhs = env_multiply(A, u, env_multiply(A, v, w))
                assert lhs == rhs


def test_generator_difference_annihilates_s_by_hand():
    A = truncated_polynomial_algebra(QQ, (2,))
    assert env_multiply(A, generator_difference(A, 1), build_s(A)) == {}


EXACTNESS_ALGEBRAS = [
    truncated_polynomial_algebra(QQ, (2,)),
    truncated_polynomial_algebra(QQ, (3,)),
    exterior_algebra(QQ, 2),
    exterior_algebra(PrimeField(2), 3),
    exterior_algebra(PrimeField(3), 2),
    codim2_algebra(QQ, 3, 2, Fraction(2)),
    codim2_algebra(QQ, 2, 2, Fraction(1, 2)),
    codim2_algebra(PrimeField(7), 2, 3, 3),
    truncated_polynomial_algebra(PrimeField(5), (2, 2, 2)),
]


@pytest.mark.parametrize("A", EXACTNESS_ALGEBRAS, ids=lambda A: repr(A))
def test_check_exactness_claim_holds(A):
    assert check_exactness_claim(A) is True


def test_d1_is_the_near_zero_rank_example():
    # two generators over Q with q = 2: the first map has rank (a-1)(b-1)
    for a, b in ((2, 2), (3, 2), (3, 3)):
        A = codim2_algebra(QQ, a, b, Fraction(2))
        assert d1_matrix_via_f(A, A.identity_twist()).rank() == \
            (a - 1) * (b - 1)


def test_tate_hh0_frozen_values():
    A = truncated_polynomial_algebra(QQ, (2, 2))
    assert tate_hh0(A, A.identity_twist()) == 3
    for a, b in ((2, 2), (3, 2), (2, 4)):
        C = codim2_algebra(QQ, a, b, Fraction(2))
        assert tate_hh0(C, C.nakayama(1)) == 1
        assert tate_hh0(C, C.nakayama(-1)) == 0
    E = exterior_algebra(PrimeField(2), 3)
    assert tate_hh0(E, E.identity_twist()) == 8


def test_tate_hh0_matches_degree_zero_closed_forms():
    for field, p in ((QQ, 0), (PrimeField(2), 2), (PrimeField(3), 3)):
        for c in (1, 2, 3):
            E = exterior_algebra(field, c)
            assert tate_hh0(E, E.identity_twist()) == exterior_dim(c, p, 0)
            for a in (2, 3):
                A = truncated_polynomial_algebra(field, (a,) * c)
                assert tate_hh0(A, A.identity_twist()) == ci_dim(c, a, p, 0)


def random_spec(rng, field):
    c = rng.choice([1, 2, 3])
    exponents = tuple(rng.choice([2, 3]) for _ in range(c))
    q = [[field.one] * c for _ in range(c)]
    for i in range(c):
        for j in range(i + 1, c):
            while True:
                val = field.of_int(rng.randrange(-6, 7))
                if val != field.zero:
                    break
            q[i][j] = val
            q[j][i] = field.inv(val)
    return QciAlgebra(field, exponents, q)


def test_lower_bound_on_random_family():
    rng = random.Random(424242)
    fields = [(QQ, 0), (PrimeField(2), 2), (PrimeField(3), 3), (PrimeField(5), 5)]
    for _ in range(12):
        field, p = rng.choice(fields)
        A = random_spec(rng, field)
        if A.dim > 36:
            continue
        assert tate_hh0(A, A.identity_twist()) >= lower_bound(A.exponents, p, 0)


def assert_integer_forms_match_structural_maps(A, psi):
    """d1_terms and norm_scalar, the integer forms splice_dims counts,
    equal the structural d1 and d0 entry by entry."""
    literal = sorted((target, idx + A.dim * w, A.scalar(num, den))
                     for w, idx, target, num, den in d1_terms(A, psi))
    assert [entry for entry in literal if entry[2]] == \
        d1_matrix_via_f(A, psi).entries()
    norm = A.scalar(*norm_scalar(A, psi))
    assert d0_matrix_via_s(A, psi).entries() == \
        ([(A.top_index, 0, norm)] if norm else [])


TWIST_COMPARISON_CASES = [
    (truncated_polynomial_algebra(QQ, (2, 2)), "identity"),
    (exterior_algebra(QQ, 2), "nakayama"),
    (exterior_algebra(PrimeField(3), 3), "identity"),
    (codim2_algebra(QQ, 3, 2, Fraction(2)), "nakayama"),
    (codim2_algebra(QQ, 2, 2, Fraction(2)), "inverse"),
    (codim2_algebra(PrimeField(7), 2, 3, 3), "random"),
    (truncated_polynomial_algebra(QQ, (2, 3)), "random"),
]


@pytest.mark.parametrize("A,kind", TWIST_COMPARISON_CASES,
                         ids=[f"{k}-{A!r}" for A, k in TWIST_COMPARISON_CASES])
def test_both_map_routes_agree_entrywise(A, kind):
    """Integer coefficient formulas versus induced enveloping actions."""
    rng = random.Random(11)
    if kind == "identity":
        psi = A.identity_twist()
    elif kind == "nakayama":
        psi = A.nakayama(1)
    elif kind == "inverse":
        psi = A.nakayama(-1)
    else:
        psi = tuple(A.field.of_int(rng.choice([1, 2, 3, -1])) for _ in range(A.c))
    assert_integer_forms_match_structural_maps(A, psi)


# generated QCIs: every c from 2 to 5, dim <= 32
GENERATED_SHAPES = [(2, 2), (3, 2), (2, 4), (3, 3), (4, 4), (2, 8), (8, 4),
                    (2, 2, 2), (2, 3, 2), (3, 2, 4), (2, 2, 8), (3, 3, 3),
                    (2, 2, 2, 2), (2, 3, 2, 2), (2, 2, 2, 4),
                    (2, 2, 2, 2, 2)]
GENERATED_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5),
                    PrimeField(7)]
# +-1 included: over QQ the only roots of unity, over GF(p) every unit is one
GENERATED_QQ_UNITS = [Fraction(v) for v in (1, -1, 2, -2, 3)] + \
    [Fraction(1, 2), Fraction(-3, 5), Fraction(5, 3)]


def units(field):
    if field.characteristic:
        return st.integers(1, field.characteristic - 1)
    return st.sampled_from(GENERATED_QQ_UNITS)


@st.composite
def generated_qcis(draw, shapes=GENERATED_SHAPES):
    field = draw(st.sampled_from(GENERATED_FIELDS))
    exponents = draw(st.sampled_from(shapes))
    c = len(exponents)
    q = [[field.one] * c for _ in range(c)]
    for i in range(c):
        for j in range(i + 1, c):
            q[i][j] = draw(units(field))
            q[j][i] = field.inv(q[i][j])
    return QciAlgebra(field, exponents, q)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(generated_qcis(), st.data())
def test_property_literal_maps_match_structural_maps(A, data):
    """norm_scalar and d1_terms, built from the algebra's q-power table,
    equal the induced actions of s and of 1 (x) x_w - x_w (x) 1 entrywise,
    for every Nakayama power in -2..2 and a random unit twist."""
    twists = [A.nakayama(j) for j in range(-2, 3)]
    twists.append(tuple(data.draw(units(A.field)) for _ in range(A.c)))
    for psi in twists:
        assert_integer_forms_match_structural_maps(A, psi)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(generated_qcis(), st.data())
def test_property_q_power_table_matches_field_powers(A, data):
    """q_power, the Nakayama scalars and the closed-form monomial product
    against field powers and the rewriting oracle."""
    field = A.field
    for u in range(A.c):
        for v in range(A.c):
            for k in range(-5, 6):
                assert A.scalar(*A.q_power(u, v, k)) == \
                    scalar_pow(field, A.q[u][v], k)
    for j in range(-2, 3):
        expected = []
        for w in range(A.c):
            alpha = field.one
            for i, a in enumerate(A.exponents):
                alpha = field.mul(alpha, scalar_pow(field, A.q[i][w], a - 1))
            expected.append(scalar_pow(field, alpha, j))
        assert A.nakayama(j) == tuple(expected)
    monomials = A.monomials()
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(monomials),
                                         st.sampled_from(monomials)),
                               min_size=1, max_size=40))
    for exps1, exps2 in pairs + [(A.monomial_exps(A.top_index),
                                  A.monomial_exps(0))]:
        assert A.multiply_monomials(exps1, exps2) == \
            oracle_multiply(A, exps1, exps2)


def structural_splice_window(A, j):
    """C(j) on [-1, 0] from the structural maps: d1 of nu^j, the action of
    s, and d1 of nu^(j+1) with column block w made row block w."""
    dim = A.dim
    stacked = SparseMatrix(A.field, dim * A.c, dim, (
        (row + dim * (col // dim), col % dim, v)
        for row, col, v in d1_matrix_via_f(A, A.nakayama(j + 1)).entries()))
    return ChainComplexWindow(
        [1, 0, -1, -2], {1: dim * A.c, 0: dim, -1: dim, -2: dim * A.c},
        {1: d1_matrix_via_f(A, A.nakayama(j)),
         0: d0_matrix_via_s(A, A.nakayama(j)), -1: stacked})


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(generated_qcis([s for s in GENERATED_SHAPES if len(s) <= 4]),
       st.integers(-2, 2))
def test_property_splice_dims_match_windows(A, j):
    """The counted splice degrees 0 and -1 of C(j) equal the homology of
    the window of the structural maps and of the reference TateWindow."""
    reference = TateWindow(A, j, -1, 0, DEFAULT_BUDGET, "resolution")
    for window in (structural_splice_window(A, j), reference):
        assert {n: window.homology_dim(n) for n in (0, -1)} == \
            splice_dims(A, j)


@pytest.mark.parametrize("slip", ["onto x^0", "out of x^top"])
def test_splice_entry_meeting_the_norm_fails_construction(monkeypatch,
                                                          slip):
    """A nonzero d1 entry moved onto x^0, or to the column of x^top, meets
    the nonzero norm map, and the request stops with the window's
    wording."""
    original = near_zero.d1_terms

    def slipped(A, psi):
        terms = list(original(A, psi))
        k = next(k for k, term in enumerate(terms) if term[3])
        w, idx, target, num, den = terms[k]
        terms[k] = (w, idx, 0, num, den) if slip == "onto x^0" else \
            (w, A.top_index, target, num, den)
        return iter(terms)

    monkeypatch.setattr(near_zero, "d1_terms", slipped)
    A = codim2_algebra(QQ, 2, 3, Fraction(2))
    with pytest.raises(ValueError, match="do not compose to zero"):
        tate_dims(TateRequest(A, -1, 0))


def test_norm_scalar_of_the_next_twist_fails_cross_validation(monkeypatch):
    """norm_scalar read at nu^(j+1) in place of nu^j, for the whole module,
    changes degree 0 or -1 of the auto table on an algebra of the verify
    duality family, and the bar route disagrees: its norm map, like every
    reference window's and tate_hh0's, is the structural action of s and
    does not move under the patch."""
    family = _duality_family()

    def disagreements():
        return [(label, variant, k, row["degree"])
                for label, A in family
                for variant in ("homology", "cohomology")
                for k in (-1, 0, 1)
                for row in cross_validate(
                    TateRequest(A, -1, 0, variant, k))["degrees"]
                if not row["agree"]]

    def references():
        return [(tate_hh0(A, A.nakayama(j)),
                 [TateWindow(A, j, 0, 0, DEFAULT_BUDGET, terminal).maps[0]
                  for terminal in ("resolution", "oracle")])
                for _, A in family for j in (-1, 0, 1)]

    assert disagreements() == []
    before = references()
    norm = near_zero.norm_scalar

    def next_twist_norm(A, psi):
        return norm(A, tuple(A.field.mul(alpha, nu)
                             for alpha, nu in zip(psi, A.nakayama(1))))

    monkeypatch.setattr(near_zero, "norm_scalar", next_twist_norm)
    assert references() == before
    assert disagreements()
