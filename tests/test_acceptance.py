"""Acceptance gate: one test per published claim the package must reproduce.

Every dimension comparison is an exact integer equality; there is no
tolerance anywhere.  Each criterion is a single test function so the
verbose run shows one pass/fail line per criterion.
"""

import json
import random
import time

from tatehh import (
    QQ,
    BarWindowRequest,
    PrimeField,
    QciAlgebra,
    TateRequest,
    check_exactness_claim,
    codim2_algebra,
    dual_bimodule,
    exterior_algebra,
    hh_cohomology_dims,
    hh_homology_dims,
    tate_dims,
    tate_hh0,
    truncated_polynomial_algebra,
    twisted_bimodule,
)
from tatehh.cli_reports import main
from tatehh.closed_forms import ci_dim, exterior_dim
from tatehh.codim2_complex import DeltaComplex, expected_kernel_dim

from oracles import closed_form_dim, codim2_homology_dim, lower_bound, \
    of_int, regular_bimodule

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)

CODIM2_SCALARS = ("2", "3", "1/2")


def _codim2_family(a, b):
    return [codim2_algebra(QQ, a, b, QQ.parse(s)) for s in CODIM2_SCALARS]


def test_criterion_01_codim2_cohomology_window():
    start = time.monotonic()
    expected = [0, 0, 0, 0, 0, 1, 2, 1, 0, 0, 0]
    for a, b in ((2, 2), (3, 2)):
        for A in _codim2_family(a, b):
            table = tate_dims(TateRequest(A, -5, 5, "cohomology"))
            got = [table.dimension(n) for n in range(-5, 6)]
            assert got == expected, (a, b, A.describe(), got)
    assert time.monotonic() - start < 60.0


def test_criterion_02_codim2_homology_constant_and_p_rows():
    for a, b in ((2, 2), (3, 2)):
        for A in _codim2_family(a, b):
            table = tate_dims(TateRequest(A, -4, 4, "homology"))
            got = [table.dimension(n) for n in range(-4, 5)]
            assert got == [a + b - 2] * 9, (a, b, got)

    # characteristic-p rows: three frozen samples per divisibility pattern
    assert [codim2_homology_dim(2, 3, 2, n) for n in (-1, 0, 4)] == [4, 4, 4]
    assert [codim2_homology_dim(2, 2, 2, n) for n in (-1, 0, 3)] == [3, 3, 4]
    assert [codim2_homology_dim(3, 3, 3, n) for n in (0, -4, 2)] == [5, 6, 6]

    # no prime field satisfies the infinite-order hypothesis, so the closed
    # form must not apply there
    A5 = codim2_algebra(GF5, 2, 3, of_int(GF5, 2))
    assert [closed_form_dim(A5, "homology", n, 0) for n in range(3)] == \
        [None, None, None]


def test_criterion_03_twisted_vanishing_and_kernel_counts():
    start = time.monotonic()
    for a, b in ((2, 2), (2, 3), (3, 3)):
        A = codim2_algebra(QQ, a, b, of_int(QQ, 2))
        delta = DeltaComplex(A, 9)
        assert [delta.homology_dim(n) for n in range(1, 9)] == [0] * 8, (a, b)
        got = [delta.kernel_dim(n) for n in range(1, 9)]
        assert got == [expected_kernel_dim(A, n) for n in range(1, 9)], (a, b)
    assert time.monotonic() - start < 30.0


def test_criterion_04_exterior_values_and_palindromes():
    for c in (1, 2, 3):
        for field in (GF2, GF3, QQ):
            A = exterior_algebra(field, c)
            p = field.characteristic
            assert tate_hh0(A, A.identity_twist()) == exterior_dim(c, p, 0)
            dims = hh_homology_dims(BarWindowRequest(regular_bimodule(A), 3, "homology"))
            assert dims[1:] == [exterior_dim(c, p, n) for n in (1, 2, 3)]
            for variant in ("homology", "cohomology"):
                table = tate_dims(TateRequest(A, -4, 3, variant))
                assert table.complete(), (c, p, variant)
                left = [table.dimension(n) for n in range(0, 4)]
                right = [table.dimension(-1 - n) for n in range(0, 4)]
                assert left == right, (c, p, variant, left, right)


def test_criterion_05_commutative_ci_tables():
    start = time.monotonic()
    cases = ((QQ, (3, 4, 5, 6)), (GF2, (4, 8, 12, 16)))
    for field, expected in cases:
        A = truncated_polynomial_algebra(field, (2, 2))
        p = field.characteristic
        got = [tate_hh0(A, A.identity_twist())]
        got += hh_homology_dims(BarWindowRequest(regular_bimodule(A), 3, "homology"))[1:]
        assert got == list(expected), (p, got)
        assert got == [ci_dim(2, 2, p, n) for n in range(4)], p
    assert time.monotonic() - start < 120.0


def _random_algebra(rng):
    c = rng.randint(1, 3)
    exponents = tuple(rng.randint(2, 4) for _ in range(c))
    if rng.random() < 0.5:
        field = QQ
        pool = ("2", "3", "1/2", "-2", "5/3", "4")
        pick = lambda: field.parse(rng.choice(pool))
    else:
        field = PrimeField(rng.choice((2, 3, 5)))
        pick = lambda: rng.choice((field.one, field.neg(field.one)))
    q = [[field.one] * c for _ in range(c)]
    for i in range(c):
        for j in range(i + 1, c):
            q[i][j] = pick()
            q[j][i] = field.inv(q[i][j])
    return QciAlgebra(field, exponents, q)


def test_criterion_06_degree_zero_lower_bound():
    rng = random.Random(20260814)
    for _ in range(20):
        A = _random_algebra(rng)
        value = tate_hh0(A, A.identity_twist())
        bound = lower_bound(A.exponents, A.field.characteristic, 0)
        assert value >= bound, (A.describe(), value, bound)


SMALL_FAMILY = (
    exterior_algebra(QQ, 1),
    exterior_algebra(GF3, 2),
    truncated_polynomial_algebra(QQ, (2, 3)),
    truncated_polynomial_algebra(GF2, (2, 2)),
    codim2_algebra(QQ, 2, 2, of_int(QQ, 2)),
    codim2_algebra(QQ, 3, 2, of_int(QQ, 3)),
)


def test_criterion_07a_linear_dual_swaps_variants():
    for A in SMALL_FAMILY:
        assert A.dim <= 6
        for k in (0, 1, -1):
            B = twisted_bimodule(A, A.nakayama(k), A.identity_twist())
            upper = hh_cohomology_dims(BarWindowRequest(B, 3, "cohomology"))
            lower = hh_homology_dims(BarWindowRequest(dual_bimodule(B), 3, "homology"))
            assert upper == lower, (A.describe(), k, upper, lower)


def test_criterion_07b_homology_palindrome_independent_routes():
    # every member has a closed form, which gives the negative side
    family = (exterior_algebra(QQ, 1), exterior_algebra(QQ, 2),
              exterior_algebra(GF3, 3),
              truncated_polynomial_algebra(QQ, (2, 2)),
              truncated_polynomial_algebra(GF2, (2, 2)),
              truncated_polynomial_algebra(GF3, (3, 3)),
              codim2_algebra(QQ, 2, 2, of_int(QQ, 2)),
              codim2_algebra(QQ, 3, 2, of_int(QQ, 3)))
    for A in family:
        # positive side from the complexes, negative side from closed forms
        positive = [tate_hh0(A, A.identity_twist())]
        positive += hh_homology_dims(BarWindowRequest(regular_bimodule(A), 2, "homology"))[1:]
        negative = [closed_form_dim(A, "homology", -(n + 1), 0)
                    for n in range(3)]
        assert None not in negative, A.describe()
        assert positive == negative, (A.describe(), positive, negative)


def test_criterion_07c_cohomology_twist_duality():
    family = (exterior_algebra(QQ, 2), exterior_algebra(GF3, 2),
              codim2_algebra(QQ, 2, 2, of_int(QQ, 2)),
              codim2_algebra(QQ, 3, 2, QQ.parse("1/2")))
    for A in family:
        plain = tate_dims(TateRequest(A, 0, 1, "cohomology"))
        squared = tate_dims(
            TateRequest(A, -2, -1, "cohomology", nakayama_power=2))
        for n in (0, 1):
            assert plain.dimension(n) == squared.dimension(-(n + 1)), (
                A.describe(), n)


def test_criterion_08_near_zero_exactness():
    mixed_q = [[QQ.one, of_int(QQ, 2), QQ.parse("1/3")],
               [QQ.parse("1/2"), QQ.one, of_int(QQ, 5)],
               [of_int(QQ, 3), QQ.parse("1/5"), QQ.one]]
    family = SMALL_FAMILY + (
        exterior_algebra(QQ, 3),
        exterior_algebra(GF3, 3),
        truncated_polynomial_algebra(GF2, (2, 2, 2, 2)),
        truncated_polynomial_algebra(QQ, (4, 4)),
        truncated_polynomial_algebra(GF3, (3, 3)),
        codim2_algebra(QQ, 2, 4, of_int(QQ, 2)),
        codim2_algebra(GF5, 3, 3, of_int(GF5, 2)),
        QciAlgebra(QQ, (2, 3, 2), mixed_q),
    )
    for A in family:
        product = 1
        for a in A.exponents:
            product *= a
        assert A.dim == product <= 16, A.describe()
        assert check_exactness_claim(A), A.describe()


def test_criterion_09_verify_all_suites(capsys):
    start = time.monotonic()
    assert main(["verify"]) == 0
    assert time.monotonic() - start < 600.0
    rows = json.loads(capsys.readouterr().out)
    assert rows and all(row["pass"] for row in rows)
