"""Tests for the routing engine, its spliced Tate window, and the certificate
of the linear dual that the verify duality suite checks the window against."""

import json
import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from tatehh import (
    QQ,
    PrimeField,
    codim2_algebra,
    dual_bimodule,
    exterior_algebra,
    truncated_polynomial_algebra,
)
from tatehh import tate_engine, twisted_resolution
from tatehh.cli_reports import EXIT_BUDGET, _duality_family, main
from tatehh.hochschild_bar import DEFAULT_BUDGET, BarWindowRequest, \
    hh_homology_dims
from tatehh.qci_algebra import QciAlgebra
from tatehh.tate_engine import (
    TableEntry,
    TateRequest,
    TateWindow,
    bimodules_isomorphic,
    coefficient_name,
    cross_validate,
    nakayama_module,
    recognize_nakayama_power,
    tate_dims,
)

from oracles import center_dim, closed_form_dim, cols_to_rows, columns, \
    dense_rank, intertwiner_space_dim, mat_apply, mat_mul, of_int

TERMINALS = ("resolution", "oracle")


def codim2_q2():
    return codim2_algebra(QQ, 2, 2, Fraction(2))


class TestRequestValidation:
    def test_rejects_bad_fields(self):
        A = codim2_q2()
        with pytest.raises(ValueError, match="empty"):
            TateRequest(A, 2, 1)
        with pytest.raises(ValueError, match="variant"):
            TateRequest(A, 0, 1, "both")
        with pytest.raises(ValueError, match="policy"):
            TateRequest(A, 0, 1, "homology", method="fastest")
        # the closed forms are checks, not routes
        for retired in ("formula_only", "complex_only"):
            with pytest.raises(ValueError, match="unknown method policy"):
                TateRequest(A, 0, 1, "homology", method=retired)
        with pytest.raises(ValueError, match="budget"):
            TateRequest(A, 0, 1, budget=0)

    @pytest.mark.parametrize("name, value", [
        ("nakayama_power", True), ("nakayama_power", 1.0), ("n_min", 0.0),
        ("n_max", True), ("n_max", Fraction(1)), ("budget", 100.0)])
    def test_rejects_non_integer_fields(self, name, value):
        """A bool or a float key would be served as nu^True or nu^1.0, or
        fail inside range; each integer field takes an int only."""
        fields = {"n_min": 0, "n_max": 1, "nakayama_power": 0, "budget": 100}
        fields[name] = value
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            TateRequest(codim2_q2(), **fields)

    def test_records_are_values(self):
        entry = TableEntry(2, None, "unavailable")
        assert pickle.loads(pickle.dumps(entry)) == entry
        assert repr(entry) == "TableEntry(degree=2, dimension=None, " \
            "method='unavailable', source='')"
        with pytest.raises(AttributeError):
            TateRequest(codim2_q2(), -1, 1).budget = 1


def test_tate_window_takes_route_names():
    """The spliced window is keyed by the method column's route names."""
    A = codim2_q2()
    windows = [TateWindow(A, 0, 0, 0, DEFAULT_BUDGET, terminal)
               for terminal in TERMINALS]
    assert [w.homology_dim(0) for w in windows] == \
        [tate_dims(TateRequest(A, 0, 0)).dimension(0)] * 2
    with pytest.raises(ValueError, match="unknown route 'bar'"):
        TateWindow(A, 0, 0, 0, DEFAULT_BUDGET, "bar")


@pytest.mark.parametrize("route", TERMINALS)
def test_tate_window_builds_only_the_halves_it_reads(monkeypatch, route):
    """A window on [2, 3] reads only maps of B_j (x) P, one on [-4, -3]
    only maps of Hom(P, B_(j+1)); on either route the other half is never
    built (no Assembly, no nakayama_module)."""
    built = []
    init = twisted_resolution.Assembly.__init__
    monkeypatch.setattr(twisted_resolution.Assembly, "__init__",
                        lambda self, A, j, variant: built.append(
                            (j, variant)) or init(self, A, j, variant))
    monkeypatch.setattr(tate_engine, "nakayama_module",
                        lambda A, k: built.append(k) or nakayama_module(A, k))
    A, j = codim2_q2(), 1
    for lo, hi, half in ((2, 3, (j, "homology")),
                         (-4, -3, (j + 1, "cohomology"))):
        built.clear()
        TateWindow(A, j, lo, hi, DEFAULT_BUDGET, route)
        assert built == [half if route == "resolution" else half[0]]


class TestPublishedTables:
    def test_codim2_cohomology_window(self):
        # 1, 2, 1 at degrees 0, 1, 2 and zero elsewhere
        table = tate_dims(TateRequest(codim2_q2(), -4, 4, "cohomology"))
        assert table.dims() == [0, 0, 0, 0, 1, 2, 1, 0, 0]

    def test_codim2_homology_window(self):
        A = codim2_algebra(QQ, 2, 3, Fraction(2))
        table = tate_dims(TateRequest(A, -3, 3, "homology"))
        assert table.dims() == [3] * 7

    def test_exterior_homology_window(self):
        A = exterior_algebra(PrimeField(3), 2)
        table = tate_dims(TateRequest(A, -3, 2, "homology"))
        assert table.dims() == [6, 4, 2, 2, 4, 6]
        assert all(e.method == "resolution" for e in table.entries)

    def test_bar_policy_reproduces_formula_values(self):
        A = exterior_algebra(PrimeField(3), 2)
        auto = tate_dims(TateRequest(A, -3, 2, "homology"))
        bar = tate_dims(TateRequest(A, -3, 2, "homology", method="bar_only"))
        for e in bar.entries:
            if e.dimension is not None:
                assert e.dimension == auto.dimension(e.degree)
        # stable degree 0 comes from the bar complex spliced to its dual
        assert bar.dimension(0) == auto.dimension(0)
        assert bar.entry(0).method == "oracle"

    def test_degree_zero_cohomology_is_one(self):
        table = tate_dims(TateRequest(codim2_q2(), 0, 0, "cohomology"))
        entry = table.entry(0)
        assert entry.dimension == 1
        assert (entry.method, entry.source) == ("resolution", "")

    def test_negative_cohomology_vanishes_via_complexes(self):
        table = tate_dims(TateRequest(codim2_q2(), -4, -1, "cohomology"))
        assert table.dims() == [0, 0, 0, 0]
        assert [e.method for e in table.entries] == ["resolution"] * 4

    def test_twisted_negative_homology(self):
        # degrees -2, -1 of the nu twist are cochain degrees 1, 0 of nu^2
        table = tate_dims(TateRequest(codim2_q2(), -2, -1, "homology",
                                      nakayama_power=1))
        assert table.dims() == [0, 0]
        assert [(e.method, e.source) for e in table.entries] == \
            [("resolution", "")] * 2


class TestPolicies:
    def test_formula_only_leaves_gaps(self):
        A = codim2_algebra(PrimeField(7), 2, 3, 3)
        assert [closed_form_dim(A, "homology", n, 0) for n in range(3)] == \
            [None, None, None]

    def test_formula_only_exterior_complete(self):
        A = exterior_algebra(QQ, 2)
        assert all(closed_form_dim(A, "homology", n, 0) is not None
                   for n in range(-2, 3))

    def test_budget_markers_name_first_offender(self):
        A = codim2_q2()
        table = tate_dims(TateRequest(A, 1, 4, "homology",
                                      method="bar_only", budget=4 ** 4))
        assert table.dims() == [2, 2, None, None]
        assert table.entry(3).source == \
            "degree 3 needs 1024 basis elements, budget is 256"

    def test_auto_budget_caps_deep_degrees(self, tmp_path):
        # degree n reads C_{n+1}, 4 (n + 2) elements: 256 allows n <= 62
        A = codim2_q2()
        table = tate_dims(TateRequest(A, 61, 64, "homology", budget=4 ** 4))
        assert table.dims() == [2, 2, None, None]
        assert [e.method for e in table.entries] == \
            ["resolution"] * 2 + ["unavailable"] * 2
        assert table.entry(63).source == \
            "degree 63 needs 260 basis elements, budget is 256"
        spec = tmp_path / "codim2.json"
        spec.write_text(json.dumps(
            {"field": {"type": "rational"}, "exponents": [2, 2],
             "q": [["1", "2"], ["1/2", "1"]]}))
        assert main(["dims", "--spec", str(spec), "--min", "61",
                     "--max", "64", "--budget", "256",
                     "--out", str(tmp_path / "out.csv")]) == EXIT_BUDGET

    def test_auto_serves_root_of_unity_from_resolution(self):
        # q = 2 has order 4 in GF(5), outside the two-generator complex's
        # hypotheses; the resolution serves every twist
        A = codim2_algebra(PrimeField(5), 2, 2, 2)
        tables = {method: tate_dims(TateRequest(A, 1, 3, "homology",
                                                nakayama_power=-1,
                                                method=method))
                  for method in ("auto", "bar_only")}
        assert tables["auto"].complete()
        assert tables["auto"].dims() == tables["bar_only"].dims()
        assert {e.method for e in tables["auto"].entries} == {"resolution"}


class TestProvenance:
    def test_duality_sources_are_terminal(self):
        A = exterior_algebra(PrimeField(3), 2)
        table = tate_dims(TateRequest(A, -3, 2, "homology",
                                      method="bar_only"))
        # negative degrees too come straight from a terminal, with no hop
        for e in table.entries:
            assert e.method in TERMINALS and e.source == ""

    def test_csv_round_trip(self):
        table = tate_dims(TateRequest(codim2_q2(), -1, 1, "cohomology"))
        assert table.to_csv() == (
            "degree,dimension,method,source\n"
            "-1,0,resolution,\n"
            "0,1,resolution,\n"
            "1,2,resolution,\n")

    def test_json_dict_shape(self):
        table = tate_dims(TateRequest(codim2_q2(), 0, 1, "homology"))
        doc = table.to_json_dict()
        assert doc["variant"] == "homology"
        assert doc["coefficient"] == "regular"
        assert [e["degree"] for e in doc["entries"]] == [0, 1]
        assert doc["algebra"]["exponents"] == [2, 2]

    def test_coefficient_names(self):
        assert coefficient_name(0) == "regular"
        assert coefficient_name(2) == "nu^2"
        assert coefficient_name(-1) == "nu^-1"


class TestRecognition:
    def test_dual_of_regular_is_nu_twist(self):
        for A in (codim2_q2(), exterior_algebra(PrimeField(3), 2),
                  truncated_polynomial_algebra(QQ, (2, 2))):
            dual = dual_bimodule(nakayama_module(A, 0))
            assert recognize_nakayama_power(A, dual, 1) == 1

    def test_dual_of_twist_shifts_exponent(self):
        A = codim2_q2()
        for k in (1, 2, -1):
            dual = dual_bimodule(nakayama_module(A, k))
            assert recognize_nakayama_power(A, dual, 1 - k) == 1 - k
            assert recognize_nakayama_power(A, dual, -k) is None

    def test_isomorphism_respects_twist_order(self):
        # D(nu^0) is nu^1: certified against nu^-1 only where nu^2 = 1
        E = exterior_algebra(PrimeField(3), 2)  # nu^2 = identity
        assert bimodules_isomorphic(dual_bimodule(nakayama_module(E, 0)),
                                    E.nakayama(-1))
        A = codim2_q2()
        assert not bimodules_isomorphic(dual_bimodule(nakayama_module(A, 0)),
                                        A.nakayama(-1))
        assert not bimodules_isomorphic(dual_bimodule(nakayama_module(A, 2)),
                                        A.nakayama(1))

    def test_foreign_module_not_recognized(self):
        A = codim2_q2()
        other = truncated_polynomial_algebra(QQ, (2, 2))
        dual = dual_bimodule(nakayama_module(other, 0))
        assert recognize_nakayama_power(other, dual, 1) == 1
        assert recognize_nakayama_power(A, dual, 1) is None

    def test_dual_of_nu_squared_matches_inverse_twist_homology(self):
        A = codim2_q2()
        lhs = hh_homology_dims(
            BarWindowRequest(dual_bimodule(nakayama_module(A, 2)), 3,
                             "homology"))
        rhs = hh_homology_dims(
            BarWindowRequest(nakayama_module(A, -1), 3, "homology"))
        assert lhs == rhs


def seeded_qcis():
    """Two QCIs per field with c <= 3 and dim <= 8, every q_ij off +-1
    where the field has such a unit (GF(3) has none, so q = -1 there)."""
    rng = Random(4019)
    shapes = ((2, 2), (2, 3), (3, 2), (2, 4), (2, 2, 2))
    algebras = []
    for field in (QQ, PrimeField(3), PrimeField(5), PrimeField(7)):
        p = field.characteristic
        units = [of_int(field, v) for v in range(2, p - 1)] if p else \
            [Fraction(2), Fraction(1, 3), Fraction(-3, 2)]
        units = units or [of_int(field, -1)]
        for exps in rng.sample(shapes, 2):
            c = len(exps)
            q = [[field.one] * c for _ in range(c)]
            for i in range(c):
                for j in range(i + 1, c):
                    q[i][j] = rng.choice(units)
                    q[j][i] = field.inv(q[i][j])
            algebras.append(QciAlgebra(field, exps, q))
    return algebras


RECOGNITION_ALGEBRAS = [codim2_q2(), exterior_algebra(PrimeField(3), 2),
                        truncated_polynomial_algebra(QQ, (2, 2))] + \
    seeded_qcis()


class TestTwistedCentre:
    """The socle functional lambda in the twisted centre of D(nu^k)."""

    @pytest.mark.parametrize("A", RECOGNITION_ALGEBRAS, ids=[
        f"{i}-{A.field!r}-{'x'.join(map(str, A.exponents))}"
        for i, A in enumerate(RECOGNITION_ALGEBRAS)])
    def test_recognizer_against_intertwiner_oracle(self, A):
        field = A.field
        for k in range(-2, 3):
            M = dual_bimodule(nakayama_module(A, k))
            for j in range(-2, 3):
                assert bimodules_isomorphic(M, A.nakayama(j)) == \
                    (A.nakayama(j) == A.nakayama(1 - k))
            # the certified map a -> lambda.a from nu^(1-k) to D(nu^k),
            # lambda dual to x^top, by the oracle's column arithmetic
            N = nakayama_module(A, 1 - k)
            lam = {A.top_index: field.one}
            phi = [mat_apply(field, columns(M.right_monomial(a)), lam)
                   for a in range(A.dim)]
            for act_n, act_m in zip(N.left + N.right, M.left + M.right):
                assert mat_mul(field, phi, columns(act_n)) == \
                    mat_mul(field, columns(act_m), phi)
            assert dense_rank(field, cols_to_rows(field, A.dim, phi)) == A.dim
            # N and M are isomorphic, so the maps N -> M (the twisted centre
            # of M) have the dimension of End(N), the centre of A
            assert intertwiner_space_dim(field, N, M) == center_dim(A)

    def test_certificate_rejects_the_untranslated_twist(self):
        # the verify duality row with -k in place of 1 - k must fail
        cases = 0
        for A in [A for _, A in _duality_family()] + RECOGNITION_ALGEBRAS:
            for k in range(-2, 3):
                if A.nakayama(-k) != A.nakayama(1 - k):
                    M = dual_bimodule(nakayama_module(A, k))
                    assert not bimodules_isomorphic(M, A.nakayama(-k))
                    cases += 1
        assert cases


class TestDualityProperties:
    @pytest.mark.parametrize("algebra", [
        codim2_algebra(QQ, 2, 2, Fraction(2)),
        exterior_algebra(PrimeField(3), 2),
        truncated_polynomial_algebra(PrimeField(2), (2, 2)),
        truncated_polynomial_algebra(QQ, (3,)),
    ], ids=["codim2-q2", "ext-gf3", "trunc-gf2", "c1-cubed"])
    def test_homology_palindrome(self, algebra):
        table = tate_dims(TateRequest(algebra, -4, 3, "homology"))
        for n in range(4):
            assert table.dimension(n) == table.dimension(-n - 1)

    @pytest.mark.parametrize("algebra", [
        codim2_algebra(QQ, 2, 2, Fraction(2)),
        exterior_algebra(PrimeField(3), 2),
        truncated_polynomial_algebra(PrimeField(2), (2, 2)),
    ], ids=["codim2-q2", "ext-gf3", "trunc-gf2"])
    def test_cohomology_twist_duality(self, algebra):
        for n in (0, 1):
            lhs = tate_dims(TateRequest(algebra, n, n, "cohomology"))
            rhs = tate_dims(TateRequest(algebra, -n - 1, -n - 1, "cohomology",
                                        nakayama_power=2))
            assert lhs.dimension(n) == rhs.dimension(-n - 1)

    def test_cohomology_palindrome_when_nu_squared_trivial(self):
        E = exterior_algebra(PrimeField(3), 2)
        table = tate_dims(TateRequest(E, -3, 2, "cohomology"))
        for n in range(3):
            assert table.dimension(n) == table.dimension(-n - 1)


class TestCrossValidate:
    def test_codim2_cohomology_all_routes_agree(self):
        A = codim2_q2()
        rep = cross_validate(TateRequest(A, -3, 3, "cohomology"))
        assert rep["all_agree"]
        by_degree = {r["degree"]: r["values"] for r in rep["degrees"]}
        assert by_degree[1] == {"oracle": 2, "resolution": 2}
        assert by_degree[-2] == {"oracle": 0, "resolution": 0}
        assert by_degree[0] == {"oracle": 1, "resolution": 1}
        assert [closed_form_dim(A, "cohomology", n, 0)
                for n in (1, -2, 0)] == [2, 0, 1]

    def test_commutative_ci_values(self):
        A = truncated_polynomial_algebra(QQ, (2, 2))
        rep = cross_validate(TateRequest(A, 1, 3, "homology"))
        assert rep["all_agree"]
        assert [r["values"]["oracle"] for r in rep["degrees"]] == [4, 5, 6]
        assert [closed_form_dim(A, "homology", n, 0)
                for n in (1, 2, 3)] == [4, 5, 6]

    def test_exterior_char2_degree_zero(self):
        A = exterior_algebra(PrimeField(2), 2)
        rep = cross_validate(TateRequest(A, 0, 0, "homology"))
        assert rep["degrees"][0]["values"] == {"oracle": 4, "resolution": 4}
        assert closed_form_dim(A, "homology", 0, 0) == 4


# every shape with c <= 3 and dim <= 6 (c = 3 starts at dim 8)
SMALL_SHAPES = [(a,) for a in range(2, 7)] + [(2, 2), (2, 3), (3, 2)]
SMALL_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5),
                PrimeField(7)]
# q = +-1 included, so closed forms apply to some draws
SMALL_QQ_UNITS = [Fraction(v) for v in (1, -1, 2, -3)] + \
    [Fraction(1, 2), Fraction(-3, 5)]


@st.composite
def small_qcis(draw, shapes=SMALL_SHAPES, shared_q=False):
    """With shared_q, half the draws give every pair q = 1 or every pair
    q = -1, so that commutative and exterior algebras occur often."""
    field = draw(st.sampled_from(SMALL_FIELDS))
    exponents = draw(st.sampled_from(shapes))
    c = len(exponents)
    units = st.sampled_from(SMALL_QQ_UNITS) if field.characteristic == 0 \
        else st.integers(1, field.characteristic - 1)
    shared = draw(st.sampled_from([field.one, field.neg(field.one)])) \
        if shared_q and draw(st.booleans()) else None
    q = [[field.one] * c for _ in range(c)]
    for i in range(c):
        for j in range(i + 1, c):
            q[i][j] = draw(units) if shared is None else shared
            q[j][i] = field.inv(q[i][j])
    return QciAlgebra(field, exponents, q)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(small_qcis(), st.integers(-2, 2),
       st.sampled_from(("homology", "cohomology")))
def test_property_cross_validate_routes_agree(A, k, variant):
    rep = cross_validate(TateRequest(A, -2, 2, variant, nakayama_power=k))
    assert rep["all_agree"], rep
    for row in rep["degrees"]:
        assert {"resolution", "oracle"} <= set(row["values"]), row


# c = 3 starts at dim 8: the exterior algebra
CLOSED_FORM_SHAPES = SMALL_SHAPES + [(3, 3), (2, 2, 2)]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(small_qcis(CLOSED_FORM_SHAPES, shared_q=True),
       st.sampled_from(("homology", "cohomology")))
def test_property_auto_table_matches_closed_forms(A, variant):
    """Where a published theorem applies, the auto table (label census and
    splice window) gives its value in every degree of [-10, 10]."""
    table = tate_dims(TateRequest(A, -10, 10, variant))
    for e in table.entries:
        expected = closed_form_dim(A, variant, e.degree, 0)
        if expected is not None:
            assert (e.dimension, e.method) == (expected, "resolution"), e


@pytest.mark.parametrize("A", [
    exterior_algebra(QQ, 3),
    exterior_algebra(PrimeField(3), 3),
    truncated_polynomial_algebra(QQ, (3, 3)),
    truncated_polynomial_algebra(PrimeField(3), (3, 3)),
], ids=["ext3-QQ", "ext3-gf3", "trunc33-QQ", "trunc33-gf3"])
def test_auto_table_matches_closed_forms_deep(A):
    table = tate_dims(TateRequest(A, 40, 42, "homology"))
    assert table.dims() == [closed_form_dim(A, "homology", n, 0)
                            for n in (40, 41, 42)]
