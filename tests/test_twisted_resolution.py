"""Tests for the twisted-tensor bimodule resolution and its routing."""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tatehh import QQ, PrimeField, codim2_algebra, exterior_algebra, \
    truncated_polynomial_algebra
from tatehh import hochschild_bar, twisted_resolution
from tatehh.cli_reports import EXIT_BUDGET, main
from tatehh.codim2_complex import DeltaComplex
from tatehh.hochschild_bar import DEFAULT_BUDGET, BarWindow, BudgetExceeded
from tatehh.near_zero import d1_terms
from tatehh.qci_algebra import Bimodule, QciAlgebra
from tatehh.sparse_linalg import ChainComplexWindow, SparseMatrix
from tatehh.tate_engine import TateRequest, TateWindow, cross_validate, \
    nakayama_module, tate_dims
from tatehh.twisted_resolution import Assembly, Census, chain_space_dim, \
    generators

from oracles import _column_power, block_key, columns, edge_lemma_scalar, \
    first_square_failure, mat_mul, resolution_map

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)]
# every shape with c <= 3 and dim <= 8
SHAPES = [(a,) for a in range(2, 9)] + \
    [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 2, 2)]
# q = +-1 included: the commutative and exterior corners
QQ_UNITS = [Fraction(v) for v in (1, -1, 2, -2, 3)] + \
    [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3)]


@st.composite
def qcis(draw, shapes=SHAPES):
    field = draw(st.sampled_from(FIELDS))
    exponents = draw(st.sampled_from(shapes))
    c = len(exponents)
    units = st.sampled_from(QQ_UNITS) if field.characteristic == 0 else \
        st.integers(1, field.characteristic - 1)
    q = [[field.one] * c for _ in range(c)]
    for i in range(c):
        for j in range(i + 1, c):
            q[i][j] = draw(units)
            q[j][i] = field.inv(q[i][j])
    return QciAlgebra(field, exponents, q)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(qcis(), st.integers(-2, 2))
def test_property_matches_bar_oracle(A, k):
    """Classical dimensions from degree 0, dim C_n - rank out - rank in on
    the resolution's maps, agree with the bar complexes."""
    B = nakayama_module(A, k)
    top = 3 if A.dim <= 6 else 2
    # the maps from degree n to n - step (first <= n <= top + first)
    for variant, first, step in (("homology", 1, 1), ("cohomology", 0, -1)):
        d = Assembly(A, k, variant)
        rank = {n: d(n).rank() for n in range(first, top + first + 1)}
        assert [chain_space_dim(A.c, A.dim, n) - rank.get(n, 0)
                - rank.get(n + step, 0) for n in range(top + 1)] == \
            BarWindow(B, top, variant).dimensions(), variant


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(qcis(), st.integers(-2, 2))
def test_property_literal_splice_maps_match_resolution(A, j):
    """The d1 terms of nu^j, negated, are the resolution's own boundary of
    degree 1, and the d1 terms of nu^(j+1), column block w made row block
    w, are its coboundary of degree 0."""
    homology = Assembly(A, j, "homology")
    cohomology = Assembly(A, j + 1, "cohomology")
    assert SparseMatrix(A.field, A.dim, A.dim * A.c, (
        (target, idx + A.dim * w, A.scalar(-num, den))
        for w, idx, target, num, den in d1_terms(A, A.nakayama(j)))) == \
        homology(1)
    assert SparseMatrix(A.field, A.dim * A.c, A.dim, (
        (target + A.dim * w, idx, A.scalar(num, den))
        for w, idx, target, num, den in d1_terms(A, A.nakayama(j + 1)))) == \
        cohomology(0)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(qcis())
def test_property_sandwiches_match_bimodule_actions(A):
    """The sandwich table read from A's characters is, for every twist
    nu^j, the matrix of b -> x_w^k b x_w^l from the action matrices of the
    bimodule nakayama_module(A, j)."""
    field = A.field
    for j in range(-3, 4):
        B = nakayama_module(A, j)
        den, table = twisted_resolution.sandwiches(A, j)
        assert set(table) == {
            (w, k, l) for w, a in enumerate(A.exponents)
            for k in range(a) for l in range(a) if k + l in (1, a - 1)}
        for (w, k, l), entries in table.items():
            expected = mat_mul(
                field, _column_power(field, columns(B.left[w]), k),
                _column_power(field, columns(B.right[w]), l))
            assert {(row, col): A.scalar(v, den)
                    for row, col, v in entries} == \
                {(row, col): v for col, column in enumerate(expected)
                 for row, v in column.items()}, (j, w, k, l)


@pytest.mark.parametrize("variant", ["homology", "cohomology"])
def test_entry_across_multidegrees_fails_window_construction(monkeypatch,
                                                             variant):
    """A transcription slip that moves one entry of a summand block to
    another monomial breaks d o d = 0, and the composition check at
    construction catches it."""
    original = twisted_resolution._block

    def slipped(A, *args):
        den, entries = original(A, *args)
        (row, col, v), rest = entries[0], entries[1:]
        taken = {r for r, c, _ in rest if c == col}
        target = next(r for r in range(row + 1, row + A.dim)
                      if r % A.dim not in taken) % A.dim
        return den, [(target, col, v)] + rest

    monkeypatch.setattr(twisted_resolution, "_block", slipped)
    A = codim2_algebra(QQ, 2, 3, Fraction(2))
    lo, hi = (2, 3) if variant == "homology" else (-4, -3)
    with pytest.raises(ValueError, match="do not compose to zero"):
        TateWindow(A, 0, lo, hi, DEFAULT_BUDGET, "resolution")


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(qcis(), st.integers(-2, 2))
def test_property_window_maps_are_reference_maps(A, j):
    """Each map of the spliced window beyond the literal splice blocks is
    the map of the unmemoised reference formula."""
    window = TateWindow(A, j, -5, 5, DEFAULT_BUDGET, "resolution")
    homology, cohomology = nakayama_module(A, j), nakayama_module(A, j + 1)
    for n, m in window.maps.items():
        if abs(n) < 2:
            continue
        reference = resolution_map(homology, n, "homology") if n > 0 else \
            resolution_map(cohomology, -n - 1, "cohomology")
        assert {(i, k): v for i, k, v in m.entries()} == reference


@pytest.mark.parametrize("field, q", [(QQ, Fraction(2)), (PrimeField(5), 2)],
                         ids=["QQ", "GF5"])
@pytest.mark.parametrize("variant", ["homology", "cohomology"])
def test_doubled_summand_block_fails_window_construction(monkeypatch, field,
                                                         q, variant):
    """Scaling one memoised summand block by 2 breaks d o d = 0, and the
    composition check at construction catches it."""
    original = twisted_resolution._block
    doubled_once = []

    def doubled(A, *args):
        den, entries = original(A, *args)
        if not doubled_once:
            doubled_once.append(args)
            entries = [(row, col, A.field.mul(2, v))
                       for row, col, v in entries]
        return den, entries

    monkeypatch.setattr(twisted_resolution, "_block", doubled)
    A = codim2_algebra(field, 2, 3, q)
    lo, hi = (2, 4) if variant == "homology" else (-5, -3)
    with pytest.raises(ValueError, match="do not compose to zero"):
        TateWindow(A, 0, lo, hi, DEFAULT_BUDGET, "resolution")


VARIANTS = ("homology", "cohomology")


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(qcis(), st.integers(-2, 2), st.sampled_from(VARIANTS))
def test_property_census_matches_window(A, k, variant):
    """The resolution route (a label census outside the splice) agrees with
    the spliced reference window in every degree of [-6, 5]."""
    table = tate_dims(TateRequest(A, -6, 5, variant, nakayama_power=k))
    j = k if variant == "homology" else k - 1
    window = TateWindow(A, j, -6, 5, DEFAULT_BUDGET, "resolution")
    assert [(e.dimension, e.method) for e in table.entries] == [
        (window.homology_dim(n if variant == "homology" else -n - 1),
         "resolution") for n in range(-6, 6)]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(qcis(), st.integers(-2, 2), st.sampled_from(VARIANTS))
def test_property_block_zero_pattern_matches_edge_lemma(A, j, variant):
    """Every summand block of degrees 1..5 has an entry exactly at the
    w-edges that the edge lemma's scalar E does not kill: from x^m e_i to
    x^(m + delta e_w) e_(i - e_w) (homology) or from x^m e_(i - e_w) to
    x^(m + delta e_w) e_i (cohomology), delta = 1 for odd i_w and a_w - 1
    for even i_w."""
    templates = twisted_resolution._templates(A, j, variant)
    sign = 1 if variant == "homology" else -1
    for n in range(1, 6):
        for i in generators(A.c, n):
            for w, a in enumerate(A.exponents):
                if not i[w]:
                    continue
                odd = i[w] % 2
                delta = 1 if odd else a - 1
                expected = set()
                for m, exps in enumerate(A.monomials()):
                    # m on the summand of e_i, its partner on e_(i - e_w)
                    if not 0 <= exps[w] + sign * delta < a:
                        continue
                    partner = A.monomial_index(
                        exps[:w] + (exps[w] + sign * delta,) + exps[w + 1:])
                    label = [e + sign * (b * (k // 2) + k % 2)
                             for e, b, k in zip(exps, A.exponents, i)]
                    if edge_lemma_scalar(A, j, w, odd, label) != A.field.zero:
                        expected.add((partner, m) if sign > 0
                                     else (m, partner))
                _, entries = twisted_resolution._block(A, templates, i, w)
                assert {(row, col) for row, col, _ in entries} == expected


def patch_block(monkeypatch, change):
    """Route every summand block through ``change(A, i, w, entries)``;
    i is the generator whose block is evaluated, so a change aimed at one
    block compares block_key(i, w)."""
    original = twisted_resolution._block

    def patched(A, templates, i, w):
        den, entries = original(A, templates, i, w)
        return den, change(A, i, w, entries)

    monkeypatch.setattr(twisted_resolution, "_block", patched)


# the block of direction 1 under the key (block_key) of e_(40, 2): first
# evaluated at degree 42 and carried to e_(40, 4), e_(40, 6) and e_(40, 8)
DEEP_KEY = ((40, 0), 1)


@pytest.mark.parametrize("field, q, variant, target, caught", [
    (QQ, Fraction(2), "homology", None, ()),
    (PrimeField(5), 2, "homology", None, ()),
    (QQ, Fraction(2), "cohomology", None, ()),
    (PrimeField(5), 2, "cohomology", None, ()),
    (QQ, Fraction(2), "homology", DEEP_KEY,
     ("degrees 42 and 41", "(40, 2),")),
    # over GF(3) the squares at e_(40, 2) and e_(41, 2) still hold; the
    # first that fails reads the record carried to e_(40, 4)
    (PrimeField(3), 2, "homology", DEEP_KEY,
     ("degrees 44 and 43", "(40, 4),")),
], ids=["homology-QQ", "homology-GF5", "cohomology-QQ", "cohomology-GF5",
        "deep-QQ", "deep-GF3"])
def test_doubled_block_fails_census(monkeypatch, field, q, variant, target,
                                    caught):
    """Doubling the first nonzero block breaks a label square, and the
    census of tate_dims stops with the window's wording.  At depth the
    doubled block is the one under DEEP_KEY, in nu^-1 homology on
    [1, 48]."""
    doubled = []

    def double(A, i, w, entries):
        if entries and (block_key(i, w) == block_key(*target) if target
                        else not doubled):
            doubled.append((i, w))
            return [(row, col, A.field.mul(2, v)) for row, col, v in entries]
        return entries

    patch_block(monkeypatch, double)
    A = codim2_algebra(field, 2, 3, q)
    req = TateRequest(A, 1, 48, nakayama_power=-1) if target else \
        TateRequest(A, 2, 4, variant)
    with pytest.raises(ValueError, match="do not compose to zero") as info:
        tate_dims(req)
    assert doubled
    assert all(part in str(info.value) for part in caught)


@pytest.mark.parametrize("variant", VARIANTS)
def test_entry_across_multidegrees_fails_census(monkeypatch, variant):
    def move_first(A, i, w, entries):
        if not entries:
            return entries
        (row, col, v), rest = entries[0], entries[1:]
        taken = {r for r, c, _ in rest if c == col}
        target = next(r for r in range(row + 1, row + A.dim)
                      if r % A.dim not in taken) % A.dim
        return [(target, col, v)] + rest

    patch_block(monkeypatch, move_first)
    with pytest.raises(ValueError, match="multidegree"):
        tate_dims(TateRequest(codim2_algebra(QQ, 2, 3, Fraction(2)), 2, 3,
                              variant))


def test_edge_zero_at_one_vertex_of_a_label_fails_census(monkeypatch):
    """Dropping one entry of the block at e_(1,0), direction 0, keeps
    d o d = 0 next to cohomology degree 1, so the reference window builds
    and reads dim 3 there (2 unpatched); but it leaves one label with a
    zero and a nonzero edge in direction 0, where the cube argument does
    not hold.  The census refuses it.  The same holds at depth for an entry
    of the block under DEEP_KEY, next to homology degree 41 of nu^-1."""
    def drop_one(A, i, w, entries):
        return entries[1:] if block_key(i, w) == block_key((1, 0), 0) \
            else entries

    patch_block(monkeypatch, drop_one)
    A = codim2_algebra(QQ, 2, 3, Fraction(2))
    window = TateWindow(A, -1, -2, -2, DEFAULT_BUDGET, "resolution")
    assert window.homology_dim(-2) == 3
    with pytest.raises(ValueError, match="disagree in being zero"):
        tate_dims(TateRequest(A, 1, 1, "cohomology"))
    for A, entry, unpatched, generator in (
            (codim2_algebra(QQ, 3, 3, Fraction(1)), 2, 172, "(41, 2)"),
            (codim2_algebra(PrimeField(5), 2, 3, 4), 0, 43, "(40, 2)")):
        monkeypatch.undo()
        window = TateWindow(A, -1, 41, 41, DEFAULT_BUDGET, "resolution")
        assert window.homology_dim(41) == unpatched
        patch_block(monkeypatch, lambda A, i, w, entries, entry=entry:
                    entries[:entry] + entries[entry + 1:]
                    if block_key(i, w) == block_key(*DEEP_KEY) else entries)
        window = TateWindow(A, -1, 41, 41, DEFAULT_BUDGET, "resolution")
        assert window.homology_dim(41) == unpatched + 1
        with pytest.raises(ValueError, match="disagree in being zero") \
                as info:
            tate_dims(TateRequest(A, 1, 48, nakayama_power=-1))
        assert f"at generator {generator}," in str(info.value)


def test_census_evaluates_each_block_key_once(monkeypatch):
    """A census of nu^-1 homology on [1, 48] evaluates each block key of
    degrees 1 to 49 once (records at i_w >= 3 are carried from
    i - 2 e_w) and ends holding three degrees."""
    keys = []
    patch_block(monkeypatch, lambda A, i, w, entries:
                keys.append(block_key(i, w)) or entries)
    census = Census(codim2_algebra(QQ, 2, 3, Fraction(2)), -1, "homology",
                    range(1, 49))
    assert [census.dimension(n) for n in range(1, 49)] == [0] * 48
    distinct = {block_key(i, w)
                for n in range(1, 50) for i in generators(2, n)
                for w in (0, 1) if i[w]}
    assert len(keys) == len(distinct) and set(keys) == distinct
    assert sorted(census.levels) == [47, 48, 49]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(qcis([s for s in SHAPES if len(s) > 1]), st.integers(-2, 2),
       st.sampled_from(VARIANTS), st.sampled_from([1, 3, 4, 5]),
       st.integers(2, 10), st.sampled_from(["drop", "scale", "none"]),
       st.data())
def test_property_square_rule_matches_brute_force(A, j, variant, lo, span,
                                                  kind, data):
    """With one drawn block key scaled by a unit other than 1, one entry of
    it dropped, or nothing changed, a census on [lo, lo + span] raises
    exactly when a brute-force check of every label square it covers
    (oracles.first_square_failure) fails, and with the same message: the
    squares the parallelogram rule implies never fail on their own."""
    hi = lo + span
    i = data.draw(st.sampled_from(generators(A.c, data.draw(
        st.integers(lo, hi + 1)))))
    key = block_key(i, data.draw(st.sampled_from(
        [w for w in range(A.c) if i[w]])))
    p = A.field.characteristic
    units = [-1, 2, Fraction(1, 3)] if p == 0 else list(range(2, p))
    unit = data.draw(st.sampled_from(units)) if units else None
    drop = data.draw(st.integers(0, 7))
    original = twisted_resolution._block

    def mutated(A, templates, i, w):
        den, entries = original(A, templates, i, w)
        if block_key(i, w) != key or not entries:
            return den, entries
        if kind == "scale" and unit is not None:
            return den, [(row, col, A.field.mul(unit, v))
                         for row, col, v in entries]
        if kind == "drop":
            k = drop % len(entries)
            return den, entries[:k] + entries[k + 1:]
        return den, entries

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(twisted_resolution, "_block", mutated)
        expected = first_square_failure(A, j, variant, range(lo, hi + 1))
        try:
            Census(A, j, variant, range(lo, hi + 1))
            message = None
        except ValueError as exc:
            message = str(exc)
    assert message == expected


def label_squares(c, degrees):
    """(n, u, w, v) for every label square a census of ``degrees`` checks:
    u in degree n = (a counted degree) + 1, w < v, u_w and u_v > 0."""
    return {(n, u, w, v) for n in {d + 1 for d in degrees}
            for u in generators(c, n) for w in range(c)
            for v in range(w + 1, c) if u[w] and u[v]}


def test_parallelogram_rule_evaluates_few_squares(monkeypatch):
    """nu^-1 homology of a generic two-generator algebra on [1, 48] covers
    1176 label squares and multiplies out at most 186 of them, the others
    following from squares two degrees below; every one holds by the
    brute-force check.  A window [lo, hi] applies the rule from degree
    lo + 5, once the squares two and four degrees below were checked.  On
    the exterior algebra c = 3 zero middle edges block the rule, so every
    square is multiplied out, once."""
    direct = []
    square = Census._square
    monkeypatch.setattr(Census, "_square", lambda self, n, u, w, v, *rest:
                        direct.append((n, u, w, v)) or
                        square(self, n, u, w, v, *rest))
    A = codim2_algebra(QQ, 2, 3, Fraction(2))
    Census(A, -1, "homology", range(1, 49))
    squares = label_squares(2, range(1, 49))
    assert len(squares) == 1176
    assert set(direct) <= squares and len(direct) <= 186
    assert first_square_failure(A, -1, "homology", range(1, 49)) is None
    # a window that starts high checks every square until degree lo + 5
    for degrees, ruled in (([41], 0), (range(10, 21), 7)):
        direct.clear()
        Census(A, -1, "homology", degrees)
        squares = label_squares(2, degrees)
        assert len(squares) - len(direct) == sum(
            n - 5 for n in range(15, 15 + ruled))
        assert {s for s in direct if s[0] < 15} == \
            {s for s in squares if s[0] < 15}
    for variant in VARIANTS:
        direct.clear()
        Census(exterior_algebra(QQ, 3), 0, variant, range(1, 21))
        assert sorted(direct) == sorted(label_squares(3, range(1, 21)))


# the generic c = 3 algebra of the roadmap: exponents 2, 2, 3 over QQ
C3_SPEC = QciAlgebra(QQ, (2, 2, 3), [
    [QQ.one, Fraction(2), Fraction(3, 5)],
    [Fraction(1, 2), QQ.one, Fraction(-7, 3)],
    [Fraction(5, 3), Fraction(-3, 7), QQ.one]])


@pytest.mark.parametrize("variant, k, nonzero", [
    ("cohomology", 0, {0: 1, 1: 3, 2: 3, 3: 1}),
    ("homology", -1, {-4: 1, -3: 3, -2: 3, -1: 1}),
])
def test_c3_spec_deep_tables(variant, k, nonzero):
    """Recorded before the resolution halves were graded: every entry of
    [-20, 20] from the resolution, nonzero only next to degree 0."""
    table = tate_dims(TateRequest(C3_SPEC, -20, 20, variant, nakayama_power=k))
    assert [(e.degree, e.dimension, e.method, e.source)
            for e in table.entries] == \
        [(n, nonzero.get(n, 0), "resolution", "") for n in range(-20, 21)]


@pytest.mark.parametrize("a, b", [(2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("q", [Fraction(2), Fraction(1, 2)], ids=["2", "1/2"])
def test_inverse_nakayama_homology_vanishes_to_degree_48(a, b, q):
    """The twisted homology of a generic two-generator algebra vanishes in
    every positive degree.  These windows carry the largest powers of 2 of
    the benchmark's deep requests; a modular pre-pass once failed on them
    from degree 38."""
    table = tate_dims(TateRequest(codim2_algebra(QQ, a, b, q), 1, 48,
                                  nakayama_power=-1))
    assert [(e.dimension, e.method) for e in table.entries] == \
        [(0, "resolution")] * 48


def test_generators_and_space_sizes():
    assert generators(1, 4) == [(4,)]
    assert sorted(generators(3, 2)) == sorted(
        [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
    E = exterior_algebra(QQ, 3)
    # 120 coordinates in degree 4 for exterior c = 3 (the bar has 32768)
    assert chain_space_dim(E.c, E.dim, 4) == 120


@pytest.mark.parametrize("a, b", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_inverse_nakayama_matches_delta_complex(a, b):
    for q in (Fraction(2), Fraction(-3, 5), Fraction(9, 7), Fraction(3)):
        A = codim2_algebra(QQ, a, b, q)
        delta = DeltaComplex(A, 21)
        res = TateWindow(A, -1, 1, 20, DEFAULT_BUDGET, "resolution")
        degrees = range(1, 21)
        assert [res.homology_dim(n) for n in degrees] == \
            [delta.homology_dim(n) for n in degrees], (a, b, q)
        assert [res.maps[n].kernel_dim() for n in degrees] == \
            [delta.kernel_dim(n) for n in degrees], (a, b, q)


def enveloping_bimodule(A):
    """A (x) A acted on through its inner structure: x.(u (x) v) = u (x) xv,
    (u (x) v).x = ux (x) v.  Its homology complex is P itself, so
    b -> x^k b x^j sends u e_i v to u x^j e' x^k v."""
    table = A.structure_constants()
    dim = A.dim
    left, right = [], []
    for w in range(1, A.c + 1):
        g = A.generator_index(w)
        lentries, rentries = [], []
        for u in range(dim):
            for v in range(dim):
                hit = table.get((g, v))
                if hit is not None:
                    lentries.append((u + dim * hit[1], u + dim * v, hit[0]))
                hit = table.get((u, g))
                if hit is not None:
                    rentries.append((hit[1] + dim * v, u + dim * v, hit[0]))
        left.append(SparseMatrix(A.field, dim * dim, dim * dim, lentries))
        right.append(SparseMatrix(A.field, dim * dim, dim * dim, rentries))
    return Bimodule(A, left, right, label="enveloping")


@pytest.mark.parametrize("A", [
    truncated_polynomial_algebra(PrimeField(2), (2, 2, 2)),
    codim2_algebra(QQ, 2, 3, Fraction(2)),
    codim2_algebra(PrimeField(5), 3, 2, 2),
    exterior_algebra(QQ, 2),
], ids=["trunc-gf2-c3", "codim2-qq-q2", "codim2-gf5-q2", "exterior-qq"])
def test_augmented_resolution_is_exact(A):
    """P_4 -> ... -> P_0 -> A -> 0 is exact as k-vector spaces.  The maps
    are the reference formula's (oracles.resolution_map), which takes any
    bimodule; the package's resolution route takes Nakayama twists only."""
    field, B = A.field, enveloping_bimodule(A)
    spaces = {n: chain_space_dim(A.c, B.dim, n) for n in range(6)}
    spaces[-1] = 0
    maps = {n: SparseMatrix.from_dict(field, spaces[n - 1], spaces[n],
                                      resolution_map(B, n, "homology"))
            for n in range(1, 6)}
    maps[0] = SparseMatrix(field, 0, spaces[0])
    window = ChainComplexWindow(range(5, -2, -1), spaces, maps)
    assert [window.homology_dim(n) for n in range(1, 5)] == [0] * 4
    # multiplication P_0 = A (x) A -> A is onto and kills the image of d_1,
    # and coker d_1 has dimension dim A, so that image is its kernel
    assert window.homology_dim(0) == A.dim
    table = A.structure_constants()
    for col in range(spaces[1]):
        image = {}
        for row in range(spaces[0]):
            v = maps[1].entry(row, col)
            hit = table.get((row % A.dim, row // A.dim))
            if v != field.zero and hit is not None:
                coeff, k = hit
                image[k] = field.add(image.get(k, field.zero),
                                     field.mul(v, coeff))
        assert all(v == field.zero for v in image.values())


def test_auto_routes_generic_c3_without_bar(monkeypatch):
    def forbidden(*args):
        raise AssertionError("bar complex assembled under auto")

    monkeypatch.setattr(hochschild_bar, "boundary_matrix", forbidden)
    monkeypatch.setattr(hochschild_bar, "coboundary_matrix", forbidden)
    field = QQ
    q = [[field.one, Fraction(2), Fraction(3, 5)],
         [Fraction(1, 2), field.one, Fraction(-7, 3)],
         [Fraction(5, 3), Fraction(-3, 7), field.one]]
    A = QciAlgebra(field, (2, 2, 3), q)
    for variant in ("homology", "cohomology"):
        for k in (-1, 0, 1):
            table = tate_dims(TateRequest(A, -3, 3, variant,
                                          nakayama_power=k))
            assert table.complete()
            assert {e.method for e in table.entries} == {"resolution"}
    cohomology = tate_dims(TateRequest(A, -3, 3, "cohomology"))
    assert cohomology.dims() == [0, 0, 0, 1, 3, 3, 1]


@pytest.mark.parametrize("A", [
    codim2_algebra(QQ, 2, 3, Fraction(2)),
    codim2_algebra(PrimeField(5), 3, 2, 2),
    C3_SPEC,
    QciAlgebra(PrimeField(5), (2, 2, 3), [[1, 2, 3], [3, 1, 4], [2, 4, 1]]),
], ids=["c2-QQ", "c2-GF5", "c3-QQ", "c3-GF5"])
def test_auto_route_builds_no_bimodule(monkeypatch, A):
    """Under auto the census halves and the splice window read A's
    characters; no Bimodule is constructed."""
    def forbidden(self, *args, **kwargs):
        raise AssertionError("Bimodule built under auto")

    monkeypatch.setattr(Bimodule, "__init__", forbidden)
    for variant in VARIANTS:
        for k in (-1, 0, 1):
            table = tate_dims(TateRequest(A, -4, 4, variant,
                                          nakayama_power=k))
            assert table.complete()
            assert {e.method for e in table.entries} == {"resolution"}


@pytest.mark.parametrize("A", [
    codim2_algebra(QQ, 2, 3, Fraction(2)),
    C3_SPEC,
    QciAlgebra(PrimeField(5), (2, 2, 3), [[1, 2, 3], [3, 1, 4], [2, 4, 1]]),
    QciAlgebra(PrimeField(3), (3, 3), [[1, 1], [1, 1]]),
    exterior_algebra(PrimeField(2), 3),
], ids=["c2-QQ", "c3-QQ", "c3-GF5", "c2-GF3-commutative", "exterior-GF2"])
def test_auto_route_builds_no_matrix(monkeypatch, A):
    """Under auto no degree, the splice degrees 0 and -1 included, builds a
    SparseMatrix or a ChainComplexWindow."""
    def forbidden(self, *args, **kwargs):
        raise AssertionError("matrix built under auto")

    monkeypatch.setattr(SparseMatrix, "__init__", forbidden)
    monkeypatch.setattr(ChainComplexWindow, "__init__", forbidden)
    for variant in VARIANTS:
        for k in (-1, 0, 1):
            table = tate_dims(TateRequest(A, -3, 3, variant,
                                          nakayama_power=k))
            assert table.complete()
            assert {e.method for e in table.entries} == {"resolution"}


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_doubled_character_fails_relation_check(field, variant):
    """Doubling one left character of x_0 breaks the relation of the two
    sides at that monomial, and the census refuses the algebra before it
    counts anything."""
    A = QciAlgebra(field, (2, 2, 3), C3_SPEC.q) if field is QQ else \
        QciAlgebra(field, (2, 2, 3), [[1, 2, 3], [3, 1, 4], [2, 4, 1]])
    row = A.generator_characters()[0]
    idx, target, a, b, d = row[0]
    row[0] = (idx, target, field.mul(2, a) if field.characteristic else 2 * a,
              b, d)
    with pytest.raises(ValueError, match="left and right actions commute "
                                         "fails for generators 0, 1 at "
                                         r"monomial \(0, 0, 0\)"):
        tate_dims(TateRequest(A, 2, 3, variant))


def test_characters_of_another_q_fail_relation_check():
    """Characters of an algebra with another q_01 agree among themselves,
    so the two sides commute, but they do not q-commute with A's q_01."""
    A = QciAlgebra(QQ, (2, 2, 3), C3_SPEC.q)
    q = [list(row) for row in C3_SPEC.q]
    q[0][1], q[1][0] = Fraction(3), Fraction(1, 3)
    A.generator_characters()[:] = \
        QciAlgebra(QQ, (2, 2, 3), q).generator_characters()
    with pytest.raises(ValueError, match="left actions q-commute fails for "
                                         r"generators 0, 1 at monomial "
                                         r"\(0, 0, 0\)"):
        tate_dims(TateRequest(A, -3, 3))


def test_budget_caps_largest_resolution_space(tmp_path):
    A = exterior_algebra(QQ, 3)
    # nu twist, so no closed form applies
    with pytest.raises(BudgetExceeded, match="degree 3 needs 120 basis"):
        TateWindow(A, 1, 1, 3, 119, "resolution")
    table = tate_dims(TateRequest(A, 1, 4, nakayama_power=1, budget=119))
    assert [d is None for d in table.dims()] == [False, False, True, True]
    assert table.entry(3).source == \
        "degree 3 needs 120 basis elements, budget is 119"
    spec = tmp_path / "ext.json"
    spec.write_text('{"field": {"type": "rational"}, "exponents": [2, 2, 2],'
                    ' "q": [["1", "-1", "-1"], ["-1", "1", "-1"],'
                    ' ["-1", "-1", "1"]]}')
    assert main(["dims", "--spec", str(spec), "--min", "1", "--max", "4",
                 "--coeff", "nu:1", "--budget", "119",
                 "--out", str(tmp_path / "out.csv")]) == EXIT_BUDGET


def corrupt_resolution(monkeypatch):
    """Make the resolution route's label census report -1 in every degree
    it serves (every degree outside the splice), leaving the bar windows
    alone."""
    monkeypatch.setattr(Census, "dimension", lambda self, n: -1)


def test_cross_validate_dumps_both_complexes(monkeypatch, tmp_path):
    A = codim2_algebra(PrimeField(5), 2, 2, 2)  # no formula, no delta
    corrupt_resolution(monkeypatch)
    rep = cross_validate(TateRequest(A, 1, 1), dump_dir=str(tmp_path))
    assert not rep["all_agree"]
    row = rep["degrees"][0]
    assert set(row["values"]) == {"resolution", "oracle"}
    assert sorted(os.path.basename(path) for path in row["dumps"]) == [
        f"degree1_{name}_map{deg}.txt"
        for name in ("oracle", "resolution") for deg in (1, 2)]


def test_cross_validate_dumps_cohomology_maps_around_degree(monkeypatch,
                                                            tmp_path):
    # cohomology degree d sits at degree -d - 1 of the spliced complex and
    # reads the maps out of it (-d - 1) and into it (-d)
    A = codim2_algebra(PrimeField(5), 2, 2, 2)
    corrupt_resolution(monkeypatch)
    rep = cross_validate(TateRequest(A, 1, 2, "cohomology"),
                         dump_dir=str(tmp_path))
    dumps = {row["degree"]: sorted(os.path.basename(path)
                                   for path in row["dumps"])
             for row in rep["degrees"]}
    assert dumps == {
        d: sorted(f"degree{d}_{name}_map{deg}.txt"
                  for name in ("oracle", "resolution") for deg in (-d - 1, -d))
        for d in (1, 2)}


def test_cross_validate_dumps_the_true_differential(monkeypatch, tmp_path):
    """A dump prints the differential itself, entry for entry as the
    reference formula gives it."""
    A = codim2_algebra(QQ, 2, 2, Fraction(2, 3))
    corrupt_resolution(monkeypatch)
    rep = cross_validate(TateRequest(A, 2, 2, nakayama_power=1),
                         dump_dir=str(tmp_path))
    assert not rep["all_agree"]
    B = nakayama_module(A, 1)
    for deg in (2, 3):
        reference = resolution_map(B, deg, "homology")
        expected = SparseMatrix(QQ, chain_space_dim(2, A.dim, deg - 1),
                                chain_space_dim(2, A.dim, deg),
                                ((i, k, v) for (i, k), v in reference.items()))
        path = tmp_path / f"degree2_resolution_map{deg}.txt"
        assert path.read_text(encoding="ascii") == expected.dump_coordinates()
