"""Sparse rank/kernel computations against dense elimination, plus windows."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from tatehh.exact_field import QQ, PrimeField
from tatehh.sparse_linalg import ChainComplexWindow, SparseMatrix

from oracles import dense_rank, of_int


def dense_of(M):
    return [[M.entry(i, j) for j in range(M.ncols)] for i in range(M.nrows)]


def random_matrix(field, rng, nrows, ncols, density=0.3, span=5):
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                v = of_int(field, rng.randrange(-span, span + 1))
                if v != field.zero:
                    entries[(i, j)] = v
    return SparseMatrix.from_dict(field, nrows, ncols, entries)


def test_construction_canonicalizes():
    M = SparseMatrix(QQ, 2, 3, [(0, 0, Fraction(1)), (1, 2, Fraction(0))])
    assert M.nnz == 1
    assert M.entry(1, 2) == 0
    with pytest.raises(ValueError, match="duplicate"):
        SparseMatrix(QQ, 2, 2, [(0, 0, QQ.one), (0, 0, QQ.one)])
    with pytest.raises(ValueError, match="outside"):
        SparseMatrix(QQ, 2, 2, [(2, 0, QQ.one)])


def test_rank_trivial_cases():
    assert SparseMatrix(QQ, 4, 7, []).rank() == 0
    assert SparseMatrix.identity(QQ, 3).rank() == 3
    assert SparseMatrix.identity(PrimeField(2), 5).rank() == 5


def test_rank_needs_exact_fallback():
    # rank 1 over Q, below min(nonzero rows, nonzero cols) = 2: a rank read
    # off that bound would be wrong
    M = SparseMatrix(QQ, 2, 2, [(0, 0, Fraction(1)), (0, 1, Fraction(2)),
                                (1, 0, Fraction(2)), (1, 1, Fraction(4))])
    assert M.rank() == 1


def test_rank_of_entry_vanishing_mod_prepass_prime():
    # the prime 2^61 - 1 divides the entry, so a rank taken modulo that
    # prime would miss it
    assert SparseMatrix(QQ, 1, 1, [(0, 0, Fraction(2**61 - 1))]).rank() == 1


def test_rank_with_vanishing_residue_beside_unit():
    # -(2^61 - 1)/4 occurs in the degree-39 map of the two-generator
    # complex for exponents (3, 2) and q = 2
    tiny = Fraction(-(2**61 - 1), 4)
    assert SparseMatrix(QQ, 1, 2, [(0, 0, tiny), (0, 1, QQ.one)]).rank() == 1
    # rank 1 mod 2^61 - 1, rank 2 over Q
    assert SparseMatrix(QQ, 2, 2, [(0, 0, tiny), (1, 1, QQ.one)]).rank() == 2


def test_rank_characteristic_dependence():
    F2, F3 = PrimeField(2), PrimeField(3)
    entries2 = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, of_int(F2, -1))]
    entries3 = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, of_int(F3, -1))]
    assert SparseMatrix(F2, 2, 2, entries2).rank() == 1
    assert SparseMatrix(F3, 2, 2, entries3).rank() == 2


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)],
                         ids=repr)
def test_rank_matches_dense_oracle(field):
    rng = random.Random(20240817)
    for _ in range(25):
        M = random_matrix(field, rng, rng.randrange(1, 9), rng.randrange(1, 9))
        assert M.rank() == dense_rank(field, dense_of(M))


def test_rank_equals_rank_of_transpose():
    rng = random.Random(5)
    for _ in range(20):
        M = random_matrix(QQ, rng, rng.randrange(1, 8), rng.randrange(1, 8))
        assert M.rank() == M.transpose().rank()


def test_rank_of_product_bounded():
    rng = random.Random(6)
    for _ in range(20):
        m, k, n = (rng.randrange(1, 7) for _ in range(3))
        A = random_matrix(QQ, rng, m, k)
        B = random_matrix(QQ, rng, k, n)
        assert A.compose(B).rank() <= min(A.rank(), B.rank())


def test_block_diagonal_rank_uses_components():
    # permuted direct sum of known blocks; elimination never mixes them
    rng = random.Random(99)
    blocks = []
    entries = {}
    offset_r, offset_c = 0, 0
    for _ in range(6):
        B = random_matrix(QQ, rng, rng.randrange(1, 5), rng.randrange(1, 5),
                          density=0.6)
        blocks.append(B)
        for i, j, v in B.entries():
            entries[(offset_r + i, offset_c + j)] = v
        offset_r += B.nrows
        offset_c += B.ncols
    rperm = list(range(offset_r))
    cperm = list(range(offset_c))
    rng.shuffle(rperm)
    rng.shuffle(cperm)
    M = SparseMatrix.from_dict(
        QQ, offset_r, offset_c,
        {(rperm[i], cperm[j]): v for (i, j), v in entries.items()})
    assert M.rank() == sum(dense_rank(QQ, dense_of(B)) for B in blocks)


def test_apply_add_scale_compose():
    A = SparseMatrix(QQ, 2, 2, [(0, 0, Fraction(1)), (0, 1, Fraction(2)),
                                (1, 1, Fraction(3))])
    v = {0: Fraction(1), 1: Fraction(1)}
    assert A.apply(v) == {0: Fraction(3), 1: Fraction(3)}
    S = A.add(A.scale(Fraction(-1)))
    assert S.is_zero()
    I = SparseMatrix.identity(QQ, 2)
    assert A.compose(I) == A
    assert I.compose(A) == A
    with pytest.raises(ValueError):
        A.compose(SparseMatrix(QQ, 3, 3, []))


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_kernel_basis_spans_null_space(field):
    rng = random.Random(31)
    for _ in range(15):
        M = random_matrix(field, rng, rng.randrange(1, 7), rng.randrange(1, 7))
        basis = M.kernel_basis()
        assert len(basis) == M.ncols - M.rank()
        for vec in basis:
            assert M.apply(vec) == {}
        # basis vectors are independent: distinct unit coordinates
        frees = [max(v) for v in basis]
        assert len(set(frees)) == len(basis)


def test_kernel_basis_deterministic_shape():
    M = SparseMatrix(QQ, 1, 3, [(0, 0, Fraction(1)), (0, 2, Fraction(2))])
    basis = M.kernel_basis()
    assert basis == [{1: Fraction(1)},
                     {2: Fraction(1), 0: Fraction(-2)}]


def test_dump_coordinates_format():
    M = SparseMatrix(QQ, 2, 3, [(1, 2, Fraction(-1, 2)), (0, 1, Fraction(3))])
    assert M.dump_coordinates() == "2 3 2\n0 1 3\n1 2 -1/2\n"


# ---------------------------------------------------------------------------
# properties of the elimination core on generated matrices
# ---------------------------------------------------------------------------

PREPASS_PRIME = 2 ** 61 - 1
QQ_SCALARS = [Fraction(v) for v in (-3, -2, -1, 1, 2, 3)] + [
    Fraction(1, 2), Fraction(-2, 3)]
# large prime numerators and denominators (2^61 - 1 is prime): half of all
# rational entries, so that clearing denominators and dividing by the gcd
# meet big integers, and a rank taken modulo that prime would often fall
# short
QQ_PREPASS_SCALARS = [
    Fraction(PREPASS_PRIME), Fraction(-PREPASS_PRIME, 4),
    Fraction(2 * PREPASS_PRIME, 3), Fraction(1, PREPASS_PRIME)]
FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]
PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                             max_examples=150)


def scalars(field):
    if field.characteristic == 0:
        return st.one_of(st.sampled_from(QQ_SCALARS),
                         st.sampled_from(QQ_PREPASS_SCALARS))
    return st.integers(1, field.p - 1)


def drawn_matrix(draw, field, nrows, ncols):
    mask = draw(st.lists(st.booleans(), min_size=nrows * ncols,
                         max_size=nrows * ncols))
    return SparseMatrix.from_dict(
        field, nrows, ncols,
        {divmod(k, ncols): draw(scalars(field))
         for k, chosen in enumerate(mask) if chosen})


@st.composite
def plain_matrices(draw, field, max_side=8):
    shape = draw(st.sampled_from(("square", "tall", "wide")))
    short, long_ = draw(st.integers(0, 3)), draw(st.integers(0, 12))
    nrows, ncols = {"square": (draw(st.integers(0, max_side)),) * 2,
                    "tall": (long_, short),
                    "wide": (short, long_)}[shape]
    return drawn_matrix(draw, field, nrows, ncols)


@st.composite
def low_rank_matrices(draw, field):
    left = draw(plain_matrices(field))
    right = drawn_matrix(draw, field, left.ncols, draw(st.integers(0, 8)))
    return left.compose(right)


@st.composite
def block_diagonal_matrices(draw, field):
    """A permuted direct sum; over QQ either as drawn or cleared of
    denominators to Python ints."""
    blocks = draw(st.lists(plain_matrices(field, max_side=4), min_size=1,
                           max_size=4))
    nrows = sum(B.nrows for B in blocks)
    ncols = sum(B.ncols for B in blocks)
    rperm = draw(st.permutations(range(nrows)))
    cperm = draw(st.permutations(range(ncols)))
    entries = {}
    offset_r = offset_c = 0
    for B in blocks:
        for i, j, v in B.entries():
            entries[(rperm[offset_r + i], cperm[offset_c + j])] = v
        offset_r += B.nrows
        offset_c += B.ncols
    if field.characteristic == 0 and draw(st.booleans()):
        den = lcm(*(v.denominator for v in entries.values()))
        entries = {key: v.numerator * (den // v.denominator)
                   for key, v in entries.items()}
    return SparseMatrix.from_dict(field, nrows, ncols, entries)


matrices = st.sampled_from(FIELDS).flatmap(
    lambda field: st.one_of(plain_matrices(field), low_rank_matrices(field),
                            block_diagonal_matrices(field)))


@PROPERTY_SETTINGS
@given(matrices)
def test_property_rank_matches_dense_oracle(M):
    assert M.rank() == dense_rank(M.field, dense_of(M))


@PROPERTY_SETTINGS
@given(matrices)
def test_property_rank_equals_rank_of_transpose(M):
    assert M.rank() == M.transpose().rank()


@PROPERTY_SETTINGS
@given(matrices)
def test_property_kernel_basis(M):
    field = M.field
    basis = M.kernel_basis()
    assert len(basis) == M.ncols - dense_rank(field, dense_of(M))
    for vec in basis:
        assert M.apply(vec) == {}
    # each vector owns a unit coordinate no other vector touches, and these
    # free columns increase along the basis
    previous = -1
    for k, vec in enumerate(basis):
        others = basis[:k] + basis[k + 1:]
        owned = [j for j, v in sorted(vec.items())
                 if v == field.one and j > previous
                 and not any(j in other for other in others)]
        assert owned
        previous = owned[0]
    dense = [[vec.get(j, field.zero) for j in range(M.ncols)] for vec in basis]
    assert dense_rank(field, dense) == len(basis)


def nonzero_scalars(field):
    if field.characteristic:
        return st.integers(1, field.p - 1)
    big = st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80).filter(bool),
                    st.integers(1, 2 ** 80))
    return st.one_of(scalars(field), big)


@st.composite
def row_scaled_pairs(draw, field):
    M = draw(st.one_of(plain_matrices(field), low_rank_matrices(field),
                       block_diagonal_matrices(field)))
    factors = [draw(nonzero_scalars(field)) for _ in range(M.nrows)]
    scaled = SparseMatrix(field, M.nrows, M.ncols,
                          ((i, j, field.mul(factors[i], v))
                           for i, j, v in M.entries()))
    return M, scaled


@PROPERTY_SETTINGS
@given(st.sampled_from(FIELDS).flatmap(row_scaled_pairs))
def test_property_row_scaling_keeps_rank_and_kernel_basis(pair):
    # elimination may scale its rows by any nonzero scalar: it clears
    # denominators and divides by gcds over QQ
    M, scaled = pair
    assert scaled.rank() == M.rank()
    assert scaled.kernel_basis() == M.kernel_basis()


# ---------------------------------------------------------------------------
# chain-complex windows
# ---------------------------------------------------------------------------

def window_for(field, degrees, spaces, maps):
    return ChainComplexWindow(degrees, spaces, maps)


def test_window_validates_shapes_and_composition():
    I = SparseMatrix.identity(QQ, 2)
    with pytest.raises(ValueError, match="shape"):
        window_for(QQ, [1, 0], {1: 3, 0: 2}, {1: I})
    # identity twice never composes to zero
    with pytest.raises(ValueError, match="compose"):
        window_for(QQ, [2, 1, 0], {2: 2, 1: 2, 0: 2}, {2: I, 1: I})
    with pytest.raises(ValueError, match="descend"):
        window_for(QQ, [0, 1], {0: 1, 1: 1}, {0: SparseMatrix(QQ, 1, 1, [])})


def test_window_homology_trivial_cases():
    # k --id--> k --0--> 0 is exact in the middle
    I = SparseMatrix.identity(QQ, 1)
    Z = SparseMatrix(QQ, 0, 1, [])
    W = ChainComplexWindow([1, 0, -1], {1: 1, 0: 1, -1: 0},
                           {1: I, 0: Z})
    # interior degree is 0: out-map is the zero map to the empty space
    assert W.homology_dim(0) == 0
    # both maps zero on a space of dimension m
    m = 5
    W2 = ChainComplexWindow([1, 0, -1], {1: 2, 0: m, -1: 3},
                            {1: SparseMatrix(QQ, m, 2, []),
                             0: SparseMatrix(QQ, 3, m, [])})
    assert W2.homology_dim(0) == m


def test_window_boundary_degree_rejected():
    Z = SparseMatrix(QQ, 1, 1, [])
    W = ChainComplexWindow([1, 0], {1: 1, 0: 1}, {1: Z})
    with pytest.raises(ValueError, match="interior"):
        W.homology_dim(1)
    with pytest.raises(ValueError, match="interior"):
        W.homology_dim(0)


def test_window_two_step_hand_case():
    # k --(1,-1)^T--> k^2 --(1,1)--> k, exact in the middle
    d2 = SparseMatrix(QQ, 2, 1, [(0, 0, Fraction(1)), (1, 0, Fraction(-1))])
    d1 = SparseMatrix(QQ, 1, 2, [(0, 0, Fraction(1)), (0, 1, Fraction(1))])
    W = ChainComplexWindow([2, 1, 0], {2: 1, 1: 2, 0: 1}, {2: d2, 1: d1})
    assert W.homology_dim(1) == 0
    # replacing the incoming map by zero leaves a one-dimensional homology
    W2 = ChainComplexWindow([2, 1, 0], {2: 1, 1: 2, 0: 1},
                            {2: SparseMatrix(QQ, 2, 1, []), 1: d1})
    assert W2.homology_dim(1) == 1


def test_window_homology_matches_dense_reference():
    rng = random.Random(77)
    for _ in range(10):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        D = random_matrix(QQ, rng, m, n)
        Z = SparseMatrix(QQ, 0, m, [])
        W = ChainComplexWindow([1, 0, -1], {1: n, 0: m, -1: 0},
                               {1: D, 0: Z})
        assert W.homology_dim(0) == m - dense_rank(QQ, dense_of(D))
