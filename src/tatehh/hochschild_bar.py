"""Hochschild homology and cohomology of a bimodule via the bar complexes.

This is the package's brute-force route: the chain spaces are B tensor the
n-fold tensor power of the algebra (homology) or maps from that tensor power
to B (cohomology), on the monomial tensor basis, indexed in mixed radix with
the B coordinate fastest.  Differentials are assembled entry by entry from
the cached structure-constant table, handed to ChainComplexWindow (which
re-verifies composition-zero), and dimensions are read off per degree.

The boundary of b tensor lambda_1 ... lambda_n is
    b lambda_1 (x) lambda_2 ... + sum_i (-1)^i b (x) ... lambda_i lambda_{i+1} ...
    + (-1)^n lambda_n b (x) lambda_1 ... lambda_{n-1},
and the coboundary of f takes lambda_1 ... lambda_{n+1} to
    lambda_1 f(lambda_2 ...) + sum_i (-1)^i f(... lambda_i lambda_{i+1} ...)
    + (-1)^{n+1} f(lambda_1 ... lambda_n) lambda_{n+1}.

Space sizes grow as (dim B) (dim A)^n, so requests carry an element budget;
exceeding it raises BudgetExceeded naming the first unaffordable degree.
"""

from collections import namedtuple

from .sparse_linalg import ChainComplexWindow, SparseMatrix

DEFAULT_BUDGET = 5_000_000


class BudgetExceeded(Exception):
    """A requested degree needs more basis elements than the budget allows."""

    def __init__(self, degree, needed, budget):
        self.degree = degree
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"degree {degree} needs {needed} basis elements, budget is {budget}")


class BarWindowRequest(namedtuple(
        "BarWindowRequest", ("coefficients", "n_max", "direction", "budget"),
        defaults=(DEFAULT_BUDGET,))):
    """A finite window of Hochschild dimensions to compute.

    direction is "homology" or "cohomology"; the budget caps the dimension
    (dim B) * (dim A)^(n+1) of the largest chain space a degree-n value needs.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("n_max", "budget"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, not {value!r}")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.n_max < 0:
            raise ValueError("n_max must be non-negative")
        if self.direction not in ("homology", "cohomology"):
            raise ValueError(f"unknown direction {self.direction!r}")
        return self

    @property
    def algebra(self):
        return self.coefficients.algebra


def _tuple_index_decode(idx, dim_a, n):
    out = []
    for _ in range(n):
        out.append(idx % dim_a)
        idx //= dim_a
    return out


def _monomial_columns(B):
    """The left and the right action of each monomial of A on B, indexed
    by monomial, each as its columns: lists of (row, value)."""
    sides = ([], [])
    for m in range(B.algebra.dim):
        for side, action in zip(sides, (B.left_monomial(m),
                                        B.right_monomial(m))):
            cols = [[] for _ in range(B.dim)]
            for row, col, v in action.entries():
                cols[col].append((row, v))
            side.append(cols)
    return sides


def boundary_matrix(B, n):
    """The n-th homology boundary, mapping degree n to degree n - 1."""
    A = B.algebra
    field = B.field
    dim_a, dim_b = A.dim, B.dim
    table = A.structure_constants()
    minus_one = field.neg(field.one)
    entries = {}

    def acc(row, col, val):
        cur = entries.get((row, col))
        cur = val if cur is None else field.add(cur, val)
        if cur:
            entries[(row, col)] = cur
        else:
            entries.pop((row, col), None)

    last_sign = field.one if n % 2 == 0 else minus_one
    lefts, rights = _monomial_columns(B)
    for tup_idx in range(dim_a ** n):
        tup = _tuple_index_decode(tup_idx, dim_a, n)
        tail_idx = tup_idx // dim_a
        head_idx = tup_idx % (dim_a ** (n - 1))
        # inner products lambda_i lambda_{i+1}, positions i = 1..n-1
        inner = []
        weight = 1
        for i in range(1, n):
            hit = table.get((tup[i - 1], tup[i]))
            if hit is not None:
                coeff, prod = hit
                sign = field.one if i % 2 == 0 else minus_one
                # the two merged slots i-1, i collapse into one slot
                low = tup_idx % weight
                high = tup_idx // (weight * dim_a * dim_a)
                new_idx = low + prod * weight + high * weight * dim_a
                inner.append((field.mul(sign, coeff), new_idx))
            weight *= dim_a
        right_col = rights[tup[0]]
        left_col = lefts[tup[-1]]
        for beta in range(dim_b):
            col = beta + dim_b * tup_idx
            for row_b, v in right_col[beta]:
                acc(row_b + dim_b * tail_idx, col, v)
            for v, new_idx in inner:
                acc(beta + dim_b * new_idx, col, v)
            for row_b, v in left_col[beta]:
                acc(row_b + dim_b * head_idx, col, field.mul(last_sign, v))
    return SparseMatrix.from_dict(field, dim_b * dim_a ** (n - 1),
                                  dim_b * dim_a ** n, entries)


def coboundary_matrix(B, n):
    """The n-th cohomology coboundary, mapping cochain degree n to n + 1."""
    A = B.algebra
    field = B.field
    dim_a, dim_b = A.dim, B.dim
    minus_one = field.neg(field.one)
    factorizations = {}
    for (s, t), (coeff, r) in A.structure_constants().items():
        factorizations.setdefault(r, []).append((s, t, coeff))
    entries = {}

    def acc(row, col, val):
        cur = entries.get((row, col))
        cur = val if cur is None else field.add(cur, val)
        if cur:
            entries[(row, col)] = cur
        else:
            entries.pop((row, col), None)

    last_sign = field.one if (n + 1) % 2 == 0 else minus_one
    top_weight = dim_a ** n
    lefts, rights = _monomial_columns(B)
    for tup_idx in range(dim_a ** n):
        tup = _tuple_index_decode(tup_idx, dim_a, n)
        # splitting slot i of the argument tuple, positions i = 1..n
        splits = []
        weight = 1
        for i in range(1, n + 1):
            low = tup_idx % weight
            high = tup_idx // (weight * dim_a)
            sign = field.one if i % 2 == 0 else minus_one
            for s, t, coeff in factorizations.get(tup[i - 1], ()):
                new_idx = low + s * weight + t * weight * dim_a \
                    + high * weight * dim_a * dim_a
                splits.append((field.mul(sign, coeff), new_idx))
            weight *= dim_a
        for beta in range(dim_b):
            col = beta + dim_b * tup_idx
            for m0 in range(dim_a):
                row_idx = m0 + dim_a * tup_idx
                for row_b, v in lefts[m0][beta]:
                    acc(row_b + dim_b * row_idx, col, v)
                row_idx = tup_idx + top_weight * m0
                for row_b, v in rights[m0][beta]:
                    acc(row_b + dim_b * row_idx, col, field.mul(last_sign, v))
            for v, new_idx in splits:
                acc(beta + dim_b * new_idx, col, v)
    return SparseMatrix.from_dict(field, dim_b * dim_a ** (n + 1),
                                  dim_b * dim_a ** n, entries)


class BarWindow(ChainComplexWindow):
    """HH_n(A, B) or HH^n(A, B) for n = 0..n_max from the bar complexes,
    (dim B)(dim A)^n coordinates in degree n.

    Degree n reads the space of degree n + 1, so the budget caps those sizes
    up to n_max + 1.  Homology degree n sits at chain degree n and
    cohomology degree n at chain degree -n - 1, as in the spliced complex
    (tate_engine.TateWindow): every coboundary is then a map of chain
    degree -1, the composition-zero check of ChainComplexWindow applies
    verbatim, and a zero space below degree 0 makes every degree 0..n_max
    interior.
    """

    def __init__(self, B, n_max, variant="homology", budget=DEFAULT_BUDGET):
        BarWindowRequest(B, n_max, variant, budget)  # checks the arguments
        self.n_max, self.variant = n_max, variant
        A = B.algebra
        sizes = [self.space_dim(A, B.dim, n) for n in range(n_max + 2)]
        for n in range(n_max + 1):
            if sizes[n + 1] > budget:
                raise BudgetExceeded(n, sizes[n + 1], budget)
        d = self.differentials(B, variant)
        if variant == "homology":
            spaces = {-1: 0, **dict(enumerate(sizes))}
            maps = {n: d(n) for n in range(1, n_max + 2)}
            maps[0] = SparseMatrix(A.field, 0, sizes[0])
        else:
            spaces = {0: 0, **{-n - 1: size for n, size in enumerate(sizes)}}
            maps = {-n - 1: d(n) for n in range(n_max + 1)}
            maps[0] = SparseMatrix(A.field, sizes[0], 0)
        super().__init__(sorted(spaces, reverse=True), spaces, maps)

    @staticmethod
    def space_dim(A, dim_b, n):
        return dim_b * A.dim ** n

    @staticmethod
    def differentials(B, variant):
        if variant == "homology":
            return lambda n: boundary_matrix(B, n)
        return lambda n: coboundary_matrix(B, n)

    def dimension(self, n):
        """dim HH_n (homology) or HH^n (cohomology), 0 <= n <= n_max."""
        if not 0 <= n <= self.n_max:
            raise ValueError(f"degree {n} outside window [0, {self.n_max}]")
        return self.homology_dim(n if self.variant == "homology" else -n - 1)

    def dimensions(self):
        """[dimension(n) for n = 0..n_max]."""
        return [self.dimension(n) for n in range(self.n_max + 1)]


def hh_homology_dims(req):
    """Hochschild homology dimensions for degrees 0..n_max."""
    if req.direction != "homology":
        raise ValueError("request direction must be homology")
    return BarWindow(req.coefficients, req.n_max, "homology",
                     req.budget).dimensions()


def hh_cohomology_dims(req):
    """Hochschild cohomology dimensions for degrees 0..n_max."""
    if req.direction != "cohomology":
        raise ValueError("request direction must be cohomology")
    return BarWindow(req.coefficients, req.n_max, "cohomology",
                     req.budget).dimensions()
