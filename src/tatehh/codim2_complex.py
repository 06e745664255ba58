"""The explicit small complex for two generators with a generic q.

For A = k<X,Y>/(X^a, XY - qYX, Y^b) with q of infinite multiplicative order,
the Hochschild homology of the inverse-Nakayama-twisted bimodule is the
homology of a complex whose degree-n space is n + 1 copies of A, written
(+)_{i=0..n} A e^n_i, with differentials given case by case through eight
scalars K_1..K_8 in q.  Each map sends a basis element y^u x^v e^n_i to at
most two terms one summand lower, where output monomials like y^{u+b-1} x^v
survive only when the shifted exponent stays below the nilpotency bound, and
summands e^{n-1}_j exist only for 0 <= j <= n-1.

The K_m accessor evaluates the published expressions verbatim, rejecting any
call whose parity/range side condition fails (the half-integer exponents are
integral exactly under those conditions).  In the assembled differential the
K_7 term carries a minus sign: with all eight terms taken positively the
squares delta_{2t} o delta_{2t+1} do not vanish (the K_7/K_4 and K_7/K_2
cross terms add instead of cancelling), and flipping the K_7 term is the
unique single-term correction compatible with every composition constraint;
the construction-time composition check enforces this choice.

Everything here refuses prime fields and rational roots of unity: the
hypotheses require a commutation scalar of infinite order.

No table entry is computed here: the twisted-tensor resolution serves these
degrees, and this complex is the independent reference that checks it (the
verify codim2 suite and the tests).
"""

from .exact_field import scalar_pow
from .sparse_linalg import ChainComplexWindow, SparseMatrix


def _require_generic_codim2(A):
    if A.c != 2:
        raise ValueError("this route needs exactly two generators")
    q = A.q[0][1]
    if A.field.is_root_of_unity(q):
        raise ValueError(
            f"commutation scalar {A.field.to_str(q)} over {A.field!r} is a "
            "root of unity; an infinite-order scalar is required")
    return q


class KScalarTable:
    """The eight coefficient scalars of the two-generator complex."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.q = _require_generic_codim2(algebra)
        self.field = algebra.field
        self.a, self.b = algebra.exponents

    def _geometric(self, count, exponent):
        """1 + q^e + q^{2e} + ... with count summands."""
        field = self.field
        step = scalar_pow(field, self.q, exponent)
        total = field.zero
        power = field.one
        for _ in range(count):
            total = field.add(total, power)
            power = field.mul(power, step)
        return total

    def _half(self, numerator, m):
        if numerator % 2:
            raise ValueError(f"K_{m} exponent {numerator}/2 is not integral; "
                             "side condition violated")
        return numerator // 2

    def k_scalar(self, m, t, i, u, v):
        """K_m(t, i, u, v), validating the parity/range side condition."""
        if min(t, i, u, v) < 0:
            raise ValueError("parameters must be non-negative")
        if m in (1, 2, 5, 6):
            if i % 2 or i > 2 * t:
                raise ValueError(f"K_{m} needs i even with i <= 2t, "
                                 f"got i={i}, t={t}")
        elif m in (3, 4):
            if i % 2 == 0 or i > 2 * t - 1:
                raise ValueError(f"K_{m} needs i odd with i <= 2t-1, "
                                 f"got i={i}, t={t}")
        elif m in (7, 8):
            if i % 2 == 0 or i > 2 * t + 1:
                raise ValueError(f"K_{m} needs i odd with i <= 2t+1, "
                                 f"got i={i}, t={t}")
        else:
            raise ValueError(f"no scalar K_{m}")
        field, a, b = self.field, self.a, self.b
        if m == 1:
            lead = scalar_pow(field, self.q, a + b - a * b - 1)
            return field.mul(lead,
                             self._geometric(b, a + self._half(a * i, m) + v - 1))
        if m == 2:
            return self._geometric(a, b * t + b - self._half(b * i, m) + u - 1)
        if m == 3:
            return field.sub(
                scalar_pow(field, self.q, self._half(a * i - a + 2 + 2 * v, m)),
                scalar_pow(field, self.q, 1 - a))
        if m == 4:
            return field.sub(
                scalar_pow(field, self.q,
                           self._half(2 * b * t - b * i + b + 2 * u, m)),
                field.one)
        if m == 5:
            return field.sub(
                scalar_pow(field, self.q, 1 - a),
                scalar_pow(field, self.q, self._half(a * i + 2 * v, m)))
        if m == 6:
            return self._geometric(a, b * t + b - self._half(b * i, m) + u)
        if m == 7:
            lead = scalar_pow(field, self.q, a + b - a * b - 1)
            return field.mul(
                lead, self._geometric(b, a + self._half(a * (i - 1), m) + v))
        return field.sub(
            scalar_pow(field, self.q,
                       self._half(2 * b * t - b * i + 3 * b + 2 * u - 2, m)),
            field.one)


class DeltaComplex:
    """The complex (+)_i A e^n_i for degrees 0..max_degree."""

    def __init__(self, algebra, max_degree):
        if max_degree < 1:
            raise ValueError("need at least one differential")
        self.table = KScalarTable(algebra)
        self.algebra = algebra
        self.max_degree = max_degree
        dim_a = algebra.dim
        degrees = list(range(max_degree, -1, -1))
        spaces = {n: (n + 1) * dim_a for n in range(max_degree + 1)}
        maps = {n: self._delta(n) for n in range(1, max_degree + 1)}
        self.window = ChainComplexWindow(degrees, spaces, maps)

    def _mono(self, u, v):
        # basis monomial y^u x^v: first-generator (x) exponent is v
        return self.algebra.monomial_index((v, u))

    def _delta(self, n):
        A = self.algebra
        field = A.field
        table = self.table
        a, b = table.a, table.b
        dim_a = A.dim
        entries = {}

        def emit(i_target, u_target, v_target, coeff, col):
            if coeff == field.zero:
                raise ArithmeticError(
                    "vanishing coefficient in the two-generator complex; "
                    "the hypotheses exclude this")
            row = self._mono(u_target, v_target) + dim_a * i_target
            entries[(row, col)] = coeff

        t = n // 2
        odd = n % 2
        for i in range(n + 1):
            for u in range(b):
                for v in range(a):
                    col = self._mono(u, v) + dim_a * i
                    if not odd and i % 2 == 0:
                        if u == 0 and i <= n - 1:
                            emit(i, b - 1, v, table.k_scalar(1, t, i, u, v), col)
                        if v == 0 and i >= 1:
                            emit(i - 1, u, a - 1, table.k_scalar(2, t, i, u, v), col)
                    elif not odd:
                        if u + 1 <= b - 1:
                            emit(i, u + 1, v, table.k_scalar(3, t, i, u, v), col)
                        if v + 1 <= a - 1:
                            emit(i - 1, u, v + 1, table.k_scalar(4, t, i, u, v), col)
                    elif i % 2 == 0:
                        if u + 1 <= b - 1:
                            emit(i, u + 1, v, table.k_scalar(5, t, i, u, v), col)
                        if v == 0 and i >= 1:
                            emit(i - 1, u, a - 1, table.k_scalar(6, t, i, u, v), col)
                    else:
                        if u == 0 and i <= n - 1:
                            # sign forced by the composition-zero constraints
                            emit(i, b - 1, v,
                                 field.neg(table.k_scalar(7, t, i, u, v)), col)
                        if v + 1 <= a - 1:
                            emit(i - 1, u, v + 1, table.k_scalar(8, t, i, u, v), col)
        return SparseMatrix.from_dict(field, n * dim_a, (n + 1) * dim_a, entries)

    def delta(self, n):
        return self.window.maps[n]

    def kernel_dim(self, n):
        m = self.delta(n)
        return m.ncols - m.rank()

    def homology_dim(self, n):
        return self.window.homology_dim(n)


def expected_kernel_dim(algebra, n):
    """The published closed kernel count: ab t + ab - 1 at n = 2t, and
    ab t + ab + 1 at n = 2t + 1."""
    ab = algebra.dim
    t = n // 2
    return ab * t + ab - (1 if n % 2 == 0 else -1)
