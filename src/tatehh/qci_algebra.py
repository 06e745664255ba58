"""Finite-dimensional quantum complete intersections and their bimodules.

An algebra here is generated by x_1, ..., x_c subject to x_i^{a_i} = 0 and
x_i x_j = q_ij x_j x_i, with a_i >= 2 and q_ii = 1, q_ij q_ji = 1.  The
monomials x_c^{e_c} ... x_1^{e_1} with 0 <= e_w < a_w form a basis, indexed in
mixed radix with e_1 fastest.  Special cases: exterior algebras (all a_i = 2,
off-diagonal q = -1) and commutative truncated polynomial rings (all q = 1).

Bimodules are encoded by the action matrices of the generators on a chosen
basis, each a sparse_linalg.SparseMatrix; the left actions form an algebra
homomorphism, the right actions an antihomomorphism, and the two sides
commute.  Diagonal twists (automorphisms scaling each generator) give the
twisted bimodules used throughout, and the linear dual of a bimodule
transposes the actions and exchanges the sides.
"""

from fractions import Fraction
from math import prod

from .sparse_linalg import SparseMatrix


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

class QciAlgebra:
    """A quantum complete intersection with exact scalar arithmetic."""

    def __init__(self, field, exponents, q):
        exponents = tuple(exponents)
        if not exponents:
            raise ValueError("at least one generator is required")
        for w, a in enumerate(exponents):
            if not isinstance(a, int) or a < 2:
                raise ValueError(f"exponent a[{w}] must be an integer >= 2, got {a!r}")
        c = len(exponents)
        q = tuple(tuple(row) for row in q)
        if len(q) != c or any(len(row) != c for row in q):
            raise ValueError(f"commutation matrix must be {c}x{c}")
        one = field.one
        for i in range(c):
            if q[i][i] != one:
                raise ValueError(f"q[{i}][{i}] must be 1")
            for j in range(c):
                if q[i][j] == field.zero:
                    raise ValueError(f"q[{i}][{j}] must be a unit")
                if field.mul(q[i][j], q[j][i]) != one:
                    raise ValueError(f"q[{i}][{j}] * q[{j}][{i}] must be 1")
        self.field = field
        self.exponents = exponents
        self.c = c
        self.q = q
        self.dim = prod(exponents)
        # radix weights for the monomial index, e_1 fastest
        self._weights = []
        w = 1
        for a in exponents:
            self._weights.append(w)
            w *= a
        self._exps_cache = [self._index_to_exps(i) for i in range(self.dim)]
        self._struct = None
        self._powers, self._nakayama, self._characters = {}, {}, None
        self._checked = False

    # -- monomial indexing ---------------------------------------------------

    def monomial_index(self, exps):
        assert len(exps) == self.c
        idx = 0
        for e, a, w in zip(exps, self.exponents, self._weights):
            assert 0 <= e < a
            idx += e * w
        return idx

    def _index_to_exps(self, idx):
        exps = []
        for a in self.exponents:
            exps.append(idx % a)
            idx //= a
        return tuple(exps)

    def monomial_exps(self, idx):
        return self._exps_cache[idx]

    def monomials(self):
        return list(self._exps_cache)

    @property
    def top_index(self):
        """Index of the socle monomial x_c^{a_c-1} ... x_1^{a_1-1}."""
        return self.dim - 1

    def generator_exps(self, w):
        """Exponent tuple of x_w (1-based generator number)."""
        return tuple(1 if v == w - 1 else 0 for v in range(self.c))

    def generator_index(self, w):
        return self.monomial_index(self.generator_exps(w))

    # -- products ------------------------------------------------------------

    def q_power(self, u, v, k):
        """q_uv^k as the integers (numerator, denominator) of the reduced
        fraction over QQ, as (residue, 1) over GF(p).  Memoised; k may be
        negative, q_uv^-k being q_vu^k."""
        key = (u, v, k)
        hit = self._powers.get(key)
        if hit is None:
            if k < 0:
                hit = self.q_power(v, u, -k)
            else:
                x, p = self.q[u][v], self.field.characteristic
                hit = (pow(x, k, p), 1) if p else \
                    (x.numerator ** k, x.denominator ** k)
            self._powers[key] = hit
        return hit

    def scalar(self, num, den):
        """The field element num / den of integers; den is 1 over GF(p)."""
        p = self.field.characteristic
        return num % p if p else Fraction(num, den)

    def _reorder(self, exps1, exps2):
        """The product of q_uw^{m_u n_w} over u < w, for x^m = exps1 and
        x^n = exps2, as integers (numerator, denominator); over GF(p) an
        unreduced residue product and 1."""
        num = den = 1
        for w in range(1, self.c):
            if exps2[w]:
                for u in range(w):
                    if exps1[u]:
                        x, y = self.q_power(u, w, exps1[u] * exps2[w])
                        num, den = num * x, den * y
        return num, den

    def multiply_monomials(self, exps1, exps2):
        """Normal form of the product of two basis monomials.

        Returns (coefficient, exponent tuple) or None when a power x_w^{a_w}
        appears.  Reordering the word x^m x^n into descending generator
        order moves each x_w of the second factor past the m_u letters x_u,
        u < w, of the first, each move x_u x_w -> q_uw x_w x_u, so the
        coefficient is the product of q_uw^{m_u n_w} over u < w.
        """
        exps = tuple(m + n for m, n in zip(exps1, exps2))
        if any(e >= a for e, a in zip(exps, self.exponents)):
            return None
        return self.scalar(*self._reorder(exps1, exps2)), exps

    def generator_characters(self):
        """Per generator x_w (w 0-based), (idx, target, a, b, d) for each
        monomial x^e = idx with e_w + 1 < a_w: x_w x^e = (a / d) x^target
        and x^e x_w = (b / d) x^target, so a / d is the product of
        q_wi^{e_i} over i >= w and b / d that of q_jw^{e_j} over j <= w.
        Integers; over GF(p) a and b are residue products and d is 1.
        Memoised."""
        if self._characters is None:
            self._characters = []
            for w, a in enumerate(self.exponents):
                unit = self.generator_exps(w + 1)
                row = []
                for idx, exps in enumerate(self._exps_cache):
                    if exps[w] + 1 < a:
                        ln, ld = self._reorder(unit, exps)
                        rn, rd = self._reorder(exps, unit)
                        row.append((idx, idx + self._weights[w],
                                    ln * rd, rn * ld, ld * rd))
                self._characters.append(row)
        return self._characters

    def check_characters(self):
        """Once per algebra, check generator_characters() in integers (mod
        p over GF(p)) at every monomial m where both sides are defined: for
        u < v, x_u x_v m = q_uv x_v x_u m and m x_u x_v = q_uv m x_v x_u; for
        all u, v, x_u (m x_v) = (x_u m) x_v; nilpotency holds by the index
        ranges.  A failure raises ValueError naming the relation, the
        generators and the monomial."""
        if self._checked:
            return
        p = self.field.characteristic
        steps = [{idx: rest for idx, *rest in row}
                 for row in self.generator_characters()]
        for u, su in enumerate(steps):
            for v, sv in enumerate(steps):
                qn, qd = self.q_power(u, v, 1)
                for m, (mu, lu, ru, du) in su.items():
                    mv, lv, rv, dv = sv.get(m, (None,) * 4)
                    if mv not in su or mu not in sv:
                        continue
                    _, luv, ruv, duv = su[mv]  # x_v first, then x_u
                    _, lvu, rvu, dvu = sv[mu]  # x_u first, then x_v
                    # each relation as X / (dv duv) = Y / (du dvu)
                    relations = [("left and right actions commute",
                                  luv * rv, lu * rvu)]
                    if u < v:
                        relations += [
                            ("left actions q-commute",
                             qd * luv * lv, qn * lvu * lu),
                            ("right actions q-commute",
                             qn * rv * ruv, qd * ru * rvu)]
                    for name, x, y in relations:
                        diff = x * du * dvu - y * dv * duv
                        if diff % p if p else diff:
                            raise ValueError(
                                f"{name} fails for generators {u}, {v} at "
                                f"monomial {self._exps_cache[m]}")
        self._checked = True

    def structure_constants(self):
        """Cached basis-product table {(i, j): (coeff, k)}; zeros omitted."""
        if self._struct is None:
            table = {}
            for i in range(self.dim):
                ei = self._exps_cache[i]
                for j in range(self.dim):
                    res = self.multiply_monomials(ei, self._exps_cache[j])
                    if res is not None:
                        table[(i, j)] = (res[0], self.monomial_index(res[1]))
            self._struct = table
        return self._struct

    # -- Frobenius structure ---------------------------------------------------

    def nakayama(self, k=1):
        """Diagonal twist scalars of the k-th power of the Nakayama map.

        The automorphism scales x_w by the product of q_iw^{a_i - 1} over all
        generators i; its k-th power (k may be negative) by the product of
        q_iw^{k (a_i - 1)}.  Memoised.
        """
        hit = self._nakayama.get(k)
        if hit is None:
            alphas = []
            for w in range(self.c):
                num = den = 1
                for i, a in enumerate(self.exponents):
                    x, y = self.q_power(i, w, k * (a - 1))
                    num, den = num * x, den * y
                alphas.append(self.scalar(num, den))
            hit = self._nakayama[k] = tuple(alphas)
        return hit

    # -- diagonal twists -------------------------------------------------------

    def identity_twist(self):
        return tuple(self.field.one for _ in range(self.c))

    def validate_twist(self, f):
        if len(f) != self.c:
            raise ValueError(f"twist needs {self.c} scalars")
        for w, alpha in enumerate(f):
            if alpha == self.field.zero:
                raise ValueError(f"twist scalar {w} must be a unit")

    def describe(self):
        field = self.field
        return {
            "field": repr(field),
            "exponents": list(self.exponents),
            "q": [[field.to_str(v) for v in row] for row in self.q],
        }

    def __repr__(self):
        return f"QciAlgebra({self.field!r}, exponents={self.exponents})"


def exterior_algebra(field, c):
    """Exterior algebra on c generators: all exponents 2, off-diagonal q = -1."""
    minus_one = field.neg(field.one)
    q = [[field.one if i == j else minus_one for j in range(c)] for i in range(c)]
    return QciAlgebra(field, (2,) * c, q)


def truncated_polynomial_algebra(field, exponents):
    """Commutative complete intersection k[x_1..x_c]/(x_w^{a_w})."""
    c = len(exponents)
    q = [[field.one for _ in range(c)] for _ in range(c)]
    return QciAlgebra(field, exponents, q)


def codim2_algebra(field, a, b, q12):
    """Two generators, x^a = y^b = 0 and x y = q y x."""
    q = [[field.one, q12], [field.inv(q12), field.one]]
    return QciAlgebra(field, (a, b), q)


# ---------------------------------------------------------------------------
# bimodules
# ---------------------------------------------------------------------------


class Bimodule:
    """A finite-dimensional bimodule given by generator action matrices.

    ``left[w]`` is the SparseMatrix of the left action of x_{w+1} and
    ``right[w]`` that of the right action, all square of size ``dim``.
    Construction verifies the defining relations: left powers and right
    powers vanish at the algebra's exponents, left actions q-commute, right
    actions q-commute contravariantly, and the two sides commute.
    """

    def __init__(self, algebra, left, right, label=""):
        self.algebra = algebra
        self.field = algebra.field
        self.left = list(left)
        self.right = list(right)
        if len(self.left) != algebra.c or len(self.right) != algebra.c:
            raise ValueError("one action matrix per generator and side required")
        shapes = {m.shape for m in self.left + self.right}
        if len(shapes) != 1:
            raise ValueError("action matrices must share one shape")
        self.dim, ncols = shapes.pop()
        if self.dim != ncols:
            raise ValueError("action matrices must be square")
        self.label = label
        self._left_mono = {}
        self._right_mono = {}
        self.validate()

    def validate(self):
        A, L, R = self.algebra, self.left, self.right
        for w, a in enumerate(A.exponents):
            for side, m in (("left", L[w]), ("right", R[w])):
                power = m
                for _ in range(a - 1):
                    power = m.compose(power)
                if not power.is_zero():
                    raise ValueError(f"{side} action of generator {w} does not "
                                     f"nilpote at exponent {a}")
        # the relation of (j, i) is that of (i, j), as q_ji = 1 / q_ij
        for i in range(A.c):
            for j in range(A.c):
                if i < j:
                    q = A.q[i][j]
                    if L[i].compose(L[j]) != L[j].compose(L[i]).scale(q):
                        raise ValueError(f"left actions {i},{j} violate the "
                                         "commutation relation")
                    if R[j].compose(R[i]) != R[i].compose(R[j]).scale(q):
                        raise ValueError(f"right actions {i},{j} violate the "
                                         "commutation relation")
                if L[i].compose(R[j]) != R[j].compose(L[i]):
                    raise ValueError(f"left action {i} and right action {j} "
                                     "do not commute")

    # monomial actions: the left action is a homomorphism, so a normal-form
    # monomial acts by L_c^{e_c} ... L_1^{e_1}; on the right the factors apply
    # in word order, giving R_1^{e_1} ... R_c^{e_c}.  Each is one product
    # with the action of a shorter monomial: its outermost factor, the
    # highest generator present on the left and the lowest on the right,
    # times the rest.

    def left_monomial(self, mono_idx):
        return self._monomial(self._left_mono, self.left, mono_idx,
                              range(self.algebra.c - 1, -1, -1))

    def right_monomial(self, mono_idx):
        return self._monomial(self._right_mono, self.right, mono_idx,
                              range(self.algebra.c))

    def _monomial(self, cache, actions, mono_idx, outer_first):
        """The monomial's action, its outermost factor being the action of
        the first generator of ``outer_first`` it contains; memoised."""
        mat = cache.get(mono_idx)
        if mat is None:
            exps = self.algebra.monomial_exps(mono_idx)
            w = next((w for w in outer_first if exps[w]), None)
            if w is None:
                mat = SparseMatrix.identity(self.field, self.dim)
            else:
                rest = mono_idx - self.algebra.generator_index(w + 1)
                mat = actions[w].compose(
                    self._monomial(cache, actions, rest, outer_first))
            cache[mono_idx] = mat
        return mat

    def __repr__(self):
        tag = f" {self.label}" if self.label else ""
        return f"Bimodule(dim={self.dim}{tag})"


def twisted_bimodule(algebra, f=None, g=None, label=None):
    """The algebra itself, left action twisted by f and right action by g.

    f and g are diagonal twists (tuples of unit scalars per generator); None
    means the identity.  With both identities this is the regular bimodule.
    """
    A = algebra
    field, dim = A.field, A.dim
    if f is None:
        f = A.identity_twist()
    if g is None:
        g = A.identity_twist()
    A.validate_twist(f)
    A.validate_twist(g)
    table = A.structure_constants()

    def action(scalar, products):
        """x^j -> scalar * coeff x^k for each (j, (coeff, k))."""
        return SparseMatrix(field, dim, dim, (
            (k, j, field.mul(scalar, coeff)) for j, (coeff, k) in products))

    left, right = [], []
    for w in range(A.c):
        gi = A.generator_index(w + 1)
        left.append(action(f[w], ((j, table[gi, j]) for j in range(dim)
                                  if (gi, j) in table)))
        right.append(action(g[w], ((j, table[j, gi]) for j in range(dim)
                                   if (j, gi) in table)))
    if label is None:
        label = "regular"
        if any(v != field.one for v in f) or any(v != field.one for v in g):
            label = "twisted"
    return Bimodule(A, left, right, label=label)


def dual_bimodule(B, label=None):
    """The linear dual: actions transposed, sides exchanged."""
    left = [m.transpose() for m in B.right]
    right = [m.transpose() for m in B.left]
    if label is None:
        label = f"dual({B.label})" if B.label else "dual"
    return Bimodule(B.algebra, left, right, label=label)
