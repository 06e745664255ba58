"""Hochschild (co)homology from the twisted-tensor bimodule resolution.

A quantum complete intersection is the q-twisted tensor product of the
algebras k[x_w]/(x_w^{a_w}), so its bimodule resolution P is the twisted
tensor product of their 2-periodic resolutions (Bergh-Oppermann, Cohomology
of twisted tensor products, J. Algebra 2008).  P_n is the free A^e-module on
generators e_i, one per i in N^c with |i| = n, so B (x)_{A^e} P and
Hom_{A^e}(P, B) hold binom(n+c-1, c-1) copies of B in degree n, against
(dim B)(dim A)^n for the bar complex.

With D_v(i) = a_v floor(i_v / 2) + (i_v mod 2) the internal degree of the
v-th factor, e' = e_{i - e_w} and s = (-1)^{i_1 + ... + i_{w-1}},

    d(e_i) = sum over w with i_w > 0 of s T_w,

    T_w = (prod_{v<w} q_vw^{D_v}) x_w e' - (prod_{v>w} q_wv^{D_v}) e' x_w
                                                            (i_w odd),
    T_w = sum_{j=0}^{a_w-1} (prod_{v<w} q_vw^{j D_v})
              (prod_{v>w} q_wv^{(a_w-1-j) D_v}) x_w^j e' x_w^{a_w-1-j}
                                                            (i_w even).

A term x_w^j e' x_w^k acts on a B summand as b -> x_w^k b x_w^j in homology
and f -> x_w^j f x_w^k in cohomology.  Windows are ChainComplexWindows, so
composition-zero is re-checked at construction; the twisting scalars are
further pinned against the bar complex and DeltaComplex in the tests.
"""

from math import comb

from .exact_field import scalar_pow
from .hochschild_bar import HochschildWindow
from .qci_algebra import mat_identity, mat_mul
from .sparse_linalg import SparseMatrix


def generators(c, n):
    """The exponent vectors i in N^c with |i| = n, in a fixed order."""
    if c == 1:
        return [(n,)]
    return [(h,) + rest for h in range(n, -1, -1)
            for rest in generators(c - 1, n - h)]


def chain_space_dim(c, dim_b, n):
    """binom(n+c-1, c-1) dim B, the size of degree n of either complex."""
    return comb(n + c - 1, c - 1) * dim_b


def _sandwiches(B):
    """{(w, k, j): matrix of b -> x_w^k b x_w^j} for k + j in {1, a_w - 1}."""
    field, dim = B.field, B.dim
    out = {}
    for w, a in enumerate(B.algebra.exponents):
        left, right = [mat_identity(field, dim)], [mat_identity(field, dim)]
        for _ in range(a - 1):
            left.append(mat_mul(field, B.left[w], left[-1]))
            right.append(mat_mul(field, B.right[w], right[-1]))
        for k, j in {(1, 0), (0, 1)} | {(a - 1 - j, j) for j in range(a)}:
            out[(w, k, j)] = mat_mul(field, left[k], right[j])
    return out


def _block(B, sandwiches, i, w, variant):
    """The map on one B summand induced by s T_w for the generator e_i."""
    A, field = B.algebra, B.field
    q, a = A.q, A.exponents[w]
    depth = [av * (iv // 2) + iv % 2 for av, iv in zip(A.exponents, i)]
    alpha, beta = field.one, field.one
    for v in range(w):
        alpha = field.mul(alpha, scalar_pow(field, q[v][w], depth[v]))
    for v in range(w + 1, A.c):
        beta = field.mul(beta, scalar_pow(field, q[w][v], depth[v]))
    sign = field.one if sum(i[:w]) % 2 == 0 else field.neg(field.one)
    if i[w] % 2:
        terms = [(alpha, 1, 0), (field.neg(beta), 0, 1)]
    else:
        terms = [(field.mul(scalar_pow(field, alpha, j),
                            scalar_pow(field, beta, a - 1 - j)), j, a - 1 - j)
                 for j in range(a)]
    out = [dict() for _ in range(B.dim)]
    for scalar, j, k in terms:
        # x_w^j e' x_w^k: b -> x^k b x^j (homology), f -> x^j f x^k (cohomology)
        key = (w, k, j) if variant == "homology" else (w, j, k)
        scalar = field.mul(sign, scalar)
        for col, column in enumerate(sandwiches[key]):
            target = out[col]
            for row, v in column.items():
                val = field.add(target.get(row, field.zero),
                                field.mul(scalar, v))
                if val == field.zero:
                    target.pop(row, None)
                else:
                    target[row] = val
    return out


def _differential(B, n, variant, sandwiches):
    """The map of degree n: the boundary P_n -> P_{n-1} in homology
    (n >= 1), the coboundary from degree n to n + 1 in cohomology."""
    c, dim = B.algebra.c, B.dim
    top = n if variant == "homology" else n + 1
    index = {i: t for t, i in enumerate(generators(c, top - 1))}
    entries = []
    for t, i in enumerate(generators(c, top)):
        for w in range(c):
            if not i[w]:
                continue
            s = index[i[:w] + (i[w] - 1,) + i[w + 1:]]
            row_off, col_off = (s, t) if variant == "homology" else (t, s)
            block = _block(B, sandwiches, i, w, variant)
            for col, column in enumerate(block):
                for row, v in column.items():
                    entries.append((row_off * dim + row, col_off * dim + col, v))
    lower = chain_space_dim(c, dim, top - 1)
    upper = chain_space_dim(c, dim, top)
    shape = (lower, upper) if variant == "homology" else (upper, lower)
    return SparseMatrix(B.field, *shape, entries)


class ResolutionWindow(HochschildWindow):
    """HH_n(A, B) or HH^n(A, B) for n = 0..n_max from the resolution."""

    @staticmethod
    def space_dim(A, dim_b, n):
        return chain_space_dim(A.c, dim_b, n)

    @staticmethod
    def differentials(B, variant):
        sandwiches = _sandwiches(B)
        return lambda n: _differential(B, n, variant, sandwiches)
