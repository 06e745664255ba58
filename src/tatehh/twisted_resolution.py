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

The summand block of s T_w depends only on w, the parity of i_w, the depths
D_v(i) for v != w and the parity of i_1 + ... + i_{w-1}.  D_v is injective
in i_v, so that key is w with i, i_w taken mod 2; the callable that
``ResolutionWindow.differentials`` returns keeps one table of blocks under
it, so every degree it builds shares each block and its q-powers.

Grading: when B is A with its monomial basis (a Nakayama twist), both
complexes are Z^c-graded.  The basis element x^m e_i (x^m in the summand of
e_i) has multidegree m + D(i) in homology and m - D(i) in cohomology, and
every differential preserves it, since x_w^j e' x_w^k has j + k =
D_w(i) - D_w(i - e_w).  The same callable's ``multidegrees(n)`` lists these
labels once per degree; a map built with them (``graded``) is split into
blocks of at most 2^c basis elements a side (per w, at most two values of
i_w fit a multidegree) and ranked block by block.
"""

from itertools import chain
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


def depth(a, k):
    """a floor(k / 2) + (k mod 2), which is D_v(i) for a = a_v, k = i_v."""
    return a * (k // 2) + k % 2


def _block(B, sandwiches, i, w, variant):
    """The map on one B summand induced by s T_w for the generator e_i, as
    one {row: scalar} dict per column."""
    A, field = B.algebra, B.field
    q, a = A.q, A.exponents[w]
    alpha, beta = field.one, field.one
    for v in range(w):
        alpha = field.mul(alpha, scalar_pow(field, q[v][w],
                                            depth(A.exponents[v], i[v])))
    for v in range(w + 1, A.c):
        beta = field.mul(beta, scalar_pow(field, q[w][v],
                                          depth(A.exponents[v], i[v])))
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


class _Assembly:
    """The maps of B (x) P (homology) or Hom(P, B) (cohomology) for one B.

    Every degree shares one table each of summand blocks, under the key of
    the module docstring, generator lists and multidegree labels.
    """

    def __init__(self, B, variant):
        self.B, self.variant = B, variant
        self.sandwiches = _sandwiches(B)
        self.blocks, self.bases, self.labels = {}, {}, {}
        # columns[v][k]: component v of the multidegree over the basis of
        # a summand with i_v = k
        self.columns = [[] for _ in range(B.algebra.c)]

    def generators(self, n):
        if n not in self.bases:
            self.bases[n] = generators(self.B.algebra.c, n)
        return self.bases[n]

    def multidegrees(self, n):
        """The Z^c multidegree of each basis element of degree n, in basis
        order, for B = A with its monomial basis (a Nakayama twist): x^m e_i
        has m + D(i) in homology and m - D(i) in cohomology."""
        if n not in self.labels:
            A = self.B.algebra
            sign = 1 if self.variant == "homology" else -1
            for a, coordinate, column in zip(A.exponents, zip(*A.monomials()),
                                             self.columns):
                for k in range(len(column), n + 1):
                    d = sign * depth(a, k)
                    column.append([m + d for m in coordinate])
            self.labels[n] = list(zip(*[
                chain.from_iterable(map(column.__getitem__, ks))
                for column, ks in zip(self.columns,
                                      zip(*self.generators(n)))]))
        return self.labels[n]

    def block(self, i, w):
        key = (w, i[:w] + (i[w] % 2,) + i[w + 1:])
        if key not in self.blocks:
            self.blocks[key] = _block(self.B, self.sandwiches, key[1], w,
                                      self.variant)
        return self.blocks[key]

    def __call__(self, n, graded=False):
        """The map of degree n: the boundary P_n -> P_{n-1} in homology
        (n >= 1), the coboundary from degree n to n + 1 in cohomology.
        ``graded`` (for B = A with its monomial basis) labels its rows and
        columns with their multidegrees."""
        B, variant = self.B, self.variant
        c, dim = B.algebra.c, B.dim
        top = n if variant == "homology" else n + 1
        index = {i: t for t, i in enumerate(self.generators(top - 1))}
        entries = []
        for t, i in enumerate(self.generators(top)):
            for w in range(c):
                if not i[w]:
                    continue
                s = index[i[:w] + (i[w] - 1,) + i[w + 1:]]
                row_off, col_off = (s * dim, t * dim) \
                    if variant == "homology" else (t * dim, s * dim)
                for col, column in enumerate(self.block(i, w)):
                    for row, v in column.items():
                        entries.append((row_off + row, col_off + col, v))
        rows, cols = (top - 1, top) if variant == "homology" \
            else (top, top - 1)
        labels = (self.multidegrees(rows), self.multidegrees(cols)) \
            if graded else None
        return SparseMatrix(B.field, chain_space_dim(c, dim, rows),
                            chain_space_dim(c, dim, cols), entries,
                            labels=labels)


class ResolutionWindow(HochschildWindow):
    """HH_n(A, B) or HH^n(A, B) for n = 0..n_max from the resolution."""

    @staticmethod
    def space_dim(A, dim_b, n):
        return chain_space_dim(A.c, dim_b, n)

    @staticmethod
    def differentials(B, variant):
        return _Assembly(B, variant)
