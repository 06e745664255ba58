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
further pinned against the bar complex, DeltaComplex and an unmemoised copy
of this formula in the tests.

The summand block of s T_w depends only on w, the parity of i_w, the depths
D_v(i) for v != w and the parity of i_1 + ... + i_{w-1}.  D_v is injective
in i_v, so that key is w with i, i_w taken mod 2; the callable that
``ResolutionWindow.differentials`` returns keeps one table of blocks under
it, so every degree it builds shares each block.

Scalars are integers: a block is kept as integer entries over one
denominator, in lowest terms, built from integer powers of the numerator
and denominator of each q_uv (cached per callable).  Over GF(p) the
integers are residues and the denominator is 1.  Called with a degree, the
callable divides back to the map itself; ``graded`` returns L_n d_n, with L_n
the lcm of the block denominators of degree n, whose entries are integers.
A nonzero multiple of a map has the same rank and composes to zero with
the same maps, so the homology of a window of such multiples is unchanged.

Grading: when B is A with its monomial basis (a Nakayama twist), both
complexes are Z^c-graded.  The basis element x^m e_i (x^m in the summand of
e_i) has multidegree m + D(i) in homology and m - D(i) in cohomology, and
every differential preserves it, since x_w^j e' x_w^k has j + k =
D_w(i) - D_w(i - e_w).  The same callable's ``multidegrees(n)`` lists these
labels once per degree; a map built with them (``graded``) is split into
blocks of at most 2^c basis elements a side (per w, at most two values of
i_w fit a multidegree) and ranked block by block, over QQ by fraction-free
integer elimination.
"""

from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm
from operator import mul

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
    """(den, {(w, k, j): entries}) for k + j in {1, a_w - 1}: the matrix of
    b -> x_w^k b x_w^j has the nonzero entries (row, col, v / den), with v
    an integer (a residue, and den = 1, over GF(p)) and one den for every
    matrix."""
    field, dim = B.field, B.dim
    out = {}
    for w, a in enumerate(B.algebra.exponents):
        left, right = [mat_identity(field, dim)], [mat_identity(field, dim)]
        for _ in range(a - 1):
            left.append(mat_mul(field, B.left[w], left[-1]))
            right.append(mat_mul(field, B.right[w], right[-1]))
        for k, j in {(1, 0), (0, 1)} | {(a - 1 - j, j) for j in range(a)}:
            out[(w, k, j)] = mat_mul(field, left[k], right[j])
    den = lcm(*(v.denominator for columns in out.values()
                for column in columns for v in column.values()))
    return den, {key: [(row, col, v.numerator * (den // v.denominator))
                       for col, column in enumerate(columns)
                       for row, v in column.items()]
                 for key, columns in out.items()}


def depth(a, k):
    """a floor(k / 2) + (k mod 2), which is D_v(i) for a = a_v, k = i_v."""
    return a * (k // 2) + k % 2


def _block(B, sandwiches, power, i, w, variant):
    """The map on one B summand induced by s T_w for the generator e_i, as
    (den, entries): its nonzero entries are (row, col, v / den), v an
    integer, in lowest terms.  Over GF(p) each v is a residue and den is 1.
    ``power(u, v, k)`` is q_uv^k as (numerator, denominator).
    """
    A = B.algebra
    a = A.exponents[w]
    # alpha = an / ad and beta = bn / bd
    an = ad = bn = bd = 1
    for v in range(w):
        num, den = power(v, w, depth(A.exponents[v], i[v]))
        an, ad = an * num, ad * den
    for v in range(w + 1, A.c):
        num, den = power(w, v, depth(A.exponents[v], i[v]))
        bn, bd = bn * num, bd * den
    sign = -1 if sum(i[:w]) % 2 else 1
    if i[w] % 2:
        den = ad * bd
        terms = [(an * bd, 1, 0), (-bn * ad, 0, 1)]
    else:
        # alpha^j beta^(a-1-j) over the common denominator (ad bd)^(a-1)
        den = (ad * bd) ** (a - 1)
        terms = [(an ** j * bd ** j * (bn * ad) ** (a - 1 - j), j, a - 1 - j)
                 for j in range(a)]
    den_s, matrices = sandwiches
    out = {}
    for scalar, j, k in terms:
        # x_w^j e' x_w^k: b -> x^k b x^j (homology), f -> x^j f x^k (cohomology)
        key = (w, k, j) if variant == "homology" else (w, j, k)
        scalar *= sign
        for row, col, v in matrices[key]:
            out[row, col] = out.get((row, col), 0) + scalar * v
    p = B.field.characteristic
    if p:
        return 1, [(row, col, v % p) for (row, col), v in out.items()
                   if v % p]
    den *= den_s
    g = gcd(den, *out.values())
    return den // g, [(row, col, v // g) for (row, col), v in out.items()
                      if v]


class _Assembly:
    """The maps of B (x) P (homology) or Hom(P, B) (cohomology) for one B.

    Every degree shares one table each of summand blocks, under the key of
    the module docstring, integer powers of the q_uv, generator lists and
    multidegree labels.
    """

    def __init__(self, B, variant):
        self.B, self.variant = B, variant
        self.sandwiches = _sandwiches(B)
        self.blocks, self.bases, self.labels, self.powers = {}, {}, {}, {}
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

    def power(self, u, v, k):
        """q_uv^k as (numerator, denominator), integers; over GF(p) the
        residue and 1."""
        key = (u, v, k)
        if key not in self.powers:
            x, p = self.B.algebra.q[u][v], self.B.field.characteristic
            self.powers[key] = (pow(x, k, p), 1) if p else \
                (x.numerator ** k, x.denominator ** k)
        return self.powers[key]

    def block(self, i, w):
        key = (w, i[:w] + (i[w] % 2,) + i[w + 1:])
        if key not in self.blocks:
            self.blocks[key] = _block(self.B, self.sandwiches, self.power,
                                      key[1], w, self.variant)
        return self.blocks[key]

    def __call__(self, n):
        """The map of degree n: the boundary P_n -> P_{n-1} in homology
        (n >= 1), the coboundary from degree n to n + 1 in cohomology."""
        return self._assemble(n, graded=False)[1]

    def graded(self, n):
        """(L, M) with M = L times the map of degree n, for B = A with its
        monomial basis: M has integer entries (residues over GF(p)) and its
        rows and columns labelled with their multidegrees, and L is the lcm
        of the block denominators (1 over GF(p))."""
        return self._assemble(n, graded=True)

    def _assemble(self, n, graded):
        B, variant = self.B, self.variant
        c, dim = B.algebra.c, B.dim
        top = n if variant == "homology" else n + 1
        index = {i: t for t, i in enumerate(self.generators(top - 1))}
        parts = []  # (row offset, column offset, den, entries) per summand
        for t, i in enumerate(self.generators(top)):
            for w in range(c):
                if not i[w]:
                    continue
                s = index[i[:w] + (i[w] - 1,) + i[w + 1:]]
                offsets = (s * dim, t * dim) if variant == "homology" \
                    else (t * dim, s * dim)
                parts.append(offsets + self.block(i, w))
        rows, cols = (top - 1, top) if variant == "homology" \
            else (top, top - 1)
        if graded:
            scale = lcm(*{den for _, _, den, _ in parts})
            labels = (self.multidegrees(rows), self.multidegrees(cols))
            parts = [(row_off, col_off, scale // den, entries)
                     for row_off, col_off, den, entries in parts]
            value = mul
        else:
            # every den is 1 over GF(p)
            scale, labels = 1, None
            value = Fraction if B.field.characteristic == 0 else mul
        return scale, SparseMatrix(
            B.field, chain_space_dim(c, dim, rows),
            chain_space_dim(c, dim, cols), (
                (row_off + row, col_off + col, value(v, x))
                for row_off, col_off, x, entries in parts
                for row, col, v in entries),
            labels=labels)


class ResolutionWindow(HochschildWindow):
    """HH_n(A, B) or HH^n(A, B) for n = 0..n_max from the resolution."""

    @staticmethod
    def space_dim(A, dim_b, n):
        return chain_space_dim(A.c, dim_b, n)

    @staticmethod
    def differentials(B, variant):
        return _Assembly(B, variant)
