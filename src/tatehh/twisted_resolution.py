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
and f -> x_w^j f x_w^k in cohomology.  The spliced reference window
(tate_engine.TateWindow) re-checks composition-zero at construction; the
tests pin the scalars to the bar complex, DeltaComplex and an unmemoised
copy of this formula.

Coefficients are B = nu^j: A with x_w . b = nu_w^j x_w b, nu_w =
prod_i q_iw^(a_i - 1).  With the characters x_w x^e = L_w(e) x^(e + e_w)
and x^e x_w = R_w(e) x^(e + e_w) (QciAlgebra.generator_characters), each
sandwich b -> x_w^k b x_w^l is a weighted shift (``sandwiches``):

    x^e -> nu_w^(jk) R_w(e) ... R_w(e + (l-1) e_w)
           L_w(e + l e_w) ... L_w(e + (k+l-1) e_w) x^(e + (k+l) e_w).

So no Bimodule is built: Assembly and Census take (A, j).  What a
Bimodule checks of its actions (left actions q-commute, right ones too, the
sides commute) QciAlgebra.check_characters checks of L and R, once per
algebra: nu_w^j scales both sides of each relation alike, so the check
holds for every j.

The block of s T_w depends only on w, the parity of i_w, the depths D_v(i)
for v != w and the parity of i_1 + ... + i_{w-1}; D_v is injective in i_v,
so its key (block_key) is w with i, i_w taken mod 2, under which an
Assembly keeps its blocks; Census carries the edge record of e_(i - 2 e_w)
to e_i.  A block is integer entries over one denominator in lowest terms
(residues over GF(p)).

Grading: both complexes are Z^c-graded.  x^m e_i (x^m in the summand of
e_i) has multidegree m + D(i) in homology and m - D(i) in cohomology, and
every differential preserves it, since x_w^j e' x_w^k has j + k =
D_w(i) - D_w(i - e_w).  Census counts over this grading.

Label census.  Write delta = D_w(i) - D_w(i - e_w): 1 for odd i_w, a_w - 1
for even i_w.  Per w, a label lambda allows one value of i_w or two
adjacent ones, with m_w then fixed (in homology, with lambda_w = a_w t + r
and 0 <= r < a_w: i_w in {2t, 2t + 1} if r > 0, i_w in {2t - 1, 2t} if
r = 0 < t, and i_w = 0 alone if lambda_w = 0), so the label-lambda part of
a half is a cube, the product of c segments.  A w-edge joins x^m e_i to
x^(m + delta e_w) e_(i - e_w) in homology and x^(m - delta e_w) e_(i - e_w)
in cohomology, and d = sum_w d_w with d_w moving along segment w.  So
d o d = 0 says exactly that every square of two directions anticommutes.

Cube argument: if the w-edges of a label touching degree n are all
nonzero, d_w is bijective from the upper w-face onto the lower one in
degrees n + 1 -> n and n -> n - 1, and H_n of the label part is 0.  A
cycle z is z_up + z_low over the two faces; take x in the upper face of
degree n + 1 with d_w x = z_low; then z - dx lies in the upper face, is a
cycle, and so has zero d_w image, so it is 0.  This uses d o d = 0 on
degree n + 1 only.  If every direction with two vertices has zero edges,
d vanishes on the label part.  Hence

    dim H_n = #{x^m e_i, |i| = n : every direction in which it has a
               neighbour in its label has a zero edge},

provided the w-edges of one label touching degree n agree in being zero.
The squares whose upper vertex lies in degree n + 1 link all those edges
(two opposite edges of such a square are parallel edges at adjacent
levels), so Census checks that every such square anticommutes exactly
(d_n o d_(n+1) = 0 there) and that its opposite edges agree in being zero.

Edge lemma (Census reads the blocks; the tests pin every block's zero
pattern to this, evaluated in tests/oracles.py).  For
B = nu^j with Nakayama scalars n = A.nakayama(j), A_w(lambda) =
prod_{v<w} q_vw^lambda_v and B_w(lambda) = n_w prod_{v>w} q_wv^lambda_v,
every w-edge at label lambda is +-(a unit) times E, with E = A_w - B_w for
odd upper i_w and E = sum_{t<a_w} A_w^t B_w^(a_w-1-t) for even upper i_w.
Whether an edge is zero therefore depends only on w, the parity of i_w
and lambda_v for v != w.
"""

from fractions import Fraction
from itertools import count
from math import comb, gcd, lcm
from operator import mul

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


def sandwiches(A, j):
    """(den, {(w, k, l): entries}) for k + l in {1, a_w - 1}: the matrix of
    b -> x_w^k b x_w^l on B = nu^j has the nonzero entries (row, col,
    v / den), with v an integer (a residue, and den = 1, over GF(p)) and one
    den for every matrix.  Read from A's checked characters."""
    A.check_characters()
    out = {}
    for w, (a, characters) in enumerate(zip(A.exponents,
                                            A.generator_characters())):
        step = {idx: rest for idx, *rest in characters}
        for k, l in {(1, 0), (0, 1)} | {(a - 1 - l, l) for l in range(a)}:
            nu = A.nakayama(j * k)[w]  # nu_w^(jk)
            entries = out[w, k, l] = []
            for col, exps in enumerate(A.monomials()):
                if exps[w] + k + l < a:  # R_w l times, then L_w k times
                    row, num, den = col, nu.numerator, nu.denominator
                    for t in range(k + l):
                        row, left, right, d = step[row]
                        num, den = num * (right if t < l else left), den * d
                    g = gcd(num, den)
                    entries.append((row, col, num // g, den // g))
    p = A.field.characteristic
    den = 1 if p else lcm(*(d for entries in out.values() for *_, d in entries))
    return den, {key: [(row, col, v % p if p else v * (den // d))
                       for row, col, v, d in entries]
                 for key, entries in out.items()}


def depth(a, k):
    """a floor(k / 2) + (k mod 2), which is D_v(i) for a = a_v, k = i_v."""
    return a * (k // 2) + k % 2


def block_key(i, w):
    """The memo key of the block of s T_w at e_i: w with i, i_w taken mod 2
    (module docstring)."""
    return w, i[:w] + (i[w] % 2,) + i[w + 1:]


def _block(A, sandwiches, i, w, variant):
    """The map on one B summand induced by s T_w for the generator e_i, as
    (den, entries): its nonzero entries are (row, col, v / den), v an
    integer, in lowest terms.  Over GF(p) each v is a residue and den is 1.
    ``sandwiches`` is the table of B = nu^j.
    """
    power, a = A.q_power, A.exponents[w]
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
    p = A.field.characteristic
    if p:
        return 1, [(row, col, v % p) for (row, col), v in out.items()
                   if v % p]
    den *= den_s
    g = gcd(den, *out.values())
    return den // g, [(row, col, v // g) for (row, col), v in out.items()
                      if v]


class Assembly:
    """The maps of B (x) P (homology) or Hom(P, B) (cohomology), B = nu^j.

    Every degree shares one table of summand blocks, under ``block_key``.
    """

    def __init__(self, A, j, variant):
        self.A, self.variant = A, variant
        self.sandwiches = sandwiches(A, j)
        self.blocks = {}

    def block(self, i, w):
        key = block_key(i, w)
        if key not in self.blocks:
            self.blocks[key] = self.evaluate(key)
        return self.blocks[key]

    def evaluate(self, key):
        """The block under ``key`` (w, i with i_w mod 2), not memoised."""
        w, i = key
        return _block(self.A, self.sandwiches, i, w, self.variant)

    def __call__(self, n):
        """The map of degree n: the boundary P_n -> P_{n-1} in homology
        (n >= 1), the coboundary from degree n to n + 1 in cohomology."""
        A, variant = self.A, self.variant
        c, dim = A.c, A.dim
        top = n if variant == "homology" else n + 1
        index = {i: t for t, i in enumerate(generators(c, top - 1))}
        parts = []  # (row offset, column offset, den, entries) per summand
        for t, i in enumerate(generators(c, top)):
            for w in range(c):
                if not i[w]:
                    continue
                s = index[i[:w] + (i[w] - 1,) + i[w + 1:]]
                offsets = (s * dim, t * dim) if variant == "homology" \
                    else (t * dim, s * dim)
                parts.append(offsets + self.block(i, w))
        rows, cols = (top - 1, top) if variant == "homology" \
            else (top, top - 1)
        # every den is 1 over GF(p)
        value = Fraction if A.field.characteristic == 0 else mul
        return SparseMatrix(
            A.field, chain_space_dim(c, dim, rows),
            chain_space_dim(c, dim, cols), (
                (row_off + row, col_off + col, value(v, den))
                for row_off, col_off, den, entries in parts
                for row, col, v in entries))


class Census:
    """dim H_n of B (x) P (homology) or Hom(P, B) (cohomology), B = nu^j,
    for each n in ``degrees`` (n >= 1), by counting label cubes (module
    docstring), with no Bimodule and no matrix.

    Counting n, it holds degrees n - 1 to n + 1 as lists by generator
    position (``_level``).  The record of (i, w) with i_w >= 3 is carried
    from i - 2 e_w; the others evaluate their block, so consecutive degrees
    evaluate each block key once.

    Construction checks A's characters (once per algebra), each entry of an
    evaluated block against its multidegree, and, for each counted n, every
    label square with its upper vertex in degree n + 1: it anticommutes
    (d o d = 0 there) and its opposite edges agree in being zero.  A failure
    raises ValueError.
    """

    def __init__(self, A, j, variant, degrees):
        self.assembly = Assembly(A, j, variant)
        self.variant, self.c, self.p = variant, A.c, A.field.characteristic
        self.full = (1 << A.dim) - 1
        sign = 1 if variant == "homology" else -1
        # lower[w][parity of i_w at the upper vertex][m]: the monomial that
        # the upper monomial m meets in direction w, None if it has no
        # neighbour there
        self.lower = [[[None] * A.dim for _ in (0, 1)] for _ in A.exponents]
        monomials = A.monomials()
        for w, a in enumerate(A.exponents):
            for parity, targets in enumerate(self.lower[w]):
                delta = sign * (1 if parity else a - 1)
                for m, exps in enumerate(monomials):
                    if 0 <= exps[w] + delta < a:
                        targets[m] = A.monomial_index(
                            exps[:w] + (exps[w] + delta,) + exps[w + 1:])
        # (w, v, the parities of i_w and i_v at the upper vertex): (m, m_w,
        # m_v) for each upper monomial m with a neighbour m_w in direction w
        # and m_v in direction v
        self.pairs = [(w, v) for w in range(A.c) for v in range(w + 1, A.c)]
        self.corners = {
            (w, v, pw, pv): [
                (m, mw, mv) for m, (mw, mv) in enumerate(
                    zip(self.lower[w][pw], self.lower[v][pv]))
                if mw is not None and mv is not None]
            for w, v in self.pairs for pw in (0, 1) for pv in (0, 1)}
        self.levels, self.dims = {}, {}  # degree: _level(degree)
        for n in sorted(set(degrees)):
            self.dims[n] = self._count(n)
            self._check_squares(n + 1)

    def dimension(self, n):
        return self.dims[n]

    def _record(self, i, w):
        """(den, values, upper_ok, lower_ok) for the block of s T_w at e_i:
        values[m] is the numerator of the w-edge at upper monomial m (0
        where it is zero or absent); upper_ok and lower_ok are bitmasks over
        A's monomials, with every bit set except those of the upper and of
        the lower ends of the nonzero edges of this block."""
        targets = self.lower[w][i[w] % 2]
        den, entries = self.assembly.evaluate(block_key(i, w))
        values, upper_ok, lower_ok = [0] * len(targets), self.full, self.full
        for row, col, v in entries:  # distinct (row, col), v != 0
            up, low = (col, row) if self.variant == "homology" else (row, col)
            if targets[up] != low:
                raise ValueError(
                    f"block of direction {w} at generator {i}: entry "
                    f"({row}, {col}) joins monomials of different "
                    f"multidegree")
            values[up] = v
            upper_ok &= ~(1 << up)
            lower_ok &= ~(1 << low)
        return den, values, upper_ok, lower_ok

    def _level(self, n):
        """(generators, down, records) of degree n, built after dropping the
        degrees below n - 2: down[w][t] is the position of i - e_w in degree
        n - 1 for the t-th generator i, records[w][t] the record of (i, w),
        both None where i_w = 0."""
        if n not in self.levels:
            self.levels = {k: v for k, v in self.levels.items() if k >= n - 2}
            below, two = self.levels.get(n - 1), self.levels.get(n - 2)
            gens, down, records = generators(self.c, n), [], []
            for w in range(self.c):
                # i -> i - e_w keeps the lexicographic order and is onto
                # degree n - 1, so positions are counted
                rank = count()
                steps = [next(rank) if i[w] else None for i in gens]
                # the record at i - 2 e_w, where held and i_w >= 3
                carried = [None if s is None or below[1][w][s] is None
                           else two[2][w][below[1][w][s]] for s in steps] \
                    if below and two else [None] * len(gens)
                down.append(steps)
                records.append([
                    carried[t] or (self._record(i, w) if i[w] else None)
                    for t, i in enumerate(gens)])
            self.levels[n] = gens, down, records
        return self.levels[n]

    def _count(self, n):
        """The number of x^m e_i, |i| = n, all of whose edges are zero."""
        records, (_, up_down, up_records) = self._level(n)[2], \
            self._level(n + 1)
        masks = [self.full] * len(records[0])
        for w in range(self.c):
            for t, record in enumerate(records[w]):
                if record:
                    masks[t] &= record[2]
            # the w-edge up from e_i starts at e_(i + e_w)
            for t, record in zip(up_down[w], up_records[w]):
                if record:
                    masks[t] &= record[3]
        return sum(map(int.bit_count, masks))

    def _check_squares(self, n):
        """Every label square whose upper vertex lies in degree n."""
        p, (gens, down, records) = self.p, self._level(n)
        faces = self._level(n - 1)[2]
        for t, u in enumerate(gens):
            for w, v in self.pairs:
                if not (u[w] and u[v]):
                    continue
                den1, e1, _, _ = records[w][t]
                den2, e2, _, _ = faces[v][down[w][t]]
                den3, e3, _, _ = records[v][t]
                den4, e4, _, _ = faces[w][down[v][t]]
                # e1 e2 / (den1 den2) + e3 e4 / (den3 den4) must vanish
                s12, s34 = den3 * den4, den1 * den2
                for m, mw, mv in self.corners[w, v, u[w] % 2, u[v] % 2]:
                    a, b, c, d = e1[m], e2[mw], e3[m], e4[mv]
                    total = a * b * s12 + c * d * s34
                    if total % p if p else total:
                        raise ValueError(
                            f"{self.variant} maps at degrees {n} and "
                            f"{n - 1} do not compose to zero: square of "
                            f"directions {w}, {v} at generator {u}, "
                            f"monomial {m}")
                    if (not a) != (not d) or (not b) != (not c):
                        raise ValueError(
                            f"opposite edges of the square of directions "
                            f"{w}, {v} at generator {u}, monomial {m} "
                            f"disagree in being zero")

