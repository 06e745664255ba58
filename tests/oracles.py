"""Independent reference computations used to cross-check the package.

Everything here deliberately avoids the package's own algorithms: products
are normalized by single-swap string rewriting instead of insertion
reordering, and ranks come from dense Gaussian elimination on row lists.
The published counts are read from tatehh.closed_forms, except the
two-generator homology count (codim2_homology_dim), which only the tests
read and which is stated here; which of them applies to a table cell is
decided here (closed_form_dim), and the general lower bound on every cell
(lower_bound) is stated here.  first_square_failure re-checks every label
square of a census in field arithmetic, from the blocks of
twisted_resolution._block, whose memo key block_key states.

The element-level helpers below the oracles (multiply, the twist group
operations, the bimodule actions on elements and retwist) are the tests'
own API over the package's structure constants and action matrices; no
route of the package reads them.  Action matrices are read column by
column (columns) and multiplied here (mat_apply, mat_mul), not by
SparseMatrix arithmetic.  of_int, div and regular_bimodule are the tests'
shorthands for scalars and for the untwisted bimodule.
"""

import json
from fractions import Fraction

from tatehh import twisted_resolution
from tatehh.closed_forms import ci_dim, codim2_cohomology_dim, divides, \
    exterior_dim
from tatehh.exact_field import scalar_pow
from tatehh.qci_algebra import Bimodule, twisted_bimodule
from tatehh.tate_engine import TableEntry


def of_int(field, n):
    """The integer n as a scalar of ``field``."""
    return n % field.p if field.characteristic else Fraction(n)


def div(field, x, y):
    """x / y in ``field``; ZeroDivisionError for y = 0."""
    return field.mul(x, field.inv(y))


def regular_bimodule(algebra):
    """A as a bimodule over itself."""
    return twisted_bimodule(algebra, None, None, label="regular")


def table_from_json(text):
    """The entries of a ``dims --format json`` table."""
    doc = json.loads(text)
    return [TableEntry(e["degree"], e["dimension"], e["method"], e["source"])
            for e in doc["entries"]]


def rewrite_word(field, exponents, q, word):
    """Normal form of a generator word by repeated adjacent-swap rewriting.

    ``word`` lists 1-based generator numbers in multiplication order.  Each
    rewrite replaces the first ascending adjacent pair x_u x_w (u < w) by
    q_uw x_w x_u.  Returns (coefficient, exponent tuple) or None when some
    generator occurs at least its nilpotency exponent many times.
    """
    word = list(word)
    for w, a in enumerate(exponents, start=1):
        if word.count(w) >= a:
            return None
    coeff = field.one
    while True:
        for k in range(len(word) - 1):
            if word[k] < word[k + 1]:
                coeff = field.mul(coeff, q[word[k] - 1][word[k + 1] - 1])
                word[k], word[k + 1] = word[k + 1], word[k]
                break
        else:
            exps = tuple(word.count(w) for w in range(1, len(exponents) + 1))
            return coeff, exps


def word_of_monomial(exps):
    """The normal-form word of a monomial, highest generator first."""
    word = []
    for w in range(len(exps), 0, -1):
        word.extend([w] * exps[w - 1])
    return word


def oracle_multiply(algebra, exps1, exps2):
    """Product of two basis monomials via the rewriting oracle."""
    word = word_of_monomial(exps1) + word_of_monomial(exps2)
    return rewrite_word(algebra.field, algebra.exponents, algebra.q, word)


def dense_rank(field, rows):
    """Rank of a dense row-list matrix by Gaussian elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != field.zero:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != field.zero:
                factor = rows[r][col]
                rows[r] = [field.sub(a, field.mul(factor, b))
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def columns(m):
    """A SparseMatrix as a list of column dicts {row: scalar}."""
    cols = [{} for _ in range(m.ncols)]
    for i, j, v in m.entries():
        cols[j][i] = v
    return cols


def mat_apply(field, cols, vec):
    """A column-dict matrix applied to a dict vector, zeros dropped."""
    out = {}
    for j, coeff in vec.items():
        for i, v in cols[j].items():
            _accumulate(field, out, i, field.mul(v, coeff))
    return out


def mat_mul(field, left, right):
    """The product of two column-dict matrices."""
    return [mat_apply(field, left, column) for column in right]


def cols_to_rows(field, ncols_rows, cols):
    """Dense row list from a column-dict matrix with ``ncols_rows`` rows."""
    rows = [[field.zero] * len(cols) for _ in range(ncols_rows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i][j] = v
    return rows


def commutator_space_dim(A):
    """Dimension of the span of all commutators uv - vu of basis monomials."""
    field = A.field
    vectors = []
    for i in range(A.dim):
        u = {i: field.one}
        for j in range(A.dim):
            v = {j: field.one}
            uv = multiply(A, u, v)
            vu = multiply(A, v, u)
            row = [field.sub(uv.get(k, field.zero), vu.get(k, field.zero))
                   for k in range(A.dim)]
            if any(x != field.zero for x in row):
                vectors.append(row)
    if not vectors:
        return 0
    return dense_rank(field, vectors)


def center_dim(A):
    """Dimension of the centre, by solving z b = b z over the basis."""
    field = A.field
    rows = []
    for j in range(A.dim):
        b = {j: field.one}
        for k in range(A.dim):
            row = []
            for i in range(A.dim):
                e = {i: field.one}
                left = multiply(A, e, b).get(k, field.zero)
                right = multiply(A, b, e).get(k, field.zero)
                row.append(field.sub(left, right))
            rows.append(row)
    return A.dim - dense_rank(field, rows)


def intertwiner_space_dim(field, M, N):
    """Dimension of the bimodule maps M -> N, with the map as dim^2 unknowns.

    Row (side, w, r, t) of the dense system reads (Phi act_M - act_N Phi)[r][t]
    = 0 for the left and right actions of x_w; Phi[r][s] is unknown r*dim + s.
    """
    dim = M.dim
    rows = []
    for act_m, act_n in zip(M.left + M.right, N.left + N.right):
        act_m, act_n = columns(act_m), columns(act_n)
        for r in range(dim):
            for t in range(dim):
                row = [field.zero] * (dim * dim)
                for s, v in act_m[t].items():
                    row[r * dim + s] = field.add(row[r * dim + s], v)
                for s in range(dim):
                    v = act_n[s].get(r)
                    if v is not None:
                        row[s * dim + t] = field.sub(row[s * dim + t], v)
                if any(x != field.zero for x in row):
                    rows.append(row)
    return dim * dim - dense_rank(field, rows)


def is_commutative(A):
    return all(v == A.field.one for row in A.q for v in row)


def is_exterior(A):
    """Every exponent 2 and every off-diagonal q_ij = -1."""
    minus_one = A.field.neg(A.field.one)
    return all(a == 2 for a in A.exponents) and \
        all(A.q[i][j] == minus_one
            for i in range(A.c) for j in range(A.c) if i != j)


def has_equal_exponents(A):
    return len(set(A.exponents)) == 1


def _is_generic_codim2(A):
    """Two generators over QQ with q_12 of infinite order."""
    return A.c == 2 and A.field.characteristic == 0 and \
        not A.field.is_root_of_unity(A.q[0][1])


def codim2_homology_dim(a, b, p, n):
    """Stable Hochschild homology dimension for two generators, generic q."""
    if a < 2 or b < 2:
        raise ValueError("exponents must be at least 2")
    count = int(divides(p, a)) + int(divides(p, b))
    if n in (0, -1):
        return a + b - 2 + (1 if count else 0)
    return a + b - 2 + count


def closed_form_dim(A, variant, n, k):
    """The published value of a table cell, or None where no theorem applies.

    Untwisted coefficients only (k = 0).  Homology: exterior algebras,
    commutative ones with equal exponents, and two generators with a
    generic q; the first two are stated for m >= 0 and give degrees m and
    -m - 1.  Cohomology: two generators with a generic q.
    """
    if k != 0:
        return None
    p = A.field.characteristic
    if variant == "cohomology":
        return codim2_cohomology_dim(n) if _is_generic_codim2(A) else None
    m = n if n >= 0 else -n - 1
    if is_exterior(A):
        return exterior_dim(A.c, p, m)
    if is_commutative(A) and has_equal_exponents(A):
        return ci_dim(A.c, A.exponents[0], p, m)
    if _is_generic_codim2(A):
        return codim2_homology_dim(A.exponents[0], A.exponents[1], p, n)
    return None


def holm_dim(a, p, n):
    """Hochschild homology dimension of k[X]/(X^a) in degree n >= 0."""
    if a < 2:
        raise ValueError("exponent must be at least 2")
    if n < 0:
        raise ValueError(f"degree must be non-negative here, got {n}")
    if n == 0 or divides(p, a):
        return a
    return a - 1


def lower_bound(a_vector, p, n):
    """Lower bound for the stable Hochschild homology dimension in degree n.

    d counts the exponents divisible by the characteristic; the bound is
    sum(a_i) - c in degrees 0 and -1 when d = 0, one more when d > 0, and
    sum(a_i) - c + d in all other degrees.
    """
    a_vector = tuple(a_vector)
    if not a_vector or any(a < 2 for a in a_vector):
        raise ValueError("exponents must all be at least 2")
    c = len(a_vector)
    base = sum(a_vector) - c
    d = sum(1 for a in a_vector if divides(p, a))
    if n in (0, -1):
        return base + (1 if d else 0)
    return base + d


def resolution_generators(c, n):
    """The exponent vectors i in N^c with |i| = n, first coordinate
    descending, then the rest recursively: the basis order of P_n."""
    if c == 1:
        return [(n,)]
    return [(h,) + rest for h in range(n, -1, -1)
            for rest in resolution_generators(c - 1, n - h)]


def _column_power(field, cols, k):
    out = [{i: field.one} for i in range(len(cols))]
    for _ in range(k):
        out = mat_mul(field, cols, out)
    return out


def _field_power(field, x, k):
    out = field.one
    for _ in range(k):
        out = field.mul(out, x)
    return out


def resolution_map(B, n, variant):
    """The degree-n map of the twisted-tensor resolution complex, entry by
    entry in field arithmetic, as {(row, col): scalar}: the boundary from
    B (x) P_n to B (x) P_{n-1} (homology, n >= 1) or the coboundary from
    Hom(P_n, B) to Hom(P_{n+1}, B) (cohomology), both over the basis of
    resolution_generators with one copy of B's basis per generator.

    With D_v(i) = a_v floor(i_v / 2) + (i_v mod 2), e' = e_{i - e_w} and
    s = (-1)^(i_1 + ... + i_{w-1}), d(e_i) is the sum over w with i_w > 0
    of s T_w, where alpha = prod_{v<w} q_vw^{D_v}, beta = prod_{v>w}
    q_wv^{D_v} and

        T_w = alpha x_w e' - beta e' x_w                       (i_w odd),
        T_w = sum_j alpha^j beta^(a_w-1-j) x_w^j e' x_w^(a_w-1-j)  (i_w even).

    A term x_w^j e' x_w^k acts on a B summand as b -> x_w^k b x_w^j in
    homology and f -> x_w^j f x_w^k in cohomology.  Nothing is memoised or
    rescaled: every summand is recomputed from the formula.
    """
    A, field, dim = B.algebra, B.field, B.dim
    lefts, rights = [columns(m) for m in B.left], [columns(m) for m in B.right]
    homology = variant == "homology"
    top = n if homology else n + 1
    targets = {i: s for s, i in
               enumerate(resolution_generators(A.c, top - 1))}
    entries = {}
    for t, i in enumerate(resolution_generators(A.c, top)):
        for w, a in enumerate(A.exponents):
            if not i[w]:
                continue
            s = targets[i[:w] + (i[w] - 1,) + i[w + 1:]]
            depths = [b * (k // 2) + k % 2 for b, k in zip(A.exponents, i)]
            alpha, beta = field.one, field.one
            for v in range(w):
                alpha = field.mul(alpha, _field_power(field, A.q[v][w],
                                                      depths[v]))
            for v in range(w + 1, A.c):
                beta = field.mul(beta, _field_power(field, A.q[w][v],
                                                    depths[v]))
            sign = field.one if sum(i[:w]) % 2 == 0 else \
                field.neg(field.one)
            if i[w] % 2:
                terms = [(alpha, 1, 0), (field.neg(beta), 0, 1)]
            else:
                terms = [(field.mul(_field_power(field, alpha, j),
                                    _field_power(field, beta, a - 1 - j)),
                          j, a - 1 - j) for j in range(a)]
            for scalar, j, k in terms:
                left, right = (k, j) if homology else (j, k)
                sandwich = mat_mul(
                    field, _column_power(field, lefts[w], left),
                    _column_power(field, rights[w], right))
                scalar = field.mul(sign, scalar)
                for col, column in enumerate(sandwich):
                    for row, v in column.items():
                        key = (s * dim + row, t * dim + col) if homology \
                            else (t * dim + row, s * dim + col)
                        entries[key] = field.add(entries.get(key, field.zero),
                                                 field.mul(scalar, v))
    return {key: v for key, v in entries.items() if v != field.zero}


def block_key(i, w):
    """The key of the block of s T_w at e_i in twisted_resolution: w with
    i, i_w taken mod 2; blocks under one key are equal."""
    return w, i[:w] + (i[w] % 2,) + i[w + 1:]


def _edges(A, templates, variant, i, w):
    """{upper monomial: (lower monomial, scalar)} over the nonzero entries
    of the w-block at e_i, read from twisted_resolution._block."""
    field = A.field
    den, entries = twisted_resolution._block(A, templates, i, w)
    homology = variant == "homology"
    edges = {}
    for row, col, v in entries:
        value = field.mul(v, field.inv(den)) if field.characteristic else \
            Fraction(v, den)
        if value != field.zero:
            edges[col if homology else row] = (row if homology else col,
                                               value)
    return edges


def first_square_failure(A, j, variant, degrees):
    """The message of the first label square that fails, or None, for the
    squares a Census(A, j, variant, degrees) checks: upper vertex u in
    degree n + 1 for each n in ``degrees``, in increasing n, generator order
    and direction pairs w < v.  Each square is multiplied out in field
    arithmetic from twisted_resolution._block, evaluated once per
    block_key: every path from x^m e_u down to
    e_(u - e_w - e_v) through e_(u - e_w) and through e_(u - e_v) must sum
    to zero, and where m has a neighbour in both directions the w-edges at
    m and below it in direction v (and the v-edges) agree in being zero."""
    field = A.field
    templates, blocks = twisted_resolution._templates(A, j, variant), {}

    def edges(i, w):
        key = block_key(i, w)
        if key not in blocks:
            blocks[key] = _edges(A, templates, variant, i, w)
        return blocks[key]

    sign = 1 if variant == "homology" else -1
    monomials = A.monomials()

    def neighbour(exps, u, w):
        a = A.exponents[w]
        e = exps[w] + sign * (1 if u[w] % 2 else a - 1)
        return A.monomial_index(exps[:w] + (e,) + exps[w + 1:]) \
            if 0 <= e < a else None

    for n in sorted({n + 1 for n in degrees}):
        for u in resolution_generators(A.c, n):
            for w in range(A.c):
                for v in range(w + 1, A.c):
                    if not (u[w] and u[v]):
                        continue
                    uw = u[:w] + (u[w] - 1,) + u[w + 1:]
                    uv = u[:v] + (u[v] - 1,) + u[v + 1:]
                    e1, e2 = edges(u, w), edges(uw, v)
                    e3, e4 = edges(u, v), edges(uv, w)
                    for m, exps in enumerate(monomials):
                        total = {}
                        for first, second in ((e1, e2), (e3, e4)):
                            if m in first:
                                mid, x = first[m]
                                if mid in second:
                                    low, y = second[mid]
                                    total[low] = field.add(total.get(
                                        low, field.zero), field.mul(x, y))
                        if any(t != field.zero for t in total.values()):
                            return (f"{variant} maps at degrees {n} and "
                                    f"{n - 1} do not compose to zero: square "
                                    f"of directions {w}, {v} at generator "
                                    f"{u}, monomial {m}")
                        mw, mv = neighbour(exps, u, w), neighbour(exps, u, v)
                        if mw is not None and mv is not None and (
                                (m in e1) != (mv in e4) or
                                (mw in e2) != (m in e3)):
                            return (f"opposite edges of the square of "
                                    f"directions {w}, {v} at generator {u}, "
                                    f"monomial {m} disagree in being zero")
    return None


def _signed_power(field, x, k):
    return _field_power(field, x, k) if k >= 0 else \
        _field_power(field, field.inv(x), -k)


def edge_lemma_scalar(A, power, w, odd, label):
    """E of the edge lemma: every direction-w edge of the twisted-tensor
    resolution complex of B = nu^power (B (x) P or Hom(P, B)) at the Z^c
    multidegree ``label`` is +-(a unit) times E, where, with n_w the
    Nakayama twist scalar of x_w (prod_v q_vw^(a_v - 1), to the power),
    A_w = prod_{v<w} q_vw^label_v and B_w = n_w prod_{v>w} q_wv^label_v,

        E = A_w - B_w                                  (i_w odd),
        E = sum_{t < a_w} A_w^t B_w^(a_w - 1 - t)      (i_w even),

    i_w being the exponent of the edge's upper generator.  label_w is not
    read, so whether an edge is zero depends on w, the parity and the
    other coordinates of the label only.
    """
    field, q, c = A.field, A.q, A.c
    nakayama = field.one
    for v in range(c):
        nakayama = field.mul(nakayama, _field_power(
            field, q[v][w], A.exponents[v] - 1))
    alpha, beta = field.one, _signed_power(field, nakayama, power)
    for v in range(w):
        alpha = field.mul(alpha, _signed_power(field, q[v][w], label[v]))
    for v in range(w + 1, c):
        beta = field.mul(beta, _signed_power(field, q[w][v], label[v]))
    if odd:
        return field.sub(alpha, beta)
    a = A.exponents[w]
    total = field.zero
    for t in range(a):
        total = field.add(total, field.mul(
            _field_power(field, alpha, t),
            _field_power(field, beta, a - 1 - t)))
    return total


# ---------------------------------------------------------------------------
# elements, twists and bimodule actions: dicts {basis index: scalar}
# ---------------------------------------------------------------------------


def _accumulate(field, out, key, value):
    value = field.add(out.get(key, field.zero), value)
    if value == field.zero:
        out.pop(key, None)
    else:
        out[key] = value


def multiply(A, u, v):
    """Product of two algebra elements, from A.structure_constants()."""
    field, table = A.field, A.structure_constants()
    out = {}
    for i, ci in u.items():
        for j, cj in v.items():
            hit = table.get((i, j))
            if hit is not None:
                coeff, k = hit
                _accumulate(field, out, k, field.mul(field.mul(ci, cj), coeff))
    return out


def frobenius_functional(A, u):
    """Coefficient of the socle monomial in the element u."""
    return u.get(A.top_index, A.field.zero)


def twist_compose(A, f, g):
    return tuple(A.field.mul(a, b) for a, b in zip(f, g))


def twist_inverse(A, f):
    return tuple(A.field.inv(a) for a in f)


def twist_pow(A, f, k):
    return tuple(scalar_pow(A.field, a, k) for a in f)


def twist_apply(A, f, exps):
    """Scalar by which the twist acts on a monomial with these exponents."""
    value = A.field.one
    for alpha, e in zip(f, exps):
        value = A.field.mul(value, scalar_pow(A.field, alpha, e))
    return value


def _act(B, monomial_action, element, vec):
    field, out = B.field, {}
    for mono, coeff in element.items():
        for i, v in mat_apply(field, columns(monomial_action(mono)),
                              vec).items():
            _accumulate(field, out, i, field.mul(coeff, v))
    return out


def left_apply(B, element, vec):
    """Left action of an algebra element on a module vector."""
    return _act(B, B.left_monomial, element, vec)


def right_apply(B, vec, element):
    """Right action of an algebra element on a module vector."""
    return _act(B, B.right_monomial, element, vec)


def equal_actions(B, C):
    return B.dim == C.dim and B.left == C.left and B.right == C.right


def retwist(B, f=None, g=None):
    """B with the left action scaled by a diagonal twist f, the right by g."""
    A = B.algebra
    f = A.identity_twist() if f is None else f
    g = A.identity_twist() if g is None else g
    A.validate_twist(f)
    A.validate_twist(g)
    return Bimodule(A, [B.left[w].scale(f[w]) for w in range(A.c)],
                    [B.right[w].scale(g[w]) for w in range(A.c)],
                    label="retwist")
