"""Independent reference computations used to cross-check the package.

Everything here deliberately avoids the package's own algorithms: products
are normalized by single-swap string rewriting instead of insertion
reordering, and ranks come from dense Gaussian elimination on row lists.
"""


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
            uv = A.multiply(u, v)
            vu = A.multiply(v, u)
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
                left = A.multiply(e, b).get(k, field.zero)
                right = A.multiply(b, e).get(k, field.zero)
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
