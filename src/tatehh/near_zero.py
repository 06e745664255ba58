"""The socle-crossing segment of a complete bimodule resolution.

Over the enveloping algebra (products (u (x) v)(u' (x) v') = uu' (x) v'v) the
element

    s = sum over exponent tuples i of
        (prod_{u<v} q_uv^{-i_v (a_u - i_u - 1)}) x^i (x) x^{a-1-i}

right-multiplies the free rank-one module into itself with image the socle
line, and the map f sends the w-th free generator to right multiplication by
1 (x) x_w - x_w (x) 1.  ``check_exactness_claim`` verifies exactly the two
facts this hinges on: f followed by s is zero, and the dim A shifted copies
(x^j (x) 1) s are linearly independent.

Tensored with the Nakayama twist nu^j, the segment gives the maps next to
degree 0 of the spliced complex C(j) (tate_engine.TateWindow): the norm map
d_0 : C_0 -> C_{-1}, and d_1, whose c blocks give C_1 -> C_0 (negated) and,
for nu^(j+1) and stacked, C_{-1} -> C_{-2}.  Literally, d_1 sends x^u in
block w to (alpha_w L_w(u) - R_w(u)) x^(u + e_w), with the characters
L_w(u) = prod_{i>=w} q_wi^{u_i} and R_w(u) = prod_{j<=w} q_jw^{u_j}
(QciAlgebra.generator_characters), and d_0 sends 1 to x^top times the norm
scalar prod_w (1 + alpha_w + ... + alpha_w^{a_w - 1}) and kills every other
monomial.  These literal maps exist only as integer counts (d1_terms,
norm_scalar); their one matrix form is structural (d1_matrix_via_f,
d0_matrix_via_s): the right actions of 1 (x) x_w - x_w (x) 1 and of s,
read as the nu^j-twisted bimodule's own action matrices
(qci_algebra.twisted_bimodule), since b . (l (x) r) = r b l.  The tests
require the two forms to agree entry by entry.

All three maps are weighted shifts, so splice_dims counts H_0 and H_{-1} of
C(j) with no matrix.  A column of d_1 has at most one entry and a row of
C_{-1} -> C_{-2} exactly one, so their ranks are the numbers of rows hit
and of monomials moved by a nonzero entry; rank d_0 is 1 or 0 as the norm
scalar is nonzero or not.  splice_dims also makes the composition-zero
check of a window across the splice, which fails exactly when the norm
scalar is nonzero and a nonzero d_1 entry lands on x^0, or x^top has a
nonzero coboundary.  The references read the structural maps instead
(TateWindow's norm map, and tate_hh0, the degree-0 window of the verify
suites), so none shares splice code with splice_dims.
"""

from .exact_field import scalar_pow
from .qci_algebra import twisted_bimodule
from .sparse_linalg import ChainComplexWindow, SparseMatrix

# ---------------------------------------------------------------------------
# elements of the enveloping algebra: dicts {pair index: scalar}, the pair
# (left monomial l, right monomial r) indexed as l + dim A * r
# ---------------------------------------------------------------------------


def env_dim(A):
    return A.dim * A.dim


def env_index(A, left, right):
    return left + A.dim * right


def env_pair(A, idx):
    return idx % A.dim, idx // A.dim


def env_multiply(A, u, v):
    """Product in A (x) A-opposite: (u1 (x) u2)(v1 (x) v2) = u1 v1 (x) v2 u2."""
    field = A.field
    table = A.structure_constants()
    out = {}
    for iu, cu in u.items():
        l1, r1 = env_pair(A, iu)
        for iv, cv in v.items():
            l2, r2 = env_pair(A, iv)
            left = table.get((l1, l2))
            if left is None:
                continue
            right = table.get((r2, r1))
            if right is None:
                continue
            coeff = field.mul(field.mul(cu, cv),
                              field.mul(left[0], right[0]))
            key = env_index(A, left[1], right[1])
            acc = field.add(out.get(key, field.zero), coeff)
            if acc == field.zero:
                out.pop(key, None)
            else:
                out[key] = acc
    return out


def generator_difference(A, t):
    """The element 1 (x) x_t - x_t (x) 1 (t is 1-based)."""
    g = A.generator_index(t)
    one = A.field.one
    return {env_index(A, 0, g): one,
            env_index(A, g, 0): A.field.neg(one)}


def build_s(A):
    """The socle-crossing element s, with one term per basis monomial."""
    field = A.field
    out = {}
    for idx in range(A.dim):
        exps = A.monomial_exps(idx)
        coeff = field.one
        for u in range(A.c):
            for v in range(u + 1, A.c):
                power = -exps[v] * (A.exponents[u] - exps[u] - 1)
                coeff = field.mul(coeff, scalar_pow(field, A.q[u][v], power))
        partner = tuple(a - e - 1 for a, e in zip(A.exponents, exps))
        out[env_index(A, idx, A.monomial_index(partner))] = coeff
    return out


def check_exactness_claim(A):
    """Whether f then s vanishes and the shifted copies of s are independent.

    Returns a plain boolean; False means the construction does not behave as
    published for this algebra, which the callers treat as an alarm.
    """
    s = build_s(A)
    for t in range(1, A.c + 1):
        if env_multiply(A, generator_difference(A, t), s):
            return False
    field = A.field
    entries = {}
    for j in range(A.dim):
        shifted = env_multiply(A, {env_index(A, j, 0): field.one}, s)
        for idx, coeff in shifted.items():
            entries[(j, idx)] = coeff
    copies = SparseMatrix.from_dict(field, A.dim, env_dim(A), entries)
    return copies.rank() == A.dim


# ---------------------------------------------------------------------------
# the degree-0 window for a left-twisted bimodule
# ---------------------------------------------------------------------------


def d1_terms(A, psi):
    """d1 in integers (w, idx, target, num, den): x^idx in block w goes to
    (num / den) x^target; num is a residue product over GF(p)."""
    A.validate_twist(psi)
    return ((w, idx, target, alpha.numerator * a - alpha.denominator * b,
             alpha.denominator * d)
            for w, (alpha, characters) in enumerate(
                zip(psi, A.generator_characters()))
            for idx, target, a, b, d in characters)


def norm_scalar(A, psi):
    """Integers (num, den) with d0(1) = (num / den) x^top: the product of
    the twist geometric sums 1 + alpha_w + ... + alpha_w^(a_w - 1)."""
    A.validate_twist(psi)
    num = den = 1
    for alpha, a in zip(psi, A.exponents):
        n, d = alpha.numerator, alpha.denominator
        num *= sum(n ** t * d ** (a - 1 - t) for t in range(a))
        den *= d ** (a - 1)
    return num, den


def splice_dims(A, j):
    """{0: H_0, -1: H_-1} of C(j), counted (module docstring); ValueError
    where the maps next to the splice do not compose to zero."""
    p = A.field.characteristic
    norm = norm_scalar(A, A.nakayama(j))[0]
    rank0 = 1 if (norm % p if p else norm) else 0
    # the rows that d1 of nu^j hits, the monomials that d1 of nu^(j+1) moves
    hit = {target for _, _, target, num, _ in d1_terms(A, A.nakayama(j))
           if (num % p if p else num)}
    moved = {idx for _, idx, _, num, _ in d1_terms(A, A.nakayama(j + 1))
             if (num % p if p else num)}
    if rank0 and 0 in hit:
        raise ValueError("maps at degrees 1 and 0 do not compose to zero")
    if rank0 and A.top_index in moved:
        raise ValueError("maps at degrees 0 and -1 do not compose to zero")
    return {0: A.dim - len(hit) - rank0, -1: A.dim - len(moved) - rank0}


def d0_matrix_via_s(A, psi):
    """Structural zeroth map: the right action of s on B =
    twisted_bimodule(A, psi), where b . (l (x) r) = r b l, so the sum over
    the terms of s of coeff L_r R_l with B's monomial actions."""
    field = A.field
    B = twisted_bimodule(A, psi)
    entries = {}
    for key, coeff in build_s(A).items():
        l, r = env_pair(A, key)
        action = B.left_monomial(r).compose(B.right_monomial(l))
        for i, j, v in action.entries():
            entries[(i, j)] = field.add(entries.get((i, j), field.zero),
                                        field.mul(coeff, v))
    return SparseMatrix.from_dict(field, A.dim, A.dim, entries)


def d1_matrix_via_f(A, psi):
    """Structural first map: block w is the right action of
    1 (x) x_w - x_w (x) 1 on B = twisted_bimodule(A, psi), B's own
    left minus right action of x_w."""
    B = twisted_bimodule(A, psi)
    minus_one = A.field.neg(A.field.one)
    entries = []
    for w, (left, right) in enumerate(zip(B.left, B.right)):
        block = left.add(right.scale(minus_one))
        entries.extend((i, b + A.dim * w, v) for i, b, v in block.entries())
    return SparseMatrix(A.field, A.dim, A.dim * A.c, entries)


def tate_hh0(A, psi):
    """Degree-0 stable Hochschild dimension with psi-left-twisted
    coefficients: H_0 of the window (A^c, A, A) of the structural maps.
    bench/tracer.py binds the name; it can go with ROADMAP item 1 or 4."""
    return ChainComplexWindow(
        [1, 0, -1], {1: A.dim * A.c, 0: A.dim, -1: A.dim},
        {1: d1_matrix_via_f(A, psi),
         0: d0_matrix_via_s(A, psi)}).homology_dim(0)
