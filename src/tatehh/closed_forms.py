"""Closed-form dimension counts for stable Hochschild homology and cohomology.

Each function evaluates one published dimension formula exactly, by integer
arithmetic: truncated polynomial algebras in one variable, commutative
complete intersections with equal exponents, exterior algebras, the general
lower bound, and the two-generator case with a generic commutation scalar.
The characteristic enters only through divisibility of the exponents, so a
characteristic of 0 (the rationals) simply divides nothing.

No table is served from these counts: every table cell comes from a
complex (tate_engine), and the verify suites and the tests compare the
tables with the published values here.

Degree conventions: the one-variable, commutative, and exterior counts take
n >= 0 and serve negative degrees through the symmetry dim H_n = dim H_{-n-1}
applied by the caller; the lower bound and the two-generator counts accept
any integer degree directly.
"""

from math import comb


def divides(p, a):
    """Whether the characteristic p divides a; characteristic 0 never does."""
    return p != 0 and a % p == 0


def binom(m, r):
    """Binomial coefficient with the counting convention: 0 outside 0 <= r <= m."""
    if r < 0 or r > m:
        return 0
    return comb(m, r)


def _check_degree(n):
    if n < 0:
        raise ValueError(f"degree must be non-negative here, got {n}; "
                         "negative degrees reflect through n -> -n-1")


def holm_dim(a, p, n):
    """Hochschild homology dimension of k[X]/(X^a) in degree n."""
    if a < 2:
        raise ValueError("exponent must be at least 2")
    _check_degree(n)
    if n == 0 or divides(p, a):
        return a
    return a - 1


def ci_dim(c, a, p, n):
    """Stable Hochschild dimension of k[X_1..X_c]/(X_i^a) in degree n >= 0."""
    if c < 1:
        raise ValueError("at least one generator required")
    if a < 2:
        raise ValueError("exponent must be at least 2")
    _check_degree(n)
    if divides(p, a):
        return binom(c + n - 1, n) * a ** c
    if n == 0:
        return a ** c - 1
    return sum(binom(c, t) * binom(n - 1, n - c + t) * a ** t * (a - 1) ** (c - t)
               for t in range(c + 1))


def exterior_dim(c, p, n):
    """Stable Hochschild dimension of an exterior algebra on c generators."""
    if c < 1:
        raise ValueError("at least one generator required")
    _check_degree(n)
    if p == 2:
        return 2 ** c * binom(c + n - 1, c - 1)
    if n == 0:
        return 2 ** c - 2 ** (c - 1)
    return 2 ** (c - 1) * binom(c + n - 1, c - 1)


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


def codim2_homology_dim(a, b, p, n):
    """Stable Hochschild homology dimension for two generators, generic q."""
    if a < 2 or b < 2:
        raise ValueError("exponents must be at least 2")
    count = int(divides(p, a)) + int(divides(p, b))
    if n in (0, -1):
        return a + b - 2 + (1 if count else 0)
    return a + b - 2 + count


def codim2_cohomology_dim(n):
    """Stable Hochschild cohomology dimension for two generators, generic q.

    Independent of the exponents and of the characteristic; concentrated in
    degrees 0, 1, 2 with dimensions 1, 2, 1.
    """
    return {0: 1, 1: 2, 2: 1}.get(n, 0)
