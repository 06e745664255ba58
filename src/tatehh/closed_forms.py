"""Closed-form dimension counts for stable Hochschild homology and cohomology.

Each function evaluates one published dimension formula exactly, by integer
arithmetic: commutative complete intersections with equal exponents,
exterior algebras, and two-generator cohomology with a generic commutation
scalar (two-generator homology, which only the tests read, is counted in
tests/oracles.py).  The characteristic enters only through divisibility of the
exponents, so a characteristic of 0 (the rationals) simply divides nothing.

No table is served from these counts: every table cell comes from a
complex (tate_engine), and the verify suites and the tests compare the
tables with the published values here.

Degree conventions: the commutative and exterior counts take n >= 0 and
serve negative degrees through the symmetry dim H_n = dim H_{-n-1} applied
by the caller; the two-generator count accepts any integer degree directly.
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


def codim2_cohomology_dim(n):
    """Stable Hochschild cohomology dimension for two generators, generic q.

    Independent of the exponents and of the characteristic; concentrated in
    degrees 0, 1, 2 with dimensions 1, 2, 1.
    """
    return {0: 1, 1: 2, 2: 1}.get(n, 0)
