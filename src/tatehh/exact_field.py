"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Scalars are plain Python values in canonical form: `fractions.Fraction` over
the rationals (always fully reduced, unique representation), integers in
``range(p)`` over GF(p).  The rational operations also take Python ints,
the integer rationals (integer-scaled maps hold them), and ``inv`` and
``div`` return a Fraction for them, never a float.  A field object supplies
the arithmetic, parsing and printing, so the rest of the package can stay
field-generic without wrapping every scalar in an object.
"""

import re
from fractions import Fraction

# The documented scalar forms "n" and "n/d"; Fraction alone would also take
# exponent notation ("1e4000000" builds a 4-million-digit integer), decimal
# points and digit separators.
_SCALAR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_fraction(text):
    """Fraction of "n" or "n/d" (surrounding whitespace ignored)."""
    text = text.strip()
    if not _SCALAR.fullmatch(text):
        raise ValueError(f"not a scalar of the form n or n/d: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# Moduli must stay below 2**61 so products of two residues fit comfortably
# in a machine-assisted big-int fast path and pivoting costs stay predictable.
MAX_PRIME_EXCLUSIVE = 2 ** 61


def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin, valid far beyond 2**64
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rational numbers with Fraction scalars."""

    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"

    def of_int(self, n):
        return Fraction(n)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1, x) if isinstance(x, int) else 1 / x

    def div(self, x, y):
        if y == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(x) / y

    def parse(self, text):
        """Parse "n" or "n/d" into a canonical Fraction."""
        return _parse_fraction(text)

    def to_str(self, x):
        return str(x)

    def is_root_of_unity(self, x):
        """Only 1 and -1 have finite multiplicative order in Q*."""
        if x == 0:
            raise ValueError("zero is not a unit")
        return x == 1 or x == -1


class PrimeField:
    """GF(p) with integer scalars in range(p); p must be prime and < 2**61."""

    def __init__(self, p):
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"prime modulus must be an integer, got {p!r}")
        if not 2 <= p < MAX_PRIME_EXCLUSIVE:
            raise ValueError(f"prime modulus out of range [2, 2**61): {p}")
        if not _is_prime(p):
            raise ValueError(f"modulus is not prime: {p}")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def of_int(self, n):
        return n % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def inv(self, x):
        if x % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, -1, self.p)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def parse(self, text):
        """Parse "n" or "n/d" into a canonical residue (d inverted mod p)."""
        text = text.strip()
        q = _parse_fraction(text)
        if q.denominator % self.p == 0:
            raise ValueError(f"denominator of {text!r} vanishes mod {self.p}")
        return self.mul(q.numerator % self.p, self.inv(q.denominator % self.p))

    def to_str(self, x):
        return str(x % self.p)

    def is_root_of_unity(self, x):
        """Every unit of a finite field has finite order."""
        if x % self.p == 0:
            raise ValueError("zero is not a unit")
        return True


QQ = RationalField()


def scalar_pow(field, x, n):
    """x**n in the field; n may be negative (x must then be a unit)."""
    if n < 0:
        return scalar_pow(field, field.inv(x), -n)
    result = field.one
    base = x
    while n:
        if n & 1:
            result = field.mul(result, base)
        base = field.mul(base, base)
        n >>= 1
    return result
