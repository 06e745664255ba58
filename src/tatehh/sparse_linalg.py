"""Exact sparse matrices, ranks, kernels, and chain-complex windows.

Matrices are immutable coordinate-format collections of nonzero entries over
an exact field.  Over the rationals an entry is a Fraction or a Python int,
an integer rational.  A zero entry is tested by truthiness, which is exact
for both and for GF(p) residues.

Rank and kernel come from one elimination of the whole matrix: each pivot
is taken in a shortest remaining row, at the column of that row with the
fewest remaining rows, ties going to the lowest index (a Markowitz-style
rule that bounds fill by the pivot's row and column counts without scanning
every entry).  Rank is the number of pivots, counted on whichever of the
matrix and its transpose has fewer rows; the kernel basis comes from
back-substituting the pivot rows.

The elimination is fraction-free.  A row t with entry e in the column of
pivot row r, pivot entry pv, becomes pv t - e r: a nonzero multiple of
t - (e/pv) r, so the zero pattern, and with it every pivot choice and the
kernel basis, is that of dividing elimination.  Over the rationals the rows
are first cleared of denominators and each updated row is divided by the
gcd of its entries, so no Fraction is formed until back-substitution; over
GF(p) the update is reduced mod p.

A ChainComplexWindow is a finite run of degrees with one matrix per adjacent
pair, mapping degree n to n - 1.  Construction checks shapes and that
adjacent maps compose to zero, which is the main guard against transcription
errors in hand-built differentials; homology dimensions are available at
interior degrees only.
"""

import heapq
from math import gcd, lcm


class SparseMatrix:
    """An immutable nrows x ncols matrix over an exact field."""

    __slots__ = ("field", "nrows", "ncols", "_rows", "_nnz", "_rank")

    def __init__(self, field, nrows, ncols, entries=()):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        rows = {}
        count = 0
        for i, j, v in entries:
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry ({i}, {j}) outside {nrows}x{ncols}")
            if not v:
                continue
            row = rows.setdefault(i, {})
            if j in row:
                raise ValueError(f"duplicate entry at ({i}, {j})")
            row[j] = v
            count += 1
        self._rows = rows
        self._nnz = count
        self._rank = None

    @classmethod
    def from_dict(cls, field, nrows, ncols, entry_dict):
        """Build from a {(row, col): scalar} accumulator."""
        return cls(field, nrows, ncols,
                   ((i, j, v) for (i, j), v in entry_dict.items()))

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, ((i, i, field.one) for i in range(n)))

    @property
    def nnz(self):
        return self._nnz

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i, j):
        return self._rows.get(i, {}).get(j, self.field.zero)

    def entries(self):
        """Sorted coordinate triples (row, col, value)."""
        return [(i, j, self._rows[i][j])
                for i in sorted(self._rows)
                for j in sorted(self._rows[i])]

    def is_zero(self):
        return self._nnz == 0

    def transpose(self):
        return SparseMatrix(self.field, self.ncols, self.nrows,
                            ((j, i, v) for i, j, v in self.entries()))

    def compose(self, other):
        """Matrix product self * other."""
        if self.ncols != other.nrows:
            raise ValueError(f"cannot compose {self.shape} with {other.shape}")
        add, mul = self.field.add, self.field.mul
        out = SparseMatrix(self.field, self.nrows, other.ncols)
        for i, row in self._rows.items():
            # entries are nonzero, so only a sum can vanish; it is dropped
            acc = {}
            for k, v in row.items():
                for j, w in other._rows.get(k, {}).items():
                    if j not in acc:
                        acc[j] = mul(v, w)
                    elif val := add(acc[j], mul(v, w)):
                        acc[j] = val
                    else:
                        del acc[j]
            if acc:
                out._rows[i] = acc
                out._nnz += len(acc)
        return out

    def apply(self, vec):
        """Image of a dict vector {col: scalar} as {row: scalar}."""
        field = self.field
        out = {}
        for i, row in self._rows.items():
            acc = field.zero
            for j, v in row.items():
                if j in vec:
                    acc = field.add(acc, field.mul(v, vec[j]))
            if acc:
                out[i] = acc
        return out

    def scale(self, scalar):
        """The matrix times a field element."""
        mul = self.field.mul
        out = SparseMatrix(self.field, self.nrows, self.ncols)
        if scalar:
            out._rows = {i: {j: mul(scalar, v) for j, v in row.items()}
                         for i, row in self._rows.items()}
            out._nnz = self._nnz
        return out

    def add(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        field = self.field
        out = {(i, j): v for i, j, v in self.entries()}
        for i, j, v in other.entries():
            val = field.add(out.get((i, j), field.zero), v)
            if not val:
                out.pop((i, j), None)
            else:
                out[(i, j)] = val
        return SparseMatrix.from_dict(field, self.nrows, self.ncols, out)

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix)
                and self.field == other.field
                and self.shape == other.shape
                and self._rows == other._rows)

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self._nnz})"

    def dump_coordinates(self):
        """Coordinate text dump: header "rows cols nnz", then "row col value"."""
        lines = [f"{self.nrows} {self.ncols} {self._nnz}"]
        to_str = self.field.to_str
        for i, j, v in self.entries():
            lines.append(f"{i} {j} {to_str(v)}")
        return "\n".join(lines) + "\n"

    # -- rank and kernel -----------------------------------------------------

    def rank(self):
        """Exact rank over the field."""
        if self._rank is None:
            self._rank = self._compute_rank()
        return self._rank

    def _compute_rank(self):
        """Eliminate the matrix, or its transpose when that has fewer rows:
        the rank is the same, and fewer, longer rows take less memory."""
        if self._nnz == 0:
            return 0
        rows = self._elimination_rows(self.nrows > self.ncols)
        return sum(1 for _ in _eliminate(self.field, rows))

    def _elimination_rows(self, transpose=False):
        """A fresh {row: {col: scalar}} copy of the matrix or of its
        transpose, each row cleared of denominators over the rationals."""
        rows = self._rows
        if transpose:
            rows = {}
            for i, row in self._rows.items():
                for j, v in row.items():
                    rows.setdefault(j, {})[i] = v
        clear = _integral if self.field.characteristic == 0 else dict
        return {i: clear(row) for i, row in rows.items()}

    def kernel_dim(self):
        return self.ncols - self.rank()

    def kernel_basis(self):
        """A basis of the right null space, as dict vectors {col: scalar}.

        Deterministic: one vector per free column in increasing column order,
        with entry 1 at the free column.  Only the tests call it, and
        bench/tracer.py binds the name; it can go with ROADMAP item 4.
        """
        field = self.field
        pivots = list(_eliminate(field, self._elimination_rows()))
        # back-substitution: a pivot row mentions only its own column, free
        # columns and columns pivoted after it, so in reverse order each
        # pivot unknown becomes a combination of free unknowns
        solved = {}
        for pj, prow in reversed(pivots):
            scale = field.neg(field.inv(prow[pj]))
            expr = {}
            for j, v in prow.items():
                if j == pj:
                    continue
                c = field.mul(scale, v)
                for f, w in solved.get(j, {j: field.one}).items():
                    val = field.add(expr.get(f, field.zero), field.mul(c, w))
                    if val == field.zero:
                        expr.pop(f, None)
                    else:
                        expr[f] = val
            solved[pj] = expr
        basis = {f: {f: field.one}
                 for f in range(self.ncols) if f not in solved}
        for pj, _ in pivots:
            for f, coeff in solved[pj].items():
                basis[f][pj] = coeff
        return list(basis.values())


def _integral(row):
    """A rational row {col: scalar} times the lcm of its denominators."""
    den = lcm(*(v.denominator for v in row.values()))
    return {j: v.numerator * (den // v.denominator) for j, v in row.items()}


def _eliminate(field, rows):
    """Forward elimination; yields (pivot col, pivot row) once per pivot.

    ``rows`` maps row index to {col: scalar}, integers over the rationals,
    and is consumed.  Each pivot is taken in a shortest remaining row, at
    its column with the fewest remaining rows, ties going to the lowest
    index; a heap keyed by (row length, row) finds the row, and entries left
    stale by a length change are skipped when popped.  A row t with entry e
    in the column of pivot row r, pivot entry pv, becomes pv t - e r,
    reduced mod p over GF(p) and divided by the gcd of its entries over the
    rationals.  A yielded pivot row holds the pivot column and columns not
    pivoted yet.
    """
    p = field.characteristic
    col_rows = {}
    for i, row in rows.items():
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in rows.items() if row]
    heapq.heapify(heap)
    while heap:
        length, pi = heapq.heappop(heap)
        prow = rows.get(pi)
        if prow is None or len(prow) != length:
            continue
        del rows[pi]
        pj = min(prow, key=lambda j: (len(col_rows[j]), j))
        for j in prow:
            col_rows[j].discard(pi)
        pv = prow[pj]
        for r in col_rows.pop(pj):
            target = rows[r]
            before = len(target)
            e = target.pop(pj)
            if pv != 1:
                for j, v in target.items():
                    target[j] = v * pv % p if p else v * pv
            for j, v in prow.items():
                if j == pj:
                    continue
                val = target.get(j, 0) - e * v
                if p:
                    val %= p
                if not val:
                    if j in target:
                        del target[j]
                        col_rows[j].discard(r)
                else:
                    if j not in target:
                        col_rows[j].add(r)
                    target[j] = val
            if not target:
                del rows[r]
                continue
            if not p:
                g = gcd(*target.values())
                if g > 1:
                    for j, v in target.items():
                        target[j] = v // g
            if len(target) != before:
                heapq.heappush(heap, (len(target), r))
        yield pj, prow


class ChainComplexWindow:
    """A finite window of a chain complex with homological-convention maps.

    ``degrees`` runs from the highest degree down to the lowest, consecutive
    integers; ``spaces`` maps each degree to its dimension; ``maps`` holds one
    SparseMatrix per degree n except the lowest, sending degree n to n - 1.
    Shapes and adjacent-composition-zero are verified at construction.
    """

    def __init__(self, degrees, spaces, maps):
        degrees = list(degrees)
        if not degrees:
            raise ValueError("window needs at least one degree")
        for a, b in zip(degrees, degrees[1:]):
            if b != a - 1:
                raise ValueError("degrees must descend consecutively")
        self.hi = degrees[0]
        self.lo = degrees[-1]
        self.degrees = degrees
        self.spaces = {n: spaces[n] for n in degrees}
        self.maps = {}
        for n in degrees[:-1]:
            m = maps[n]
            expected = (self.spaces[n - 1], self.spaces[n])
            if m.shape != expected:
                raise ValueError(
                    f"map at degree {n} has shape {m.shape}, expected {expected}")
            self.maps[n] = m
        for n in degrees[1:-1]:
            if not self.maps[n].compose(self.maps[n + 1]).is_zero():
                raise ValueError(
                    f"maps at degrees {n + 1} and {n} do not compose to zero")

    def homology_dim(self, n):
        """dim ker(map out of degree n) - rank(map into degree n)."""
        if not (self.lo < n < self.hi):
            raise ValueError(
                f"degree {n} is not interior to the window [{self.lo}, {self.hi}]")
        return (self.spaces[n] - self.maps[n].rank()) - self.maps[n + 1].rank()
