"""Exact sparse matrices, ranks, kernels, and chain-complex windows.

Matrices are immutable coordinate-format collections of nonzero entries over
an exact field.  Rank uses Gaussian elimination with Markowitz-style pivoting
(pivot minimizing (row_nnz - 1) * (col_nnz - 1), ties broken by (row, col)),
run independently on each connected component of the bipartite row/column
graph; the differentials handled here are block-diagonal in a monomial
multigrading, and the component split recovers those blocks without having to
know the grading.  Over the rationals a modular pre-pass computes the rank
mod a fixed word-sized prime first; that lower bound is certified only when
it meets the trivial upper bound min(#nonzero rows, #nonzero cols), otherwise
exact fraction elimination decides.

A ChainComplexWindow is a finite run of degrees with one matrix per adjacent
pair, mapping degree n to n - 1.  Construction checks shapes and that
adjacent maps compose to zero, which is the main guard against transcription
errors in hand-built differentials; homology dimensions are available at
interior degrees only.
"""

from .exact_field import PrimeField

# fixed word-sized prime for the rational pre-pass, kept constant so repeated
# runs eliminate identically
_PREPASS_PRIME = 2 ** 61 - 1
_PREPASS_FIELD = PrimeField(_PREPASS_PRIME)


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
            if v == field.zero:
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
        field = self.field
        out = {}
        for i, row in self._rows.items():
            acc = {}
            for k, v in row.items():
                orow = other._rows.get(k)
                if not orow:
                    continue
                for j, w in orow.items():
                    val = field.add(acc.get(j, field.zero), field.mul(v, w))
                    if val == field.zero:
                        acc.pop(j, None)
                    else:
                        acc[j] = val
            for j, val in acc.items():
                out[(i, j)] = val
        return SparseMatrix.from_dict(field, self.nrows, other.ncols, out)

    def apply(self, vec):
        """Image of a dict vector {col: scalar} as {row: scalar}."""
        field = self.field
        out = {}
        for i, row in self._rows.items():
            acc = field.zero
            for j, v in row.items():
                if j in vec:
                    acc = field.add(acc, field.mul(v, vec[j]))
            if acc != field.zero:
                out[i] = acc
        return out

    def scale(self, scalar):
        return SparseMatrix(self.field, self.nrows, self.ncols,
                            ((i, j, self.field.mul(scalar, v))
                             for i, j, v in self.entries()))

    def add(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        field = self.field
        out = {(i, j): v for i, j, v in self.entries()}
        for i, j, v in other.entries():
            val = field.add(out.get((i, j), field.zero), v)
            if val == field.zero:
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
        if self._nnz == 0:
            return 0
        field = self.field
        if field.characteristic == 0:
            modular = self._modular_entries()
            if modular is not None:
                rated = _component_rank(_PREPASS_FIELD, modular)
                nonzero_rows = len(self._rows)
                nonzero_cols = len({j for row in self._rows.values() for j in row})
                if rated == min(nonzero_rows, nonzero_cols):
                    return rated
        return _component_rank(field, self.entries())

    def _modular_entries(self):
        """Nonzero entries reduced mod the pre-pass prime, or None if a
        denominator vanishes there (exact elimination then decides alone).
        Dropping zero residues leaves the same matrix mod p, whose rank is
        still a lower bound on the rational rank."""
        p = _PREPASS_PRIME
        out = []
        for i, j, v in self.entries():
            if v.denominator % p == 0:
                return None
            r = (v.numerator % p) * pow(v.denominator % p, -1, p) % p
            if r:
                out.append((i, j, r))
        return out

    def kernel_dim(self):
        return self.ncols - self.rank()

    def kernel_basis(self):
        """A basis of the right null space, as dict vectors {col: scalar}.

        Deterministic: one vector per free column in increasing column order,
        with entry 1 at the free column.
        """
        field = self.field
        rows = {i: dict(row) for i, row in self._rows.items()}
        pivots = _gauss_jordan(field, rows)
        pivot_cols = set(pivots.values())
        basis = []
        for f in range(self.ncols):
            if f in pivot_cols:
                continue
            vec = {f: field.one}
            for r, c in pivots.items():
                coeff = rows[r].get(f)
                if coeff is not None:
                    vec[c] = field.neg(coeff)
            basis.append(vec)
        return basis


def _gauss_jordan(field, rows):
    """In-place full reduction with Markowitz pivoting.

    ``rows`` maps row index to {col: scalar}.  Returns {pivot row: pivot col};
    afterwards each pivot row is normalized and every pivot column is cleared
    elsewhere, so non-pivot entries of pivot rows sit in free columns only.
    """
    col_rows = {}
    for i, row in rows.items():
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    active = {i for i, row in rows.items() if row}
    pivots = {}
    while active:
        best = None
        for i in active:
            ri = len(rows[i]) - 1
            for j, v in rows[i].items():
                score = ri * (len(col_rows[j]) - 1)
                key = (score, i, j)
                if best is None or key < best:
                    best = key
        _, pi, pj = best
        pivots[pi] = pj
        active.discard(pi)
        inv = field.inv(rows[pi][pj])
        if inv != field.one:
            rows[pi] = {j: field.mul(inv, v) for j, v in rows[pi].items()}
        prow = rows[pi]
        for r in list(col_rows[pj]):
            if r == pi:
                continue
            factor = rows[r][pj]
            target = rows[r]
            for j, v in prow.items():
                val = field.sub(target.get(j, field.zero), field.mul(factor, v))
                if val == field.zero:
                    if j in target:
                        del target[j]
                        col_rows[j].discard(r)
                else:
                    if j not in target:
                        col_rows[j].add(r)
                    target[j] = val
            if not target:
                active.discard(r)
    return pivots


def _component_rank(field, entries):
    """Rank as the sum of ranks of connected components.

    Components of the bipartite graph on rows and columns (edges at nonzero
    entries) can be eliminated independently; for graded differentials this
    recovers the grading blocks.
    """
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(x, y):
        for node in (x, y):
            if node not in parent:
                parent[node] = node
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for i, j, _ in entries:
        union(("r", i), ("c", j))
    groups = {}
    for i, j, v in entries:
        groups.setdefault(find(("r", i)), []).append((i, j, v))
    total = 0
    for key in sorted(groups, key=lambda k: k[1]):
        total += _markowitz_rank(field, groups[key])
    return total


def _markowitz_rank(field, entries):
    """Rank of one component by destructive Markowitz elimination."""
    rows = {}
    for i, j, v in entries:
        rows.setdefault(i, {})[j] = v
    col_rows = {}
    for i, row in rows.items():
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    rank = 0
    while rows:
        best = None
        for i, row in rows.items():
            ri = len(row) - 1
            for j in row:
                score = ri * (len(col_rows[j]) - 1)
                key = (score, i, j)
                if best is None or key < best:
                    best = key
        _, pi, pj = best
        rank += 1
        prow = rows.pop(pi)
        inv = field.inv(prow[pj])
        for j in prow:
            col_rows[j].discard(pi)
        rest = col_rows.pop(pj)
        for r in rest:
            target = rows[r]
            factor = field.mul(target.pop(pj), inv)
            for j, v in prow.items():
                if j == pj:
                    continue
                val = field.sub(target.get(j, field.zero), field.mul(factor, v))
                if val == field.zero:
                    if j in target:
                        del target[j]
                        col_rows[j].discard(r)
                else:
                    if j not in target:
                        col_rows[j].add(r)
                    target[j] = val
            if not target:
                del rows[r]
    return rank


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

    def interior_degrees(self):
        return [n for n in self.degrees if self.lo < n < self.hi]

    def homology_dim(self, n):
        """dim ker(map out of degree n) - rank(map into degree n)."""
        if not (self.lo < n < self.hi):
            raise ValueError(
                f"degree {n} is not interior to the window [{self.lo}, {self.hi}]")
        return (self.spaces[n] - self.maps[n].rank()) - self.maps[n + 1].rank()

    def homology_dims(self):
        return {n: self.homology_dim(n) for n in self.interior_degrees()}
