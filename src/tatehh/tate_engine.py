"""Dimension tables of stable Hochschild homology and cohomology.

A request names an algebra, a finite integer degree window, a variant
(homology or cohomology), a coefficient twist (a power of the Nakayama
automorphism; the zeroth power is the algebra itself), and a method policy.

The groups are those of one complete resolution: a QCI is Frobenius, so the
bimodule resolution P spliced at degree 0 to its A^e-dual is one (Buchweitz
1986).  With B_j the j-th Nakayama twist of A, TateWindow is the complex

    C_n = B_j (x)_{A^e} P_n  (n >= 0),    C_{-n-1} = Hom_{A^e}(P_n, B_{j+1}),

joined by the norm map C_0 -> C_{-1}, near_zero.d0_matrix_via_s(A, nu^j).  Tate
homology of nu^k in degree n is H_n(C(k)); Tate cohomology of nu^k in degree
n is H_{-n-1}(C(k-1)); this holds for every integer n.  A method policy
routes every degree, within the element budget, to one route, named in the
table's method column:

  auto      resolution: the twisted-tensor resolution (twisted_resolution)
            with no bimodule and no matrix: chain degrees >= 1 and <= -2 by
            the label census of each half (Census), the splice degrees 0
            and -1 counted from its weighted shifts (near_zero.splice_dims);
  bar_only  oracle: one spliced window (TateWindow) of the bar resolution
            (hochschild_bar), an independent check (cross_validate).

One table, _ROUTES, holds what a route name decides: the size of degree n
of a half (B_j (x) P or Hom(P, B_{j+1})), the maps of a half, and how the
route serves a table's chain degrees (the census, or one TateWindow).
tate_dims reads the row of its policy's route, cross_validate every row,
and TateWindow the row it is named; no other code branches on a route.
TateWindow over the whole requested range, on the resolution that the
method column names, stays the reference that cross_validate's dumps, the
verify duality suite and the tests read.  The published closed forms
(closed_forms) route nothing: the verify suites and the tests compare the
table with them.  The duality theorems are checked, not used: the verify
duality suite compares degree-0 cohomology of nu^k and homology of
nu^(1-k), certified as the dual of nu^k (bimodules_isomorphic, below).
The paper's two-generator complex (codim2_complex.DeltaComplex) checks the
resolution's nu^-1 homology in the verify codim2 suite and the tests.
Degrees beyond the budget are marked unavailable with the reason instead
of being guessed.
"""

from collections import namedtuple

from .hochschild_bar import DEFAULT_BUDGET, BarWindow, BudgetExceeded
from .near_zero import d0_matrix_via_s, splice_dims
from .qci_algebra import twisted_bimodule
from .sparse_linalg import ChainComplexWindow
from .twisted_resolution import Assembly, Census, chain_space_dim

# the route (a name in _ROUTES) of each method policy
_POLICIES = {"auto": "resolution", "bar_only": "oracle"}

VARIANTS = ("homology", "cohomology")


def coefficient_name(k):
    return "regular" if k == 0 else f"nu^{k}"


class TateRequest(namedtuple(
        "TateRequest", ("algebra", "n_min", "n_max", "variant",
                        "nakayama_power", "method", "budget"),
        defaults=("homology", 0, "auto", DEFAULT_BUDGET))):
    """A rectangular slice of the stable (co)homology table."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("n_min", "n_max", "nakayama_power", "budget"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, not {value!r}")
        if self.n_min > self.n_max:
            raise ValueError("empty degree window")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.method not in _POLICIES:
            raise ValueError(f"unknown method policy {self.method!r}")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        return self

    @property
    def degrees(self):
        return range(self.n_min, self.n_max + 1)


class TableEntry(namedtuple("TableEntry",
                             ("degree", "dimension", "method", "source"),
                             defaults=("",))):
    # dimension: int, or None when unavailable
    __slots__ = ()


class DimensionTable:
    """Per-degree dimensions with method provenance."""

    def __init__(self, request, entries):
        self.request = request
        self.entries = sorted(entries, key=lambda e: e.degree)
        self._by_degree = {e.degree: e for e in self.entries}

    def entry(self, n):
        return self._by_degree[n]

    def dimension(self, n):
        return self._by_degree[n].dimension

    def dims(self):
        """Dimensions in degree order; None marks unavailable entries."""
        return [e.dimension for e in self.entries]

    def complete(self):
        return all(e.dimension is not None for e in self.entries)

    def to_csv(self):
        return entries_csv(self.entries)

    def to_json_dict(self):
        req = self.request
        return entries_json_dict({
            "algebra": req.algebra.describe(),
            "variant": req.variant,
            "coefficient": coefficient_name(req.nakayama_power),
            "method_policy": req.method,
        }, self.entries)


CSV_HEADER = "degree,dimension,method,source"


def entries_csv(entries):
    """CSV text of table entries; an unavailable dimension is left empty."""
    lines = [CSV_HEADER]
    for e in entries:
        dim = "" if e.dimension is None else str(e.dimension)
        lines.append(f"{e.degree},{dim},{e.method},{e.source}")
    return "\n".join(lines) + "\n"


def entries_json_dict(header, entries):
    """A copy of ``header`` with the entries under "entries"."""
    doc = dict(header)
    doc["entries"] = [
        {"degree": e.degree, "dimension": e.dimension,
         "method": e.method, "source": e.source}
        for e in entries
    ]
    return doc


def nakayama_module(A, k):
    """The k-th Nakayama twist of A as a bimodule, left action twisted."""
    return twisted_bimodule(A, A.nakayama(k), A.identity_twist(),
                            label=coefficient_name(k))


def bimodules_isomorphic(M, sigma):
    """Whether the functional lambda dual to x^top certifies M isomorphic to
    A_sigma (A, left action twisted by sigma): x_w.lambda = sigma_w lambda.x_w
    for every w and lambda.x^top != 0.  Then a -> lambda.a is a bimodule map
    A_sigma -> M; its kernel, an ideal of the local Frobenius QCI, misses the
    socle k.x^top, so the map is injective, and bijective as dim M = dim A.
    No lambda.x_w is 0, so only one sigma meets the first condition; for
    M = D(nu^k) both hold at nu^(1-k) (Frobenius duality), so there the
    certificate decides the isomorphism.  bench/tracer.py binds this name
    and recognize_nakayama_power.
    """
    A, field = M.algebra, M.field
    if M.dim != A.dim:
        return False
    z = {A.top_index: field.one}
    return all(left.apply(z) == {i: field.mul(s, v)
                                 for i, v in right.apply(z).items()}
               for s, left, right in zip(sigma, M.left, M.right)) \
        and bool(M.right_monomial(A.top_index).apply(z))


def recognize_nakayama_power(A, M, j):
    """j if bimodules_isomorphic certifies M as nu^j over A, else None."""
    if M.algebra is not A and M.algebra.describe() != A.describe():
        return None
    return j if bimodules_isomorphic(M, A.nakayama(j)) else None


class TateWindow(ChainComplexWindow):
    """The spliced complex C(j) on the degrees lo - 1 .. hi + 1: the bar
    route's every degree, and the reference for the resolution route.

    ``route``, a route name of the table's method column, picks its row of
    _ROUTES: the resolution P of B_j (x) P and Hom(P, B_{j+1}) and the maps
    of each half, read from A's characters (Assembly) on "resolution", from
    the bar complexes of B_j and B_{j+1} built by nakayama_module on
    "oracle"; any other name raises ValueError.  A half is built only when
    a map of the window lies in it.  The norm map is
    near_zero.d0_matrix_via_s, which splice_dims does not read.
    ``maps[n]`` is the differential C_n -> C_{n-1} itself, ranked whole.
    Composition-zero is checked at construction, across the splice too.
    """

    def __init__(self, A, j, lo, hi, budget, route):
        if route not in _ROUTES:
            raise ValueError(f"unknown route {route!r}")
        size, self._maps_of, _ = _ROUTES[route]
        for n in range(lo, hi + 1):
            needed = _need(size, A, n)
            if needed > budget:
                raise BudgetExceeded(n, needed, budget)
        self.A, self.j, self._halves = A, j, {}
        degrees = range(hi + 1, lo - 2, -1)
        spaces = {n: size(A, n if n >= 0 else -n - 1) for n in degrees}
        super().__init__(degrees, spaces,
                         {n: self._map(n) for n in degrees[:-1]})

    def _map(self, n):
        """The map C_n -> C_{n-1}."""
        if n == 0:  # the norm map
            return d0_matrix_via_s(self.A, self.A.nakayama(self.j))
        j, variant, degree = (self.j, "homology", n) if n >= 1 else \
            (self.j + 1, "cohomology", -n - 1)
        if variant not in self._halves:
            self._halves[variant] = self._maps_of(self.A, j, variant)
        return self._halves[variant](degree)


def _need(size, A, n):
    """The largest space chain degree n reads, C_{n+1} (n >= 0) or C_{n-1},
    from ``size`` of a _ROUTES row."""
    return size(A, (n if n >= 0 else -n - 1) + 1)


def _chain_degree(req, n):
    """The degree of the spliced complex holding degree n."""
    return n if req.variant == "homology" else -n - 1


def _twist(req):
    """The j of the spliced complex C(j) that holds the request."""
    k = req.nakayama_power
    return k if req.variant == "homology" else k - 1


def _census(req, route, j, chain):
    """H_t by label census outside the splice and counted inside it
    (near_zero.splice_dims): no bimodule and no matrix."""
    A = req.algebra
    dims = splice_dims(A, j) if {0, -1} & set(chain) else {}
    for twist, variant, degrees in (
            (j, "homology", [t for t in chain if t >= 1]),
            (j + 1, "cohomology", [-t - 1 for t in chain if t <= -2])):
        if degrees:
            census = Census(A, twist, variant, degrees)
            dims.update((n if variant == "homology" else -n - 1,
                         census.dimension(n)) for n in degrees)
    return dims


def _window(req, route, j, chain):
    """H_t from one spliced window of the route over the chain degrees."""
    window = TateWindow(req.algebra, j, min(chain), max(chain), req.budget,
                        route)
    return {t: window.homology_dim(t) for t in chain}


# route name: (the size of degree n of a half, the maps of the half
# B_j (x) P (homology) or Hom(P, B_j) (cohomology) of (A, j, variant), how
# the route serves a table's chain degrees)
_ROUTES = {
    "resolution": (lambda A, n: chain_space_dim(A.c, A.dim, n), Assembly,
                   _census),
    "oracle": (lambda A, n: BarWindow.space_dim(A, A.dim, n),
               lambda A, j, variant: BarWindow.differentials(
                   nakayama_module(A, j), variant),
               _window),
}


def _table(req, route):
    """The table of one route: every degree within the budget from it, the
    others unavailable."""
    size, _, serve = _ROUTES[route]
    entries, served = [], []
    for n in req.degrees:
        needed = _need(size, req.algebra, _chain_degree(req, n))
        if needed <= req.budget:
            served.append(n)
        else:
            entries.append(TableEntry(n, None, "unavailable", str(
                BudgetExceeded(n, needed, req.budget))))
    if served:
        chain = [_chain_degree(req, n) for n in served]
        dims = serve(req, route, _twist(req), chain)
        entries.extend(TableEntry(n, dims[t], route)
                       for n, t in zip(served, chain))
    return DimensionTable(req, entries)


def tate_dims(req):
    """The dimension table for the requested window."""
    return _table(req, _POLICIES[req.method])


def cross_validate(req, dump_dir=None):
    """Evaluate the request once per route and diff the answers.

    Returns {"degrees": [...], "all_agree": bool}; each degree reports the
    value of every route that serves it, keyed by the route's name.
    On disagreement the maps into and out of that degree's chain space are
    dumped from a reference window of each route that serves it,
    under dump_dir (when given), and the paths are listed.
    """
    tables = {name: _table(req, name) for name in _ROUTES}
    report = []
    for n in req.degrees:
        values = {name: table.dimension(n) for name, table in tables.items()
                  if table.dimension(n) is not None}
        row = {"degree": n, "values": values,
               "agree": len(set(values.values())) <= 1}
        if not row["agree"] and dump_dir is not None:
            row["dumps"] = _dump_disagreement(
                req, n, [name for name in tables if name in values],
                dump_dir)
        report.append(row)
    return {"degrees": report, "all_agree": all(r["agree"] for r in report)}


def _dump_disagreement(req, degree, names, dump_dir):
    """Write the maps into and out of the chain space of ``degree`` from a
    reference window of each named route, one file per map, named by its
    degree in the spliced complex."""
    import os

    os.makedirs(dump_dir, exist_ok=True)
    t = _chain_degree(req, degree)
    paths = []
    for name in names:
        win = TateWindow(req.algebra, _twist(req), t, t, req.budget, name)
        for deg in (t, t + 1):
            path = os.path.join(dump_dir,
                                f"degree{degree}_{name}_map{deg}.txt")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(win.maps[deg].dump_coordinates())
            paths.append(path)
    return paths
