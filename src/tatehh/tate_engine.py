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
routes every degree, within the element budget, to one terminal, named in
the table's method column:

  auto      resolution: the twisted-tensor resolution (twisted_resolution)
            with no bimodule and no matrix: chain degrees >= 1 and <= -2 by
            the label census of each half (Census), the splice degrees 0
            and -1 counted from its weighted shifts (near_zero.splice_dims);
  bar_only  oracle: one spliced window (TateWindow) of the bar resolution
            (hochschild_bar), an independent check (cross_validate).

TateWindow over the whole requested range, on either resolution, stays the
reference that cross_validate's dumps, the verify duality suite and the
tests read.  The published closed forms (closed_forms) route nothing: the
verify suites and the tests compare the table with them.  The duality
theorems are checked, not used: the verify duality suite compares degree-0
cohomology of nu^k and homology of nu^(1-k), certified as the dual of nu^k
(bimodules_isomorphic, below).  The paper's two-generator complex
(codim2_complex.DeltaComplex) checks the resolution's nu^-1 homology in the
verify codim2 suite and the tests.  Degrees beyond the budget are marked
unavailable with the reason instead of being guessed.
"""

from .hochschild_bar import DEFAULT_BUDGET, BarWindow, BudgetExceeded
from .near_zero import d0_matrix_via_s, splice_dims
from .qci_algebra import twisted_bimodule
from .records import Record
from .sparse_linalg import ChainComplexWindow
from .twisted_resolution import Census, ResolutionWindow

# the terminal of each method policy
_POLICIES = {"auto": "resolution", "bar_only": "oracle"}

# the terminals and the complexes their spliced windows read
_WINDOWS = {"resolution": ResolutionWindow, "oracle": BarWindow}

VARIANTS = ("homology", "cohomology")


def coefficient_name(k):
    return "regular" if k == 0 else f"nu^{k}"


class TateRequest(Record):
    """A rectangular slice of the stable (co)homology table."""

    __slots__ = ("algebra", "n_min", "n_max", "variant", "nakayama_power",
                 "method", "budget")

    def __init__(self, algebra, n_min, n_max, variant="homology",
                 nakayama_power=0, method="auto", budget=DEFAULT_BUDGET):
        self._assign(algebra, n_min, n_max, variant, nakayama_power, method,
                     budget)
        if self.n_min > self.n_max:
            raise ValueError("empty degree window")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.method not in _POLICIES:
            raise ValueError(f"unknown method policy {self.method!r}")
        if self.budget < 1:
            raise ValueError("budget must be positive")

    @property
    def degrees(self):
        return range(self.n_min, self.n_max + 1)


class TableEntry(Record):
    __slots__ = ("degree", "dimension", "method", "source")

    def __init__(self, degree, dimension, method, source=""):
        # dimension: int, or None when unavailable
        self._assign(degree, dimension, method, source)


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

    ``kind`` (ResolutionWindow or BarWindow) supplies the space sizes and
    the differentials of B_j (x) P and of Hom(P, B_{j+1}), read from A's
    characters (_Assembly) or from B_j built by nakayama_module; the norm
    map is near_zero.d0_matrix_via_s, which splice_dims does not read.
    ``maps[n]`` is the differential C_n -> C_{n-1} itself, ranked whole.
    Composition-zero is checked at construction, across the splice too.
    """

    def __init__(self, A, j, lo, hi, budget, kind):
        for n in range(lo, hi + 1):
            needed = self.need(kind, A, n)
            if needed > budget:
                raise BudgetExceeded(n, needed, budget)
        self.A, self.j, self.kind, self._halves = A, j, kind, {}
        degrees = range(hi + 1, lo - 2, -1)
        spaces = {n: kind.space_dim(A, A.dim, n if n >= 0 else -n - 1)
                  for n in degrees}
        super().__init__(degrees, spaces,
                         {n: self._map(n) for n in degrees[:-1]})

    @staticmethod
    def need(kind, A, n):
        """The largest space degree n reads: C_{n+1} (n >= 0) or C_{n-1}."""
        return kind.space_dim(A, A.dim, (n if n >= 0 else -n - 1) + 1)

    def _map(self, n):
        """The map C_n -> C_{n-1}."""
        if n == 0:  # the norm map
            return d0_matrix_via_s(self.A, self.A.nakayama(self.j))
        if n >= 1:
            return self._half(self.j, "homology")(n)
        return self._half(self.j + 1, "cohomology")(-n - 1)

    def _half(self, j, variant):
        if variant not in self._halves:
            self._halves[variant] = \
                ResolutionWindow.differentials(self.A, j, variant) \
                if self.kind is ResolutionWindow else \
                BarWindow.differentials(nakayama_module(self.A, j), variant)
        return self._halves[variant]


class _Session:
    """One tate_dims evaluation: serves every degree within the budget from
    one terminal.

    ``terminal`` overrides the request's policy; cross_validate runs one
    session per terminal.
    """

    def __init__(self, req, terminal=None):
        self.req = req
        self.terminal = _POLICIES[req.method] if terminal is None \
            else terminal

    def chain_degree(self, n):
        """The degree of the spliced complex holding degree n."""
        return n if self.req.variant == "homology" else -n - 1

    def twist(self):
        """The j of the spliced complex C(j) that holds the request."""
        k = self.req.nakayama_power
        return k if self.req.variant == "homology" else k - 1

    def run(self):
        req, terminal = self.req, self.terminal
        entries, served = [], []
        for n in req.degrees:
            needed = TateWindow.need(_WINDOWS[terminal], req.algebra,
                                     self.chain_degree(n))
            if needed <= req.budget:
                served.append(n)
            else:
                entries.append(TableEntry(n, None, "unavailable", str(
                    BudgetExceeded(n, needed, req.budget))))
        if served:
            chain = [self.chain_degree(n) for n in served]
            if terminal == "resolution":
                dims = self._census(chain)
            else:
                window = TateWindow(req.algebra, self.twist(), min(chain),
                                    max(chain), req.budget, _WINDOWS[terminal])
                dims = {t: window.homology_dim(t) for t in chain}
            entries.extend(TableEntry(n, dims[t], terminal)
                           for n, t in zip(served, chain))
        return DimensionTable(req, entries)

    def _census(self, chain):
        """H_t by label census outside the splice and counted inside it
        (near_zero.splice_dims): no bimodule and no matrix."""
        A, j = self.req.algebra, self.twist()
        dims = splice_dims(A, j) if {0, -1} & set(chain) else {}
        for twist, variant, degrees in (
                (j, "homology", [t for t in chain if t >= 1]),
                (j + 1, "cohomology", [-t - 1 for t in chain if t <= -2])):
            if degrees:
                census = Census(A, twist, variant, degrees)
                dims.update((n if variant == "homology" else -n - 1,
                             census.dimension(n)) for n in degrees)
        return dims


def tate_dims(req):
    """The dimension table for the requested window."""
    return _Session(req).run()


def cross_validate(req, dump_dir=None):
    """Evaluate the request once per terminal and diff the answers.

    Returns {"degrees": [...], "all_agree": bool}; each degree reports the
    value of every terminal that serves it, keyed by the terminal's name.
    On disagreement the maps into and out of that degree's chain space are
    dumped from a reference window of each terminal that serves it,
    under dump_dir (when given), and the paths are listed.
    """
    sessions = {name: _Session(req, terminal=name) for name in _WINDOWS}
    tables = {name: session.run() for name, session in sessions.items()}
    report = []
    for n in req.degrees:
        values = {name: table.dimension(n) for name, table in tables.items()
                  if table.dimension(n) is not None}
        row = {"degree": n, "values": values,
               "agree": len(set(values.values())) <= 1}
        if not row["agree"] and dump_dir is not None:
            row["dumps"] = _dump_disagreement(
                sessions["resolution"], n,
                [name for name in _WINDOWS if name in values], dump_dir)
        report.append(row)
    return {"degrees": report, "all_agree": all(r["agree"] for r in report)}


def _dump_disagreement(session, degree, names, dump_dir):
    """Write the maps into and out of the chain space of ``degree`` from a
    reference window of each named window terminal, one file per map,
    named by its degree in the spliced complex."""
    import os

    os.makedirs(dump_dir, exist_ok=True)
    req, t = session.req, session.chain_degree(degree)
    paths = []
    for name in names:
        win = TateWindow(req.algebra, session.twist(), t, t, req.budget,
                         _WINDOWS[name])
        for deg in (t, t + 1):
            path = os.path.join(dump_dir,
                                f"degree{degree}_{name}_map{deg}.txt")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(win.maps[deg].dump_coordinates())
            paths.append(path)
    return paths
