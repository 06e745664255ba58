"""Dimension tables of stable Hochschild homology and cohomology.

A request names an algebra, a finite integer degree window, a variant
(homology or cohomology), a coefficient twist (a power of the Nakayama
automorphism; the zeroth power is the algebra itself), and a method policy.
Each degree is routed to one terminal computation:

  formula    a closed-form theorem whose hypotheses the algebra satisfies,
             valid on the whole integer line (the published statements carry
             their own degree reflection);
  zeromaps   the three-term window around degree zero, for degree-0 homology
             of any diagonal twist;
  resolution the twisted-tensor bimodule resolution, for positive degrees of
             any variant and twist, within the element budget;
  oracle     the bar (co)chain complexes, for positive degrees within the
             element budget; only the bar_only policy routes to it, so it
             stays an independent check (cross_validate, the oracle command
             and the verify suites).

The paper's explicit two-generator complex (codim2_complex.DeltaComplex)
is no route: it checks the resolution's inverse-Nakayama homology in the
verify codim2 suite and in the tests.

Degrees with no direct terminal reduce through exactly one duality hop and
never two: negative homology of the k-th twist equals degree -n-1 homology
of the (-k)-th twist, negative cohomology of the k-th twist equals degree
-n-1 homology of the (k-1)-st twist, and degree-0 cohomology passes to
degree-0 homology of the linear dual M, recognised as the twist of A by
sigma = nu^j (expected j = 1-k).  Maps from that twist to M are a -> z.a
for z in Z_sigma(M) = {z : x_w z = sigma_w z x_w}, a c*dim x dim kernel;
A is local Frobenius, so one is bijective iff dim M = dim A, z.x^top != 0.
Every duality-derived entry records its source degree, coefficient, and the
terminal that produced the number.  Degrees that no permitted route can
serve are marked unavailable with a reason instead of being guessed.
"""

from dataclasses import dataclass

from .closed_forms import ci_dim, codim2_cohomology_dim, codim2_homology_dim, \
    exterior_dim
from .hochschild_bar import DEFAULT_BUDGET, BarWindow
from .near_zero import tate_hh0
from .qci_algebra import dual_bimodule, mat_apply, twisted_bimodule
from .sparse_linalg import SparseMatrix
from .twisted_resolution import ResolutionWindow

_POLICIES = {
    "auto": ("formula", "zeromaps", "resolution"),
    "formula_only": ("formula",),
    "complex_only": ("zeromaps", "resolution"),
    "bar_only": ("oracle",),
}

# the window terminals and the complexes they read
_WINDOWS = {"resolution": ResolutionWindow, "oracle": BarWindow}

VARIANTS = ("homology", "cohomology")


def coefficient_name(k):
    return "regular" if k == 0 else f"nu^{k}"


@dataclass(frozen=True)
class TateRequest:
    """A rectangular slice of the stable (co)homology table."""

    algebra: object
    n_min: int
    n_max: int
    variant: str = "homology"
    nakayama_power: int = 0
    method: str = "auto"
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
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


@dataclass(frozen=True)
class TableEntry:
    degree: int
    dimension: object  # int, or None when unavailable
    method: str
    source: str = ""


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


def _is_generic_codim2(A):
    if A.c != 2 or A.field.characteristic != 0:
        return False
    return not A.field.is_root_of_unity(A.q[0][1])


def _formula_dim(A, variant, n, k):
    """Closed-form value, or None when no published theorem applies."""
    if k != 0:
        return None
    p = A.field.characteristic
    if variant == "cohomology":
        if _is_generic_codim2(A):
            return codim2_cohomology_dim(n)
        return None
    m = n if n >= 0 else -n - 1
    if A.is_exterior():
        return exterior_dim(A.c, p, m)
    if A.is_commutative() and A.has_equal_exponents():
        return ci_dim(A.c, A.exponents[0], p, m)
    if _is_generic_codim2(A):
        return codim2_homology_dim(A.exponents[0], A.exponents[1], p, n)
    return None


def nakayama_module(A, k):
    """The k-th Nakayama twist of A as a bimodule, left action twisted."""
    return twisted_bimodule(A, A.nakayama(k), A.identity_twist(),
                            label=coefficient_name(k))


def twisted_centre(M, sigma):
    """Basis of Z_sigma(M) = {z in M : x_w z = sigma_w z x_w for every w}."""
    field = M.field
    dim = M.dim
    entries = {}
    for w, (left, right) in enumerate(zip(M.left, M.right)):
        for col in range(dim):
            for row, v in left[col].items():
                entries[(w * dim + row, col)] = v
            for row, v in right[col].items():
                key = (w * dim + row, col)
                entries[key] = field.sub(entries.get(key, field.zero),
                                         field.mul(sigma[w], v))
    return SparseMatrix.from_dict(field, len(M.left) * dim, dim,
                                  entries).kernel_basis()


def bimodules_isomorphic(M, sigma):
    """Whether M is isomorphic to its algebra A, left action twisted by sigma.

    Bimodule maps from the twist to M are a -> z.a with z in Z_sigma(M).
    A QCI is local Frobenius with socle k.x^top, so a -> z.a is injective
    iff z.x^top != 0; that holds for some z iff for some basis vector z.
    """
    A = M.algebra
    if M.dim != A.dim:
        return False
    top = M.right_monomial(A.top_index)
    return any(mat_apply(M.field, top, z) for z in twisted_centre(M, sigma))


def recognize_nakayama_power(A, M, expected_first=0, span=3):
    """The k with M isomorphic to the k-th Nakayama twist, else None."""
    if M.algebra is not A and M.algebra.describe() != A.describe():
        return None
    candidates = [expected_first]
    candidates.extend(j for j in range(-span, span + 1) if j != expected_first)
    for j in candidates:
        if bimodules_isomorphic(M, A.nakayama(j)):
            return j
    return None


class _Session:
    """One tate_dims evaluation: plans routes, then shares heavy objects.

    ``terminals`` narrows the evaluation to those terminals instead of the
    request's policy; cross_validate runs one session per terminal.
    """

    def __init__(self, req, terminals=None):
        self.req = req
        self.A = req.algebra
        self.terminals = _POLICIES[req.method] if terminals is None \
            else terminals
        self.plans = {}
        self.windows = {}
        self._recognized = {}

    # ---- reductions -------------------------------------------------

    def _source(self, n):
        """(variant, degree, twist power, reduction label) for degree n."""
        req = self.req
        k = req.nakayama_power
        if n >= 1 or (n == 0 and req.variant == "homology"):
            return req.variant, n, k, None
        if n <= -1 and req.variant == "homology":
            return "homology", -n - 1, -k, "duality"
        if n <= -1:
            return "homology", -n - 1, k - 1, "duality"
        return "homology", 0, None, "dual"  # cohomology degree 0

    # ---- terminal applicability ------------------------------------

    def _plan_terminal(self, variant, d, j):
        """(terminal name, None) or (None, unavailable reason)."""
        for name in self.terminals:
            if name == "formula":
                if j is not None and \
                        _formula_dim(self.A, variant, d, j) is not None:
                    return name, None
            elif name == "zeromaps":
                if variant == "homology" and d == 0:
                    return name, None
            elif d >= 1:  # a window terminal
                # degree d reads the chain space of degree d + 1
                needed = _WINDOWS[name].space_dim(self.A, self.A.dim, d + 1)
                if needed <= self.req.budget:
                    return name, None
                return None, (f"degree {d} needs {needed} "
                              f"basis elements, budget is {self.req.budget}")
        return None, f"no route under policy {self.req.method}"

    # ---- evaluation --------------------------------------------------

    def _evaluate(self, terminal, variant, d, j):
        if terminal == "formula":
            return _formula_dim(self.A, variant, d, j)
        if terminal == "zeromaps":
            return tate_hh0(self.A, self.A.nakayama(j))
        return self.windows[(terminal, variant, j)].dimension(d)

    def _recognize_dual(self, k):
        if k not in self._recognized:
            dual = dual_bimodule(nakayama_module(self.A, k))
            self._recognized[k] = \
                recognize_nakayama_power(self.A, dual, expected_first=1 - k)
        return self._recognized[k]

    def run(self):
        plans = {}
        dual_pending = []
        tops = {}  # (terminal, variant, j) -> top degree of a shared window
        for n in self.req.degrees:
            if "formula" in self.terminals and \
                    _formula_dim(self.A, self.req.variant, n,
                                 self.req.nakayama_power) is not None:
                plans[n] = (None, self.req.variant, n,
                            self.req.nakayama_power, "formula")
                continue
            variant, d, j, hop = self._source(n)
            if hop == "dual":
                dual_pending.append(n)
                plans[n] = (hop, variant, d, j, None)
                continue
            terminal, reason = self._plan_terminal(variant, d, j)
            plans[n] = (hop, variant, d, j, terminal) if terminal else \
                ("unavailable", variant, d, j, reason)
            if terminal in _WINDOWS:
                key = (terminal, variant, j)
                tops[key] = max(tops.get(key, 0), d)
        # dual recognition shifts the source coefficient, so resolve the
        # degree-0 cohomology plans before building shared windows
        for n in dual_pending:
            if not any(t in self.terminals for t in ("zeromaps", "formula")):
                plans[n] = ("unavailable", "homology", 0, None,
                            f"no route under policy {self.req.method}")
                continue
            j = self._recognize_dual(self.req.nakayama_power)
            if j is None:
                plans[n] = ("unavailable", "homology", 0, None,
                            "linear dual not recognised as a diagonal twist")
                continue
            terminal, reason = self._plan_terminal("homology", 0, j)
            plans[n] = ("dual", "homology", 0, j, terminal) if terminal \
                else ("unavailable", "homology", 0, j, reason)
        for key, top in sorted(tops.items()):
            terminal, variant, j = key
            self.windows[key] = _WINDOWS[terminal](
                nakayama_module(self.A, j), top, variant, self.req.budget)
        self.plans = plans

        entries = []
        for n in self.req.degrees:
            hop, variant, d, j, last = plans[n]
            if hop == "unavailable":
                entries.append(TableEntry(n, None, "unavailable", last))
                continue
            value = self._evaluate(last, variant, d, j)
            if hop is None:
                entries.append(TableEntry(n, value, last))
            else:
                source = f"degree={d}; coeff={coefficient_name(j)}; via={last}"
                entries.append(TableEntry(n, value, "duality", source))
        return DimensionTable(self.req, entries)


def tate_dims(req):
    """The dimension table for the requested window."""
    return _Session(req).run()


def cross_validate(req, dump_dir=None):
    """Evaluate the request once per terminal and diff the answers.

    Returns {"degrees": [...], "all_agree": bool}; each degree reports the
    value of every terminal that serves it, keyed by the terminal's name,
    or "duality:name" when the value comes through a duality hop.  On
    disagreement the maps of the resolution and oracle windows around that
    degree are dumped under dump_dir (when given) and the paths are listed.
    """
    sessions = {name: _Session(req, terminals=(name,))
                for name in ("formula", "zeromaps", "resolution", "oracle")}
    tables = {name: session.run() for name, session in sessions.items()}
    report = []
    for n in req.degrees:
        values = {}
        for name, table in tables.items():
            entry = table.entry(n)
            if entry.dimension is not None:
                prefix = "duality:" if entry.method == "duality" else ""
                values[prefix + name] = entry.dimension
        row = {"degree": n, "values": values,
               "agree": len(set(values.values())) <= 1}
        if not row["agree"] and dump_dir is not None:
            row["dumps"] = _dump_disagreement(sessions, n, dump_dir)
        report.append(row)
    return {"degrees": report, "all_agree": all(r["agree"] for r in report)}


def _dump_disagreement(sessions, degree, dump_dir):
    """Write the maps between degrees -1 and d + 1 of each window that
    serves degree d (the source degree of ``degree``), one file per map,
    named by its chain degree in the window."""
    import os

    os.makedirs(dump_dir, exist_ok=True)
    paths = []
    for name in _WINDOWS:
        session = sessions[name]
        _, variant, d, j, _ = session.plans[degree]
        win = session.windows.get((name, variant, j))
        if win is None or not 1 <= d <= win.n_max:
            continue
        lo, hi = sorted((win.position(-1), win.position(d + 1)))
        for deg in range(lo + 1, hi + 1):
            path = os.path.join(dump_dir,
                                f"degree{degree}_{name}_map{deg}.txt")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(win.window.maps[deg].dump_coordinates())
            paths.append(path)
    return paths
