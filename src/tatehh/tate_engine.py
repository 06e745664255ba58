"""Dimension tables of stable Hochschild homology and cohomology.

A request names an algebra, a finite integer degree window, a variant
(homology or cohomology), a coefficient twist (a power of the Nakayama
automorphism; the zeroth power is the algebra itself), and a method policy.
Each degree is routed to one terminal computation:

  formula    a closed-form theorem whose hypotheses the algebra satisfies,
             valid on the whole integer line (the published statements carry
             their own degree reflection);
  delta      the explicit two-generator complex, for positive degrees of the
             inverse-Nakayama twist at a generic commutation scalar;
  zeromaps   the three-term window around degree zero, for degree-0 homology
             of any diagonal twist;
  resolution the twisted-tensor bimodule resolution, for positive degrees of
             any variant and twist, within the element budget;
  oracle     the bar (co)chain complexes, for positive degrees within the
             element budget; only the bar_only policy routes to it, so it
             stays an independent check (cross_validate, the oracle command
             and the verify suites).

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
from .codim2_complex import DeltaComplex
from .hochschild_bar import DEFAULT_BUDGET, CohomologyWindow, homology_window
from .near_zero import tate_hh0
from .qci_algebra import dual_bimodule, mat_apply, twisted_bimodule
from .sparse_linalg import SparseMatrix
from .twisted_resolution import ResolutionWindow, chain_space_dim

_POLICIES = {
    "auto": ("formula", "delta", "zeromaps", "resolution"),
    "formula_only": ("formula",),
    "complex_only": ("delta", "zeromaps", "resolution"),
    "bar_only": ("oracle",),
}

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
    """One tate_dims evaluation: plans routes, then shares heavy objects."""

    def __init__(self, req):
        self.req = req
        self.A = req.algebra
        self.terminals = _POLICIES[req.method]
        self._delta = None
        self._delta_top = 0
        self._windows = {}
        self._window_tops = {}
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

    def _delta_applicable(self, variant, d, j):
        if variant != "homology" or d < 1 or j != -1 or self.A.c != 2:
            return False
        if self.req.method == "complex_only":
            # let construction raise the hypothesis error explicitly
            return True
        return _is_generic_codim2(self.A)

    def _needed(self, terminal, d):
        """Size of the largest chain space a degree-d window reads."""
        if terminal == "oracle":
            return self.A.dim ** (d + 2)
        return chain_space_dim(self.A.c, self.A.dim, d + 1)

    def _feasible(self, terminal, d):
        return d >= 1 and self._needed(terminal, d) <= self.req.budget

    def _plan_terminal(self, variant, d, j):
        """(terminal name, None) or (None, unavailable reason)."""
        for name in self.terminals:
            if name == "formula":
                if j is not None and \
                        _formula_dim(self.A, variant, d, j) is not None:
                    return name, None
            elif name == "delta":
                if j is not None and self._delta_applicable(variant, d, j):
                    return name, None
            elif name == "zeromaps":
                if variant == "homology" and d == 0:
                    return name, None
            elif d >= 1:  # "resolution" or "oracle"
                if self._feasible(name, d):
                    return name, None
                return None, (f"degree {d} needs {self._needed(name, d)} "
                              f"basis elements, budget is {self.req.budget}")
        return None, f"no route under policy {self.req.method}"

    # ---- shared heavy objects ---------------------------------------

    def _note_need(self, terminal, variant, d, j):
        if terminal == "delta":
            self._delta_top = max(self._delta_top, d + 1)
        elif terminal in ("resolution", "oracle"):
            key = (terminal, variant, j)
            self._window_tops[key] = max(self._window_tops.get(key, 0), d)

    def _open_window(self, terminal, variant, j, top):
        """A reader d -> dimension for the degrees up to top of one window."""
        B = nakayama_module(self.A, j)
        budget = self.req.budget
        if terminal == "resolution":
            return ResolutionWindow(B, top, variant, budget).dimension
        if variant == "homology":
            return homology_window(B, top, budget).homology_dim
        return CohomologyWindow(B, top, budget).cohomology_dim

    def _build_shared(self):
        if self._delta_top:
            self._delta = DeltaComplex(self.A, self._delta_top)
        for key, top in sorted(self._window_tops.items()):
            self._windows[key] = self._open_window(*key, top)

    # ---- evaluation --------------------------------------------------

    def _evaluate(self, terminal, variant, d, j):
        if terminal == "formula":
            return _formula_dim(self.A, variant, d, j)
        if terminal == "delta":
            if self._delta is None or self._delta_top < d + 1:
                self._delta = DeltaComplex(self.A, d + 1)
                self._delta_top = d + 1
            return self._delta.homology_dim(d)
        if terminal == "zeromaps":
            return tate_hh0(self.A, self.A.nakayama(j))
        return self._windows[(terminal, variant, j)](d)

    def _recognize_dual(self, k):
        if k not in self._recognized:
            dual = dual_bimodule(nakayama_module(self.A, k))
            self._recognized[k] = \
                recognize_nakayama_power(self.A, dual, expected_first=1 - k)
        return self._recognized[k]

    def run(self):
        plans = {}
        dual_pending = []
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
            if terminal:
                self._note_need(terminal, variant, d, j)
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
        self._build_shared()

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
    """Compute every applicable terminal per degree and diff the answers.

    Returns {"degrees": [...], "all_agree": bool}; each degree reports the
    value under every terminal that applies to its (reduced) source.  On
    disagreement the involved matrices are dumped under dump_dir (when
    given) and the paths are listed.
    """
    session = _Session(req)
    report = []
    for n in req.degrees:
        variant, d, j, hop = session._source(n)
        if hop == "dual":
            j = session._recognize_dual(req.nakayama_power)
            if j is None:
                report.append({"degree": n, "values": {},
                               "agree": True, "note": "dual not recognised"})
                continue
        values = {}
        prefix = "" if hop is None else "duality:"
        if _formula_dim(session.A, variant, d, j) is not None:
            values[prefix + "formula"] = _formula_dim(session.A, variant, d, j)
        if hop is not None:
            direct = _formula_dim(session.A, req.variant, n,
                                  req.nakayama_power)
            if direct is not None:
                values["formula"] = direct
        if session._delta_applicable(variant, d, j) and \
                _is_generic_codim2(session.A):
            complex_ = DeltaComplex(session.A, d + 1)
            values[prefix + "delta"] = complex_.homology_dim(d)
        if variant == "homology" and d == 0:
            values[prefix + "zeromaps"] = tate_hh0(session.A,
                                                   session.A.nakayama(j))
        for name in ("resolution", "oracle"):
            if session._feasible(name, d):
                values[prefix + name] = \
                    session._open_window(name, variant, j, d)(d)
        distinct = {v for v in values.values()}
        row = {"degree": n, "values": values, "agree": len(distinct) <= 1}
        if not row["agree"] and dump_dir is not None:
            row["dumps"] = _dump_disagreement(session, variant, d, j,
                                              n, dump_dir)
        report.append(row)
    return {"degrees": report, "all_agree": all(r["agree"] for r in report)}


def _dump_disagreement(session, variant, d, j, degree, dump_dir):
    import os

    os.makedirs(dump_dir, exist_ok=True)
    paths = []
    B = nakayama_module(session.A, j)
    budget = session.req.budget
    windows = {}
    if session._feasible("resolution", d):
        windows["resolution"] = ResolutionWindow(B, d, variant, budget).window
    if session._feasible("oracle", d):
        windows["oracle"] = homology_window(B, d, budget) \
            if variant == "homology" else CohomologyWindow(B, d, budget).window
    for name, win in windows.items():
        for deg, mat in sorted(win.maps.items()):
            path = os.path.join(dump_dir,
                                f"degree{degree}_{name}_map{deg}.txt")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(mat.dump_coordinates())
            paths.append(path)
    return paths
