"""Spans around the public entry points of each tatehh layer.

``Tracer.install()`` replaces each wrapped function or method, in every
tatehh module that binds it, by a wrapper that records a span: name, start,
end, parent span, request id and a few attributes (matrix shape and nnz).
``uninstall()`` puts the originals back.  Spans stay in memory; ``write()``
saves them when the run ends and ``layer_metrics()`` turns them into
per-layer figures.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly (one thread), so the self times of all spans
of a request add up to the duration of its root span, ``cli_reports.main``.

Work the tracer does for its own statistics (counting nonzero rows and
columns for the pre-pass ratio) runs inside a ``bench.bookkeeping`` child
span, so it is not charged to the layer it measures.

``exact_field`` and ``closed_forms`` are not wrapped: a span per scalar
operation would distort the run, and closed forms cost microseconds.
``KScalarTable.k_scalar`` is counted, not spanned, for the same reason.
"""

import contextlib
import functools
import json
import sys
import time

perf_counter = time.perf_counter

BOOKKEEPING = "bench.bookkeeping"

CELL_METHODS = ("formula", "delta", "zeromaps", "oracle", "duality",
                "unavailable")

# span fields
NAME, START, END, PARENT, REQUEST, ATTRS = range(6)


def _matrix(m):
    return {"rows": m.nrows, "cols": m.ncols, "nnz": m.nnz}


def _rank_attrs(tracer, args, result, computed):
    m = args[0]
    attrs = _matrix(m)
    attrs["field"] = "qq" if m.field.characteristic == 0 else "gfp"
    attrs["computed"] = computed
    if computed and attrs["field"] == "qq" and m.nnz:
        with tracer.span(BOOKKEEPING):
            entries = m.entries()
            bound = min(len({i for i, _, _ in entries}),
                        len({j for _, j, _ in entries}))
        attrs["certifiable"] = result == bound
    return attrs


def _rank_before(args):
    # a cached rank costs nothing, so only computed ranks count as work; a
    # matrix without the cache slot counts every call
    return getattr(args[0], "_rank", None) is None


# span name -> (module, attribute path, before(args), after(tracer, args,
# result, before value) -> attrs)
SPANNED = {
    "cli_reports.main": ("tatehh.cli_reports", "main", None, None),
    "cli_reports.parse_spec":
        ("tatehh.cli_reports", "parse_spec", None, None),
    "tate_engine.tate_dims": ("tatehh.tate_engine", "tate_dims", None, None),
    "tate_engine.recognize_nakayama_power":
        ("tatehh.tate_engine", "recognize_nakayama_power", None,
         lambda t, a, r, b: {"recognized": r is not None}),
    "tate_engine.bimodules_isomorphic":
        ("tatehh.tate_engine", "bimodules_isomorphic", None, None),
    "hochschild_bar.boundary_matrix":
        ("tatehh.hochschild_bar", "boundary_matrix", None,
         lambda t, a, r, b: _matrix(r)),
    "hochschild_bar.coboundary_matrix":
        ("tatehh.hochschild_bar", "coboundary_matrix", None,
         lambda t, a, r, b: _matrix(r)),
    "sparse_linalg.rank":
        ("tatehh.sparse_linalg", "SparseMatrix.rank", _rank_before,
         _rank_attrs),
    "sparse_linalg.kernel_basis":
        ("tatehh.sparse_linalg", "SparseMatrix.kernel_basis", None,
         lambda t, a, r, b: _matrix(a[0])),
    "sparse_linalg.ChainComplexWindow":
        ("tatehh.sparse_linalg", "ChainComplexWindow.__init__", None, None),
    "codim2_complex.DeltaComplex":
        ("tatehh.codim2_complex", "DeltaComplex.__init__", None,
         lambda t, a, r, b: {"max_degree": a[0].max_degree}),
    "qci_algebra.twisted_bimodule":
        ("tatehh.qci_algebra", "twisted_bimodule", None, None),
    "qci_algebra.dual_bimodule":
        ("tatehh.qci_algebra", "dual_bimodule", None, None),
    "qci_algebra.structure_constants":
        ("tatehh.qci_algebra", "QciAlgebra.structure_constants", None, None),
    "near_zero.tate_hh0": ("tatehh.near_zero", "tate_hh0", None, None),
}

COUNTED = {
    "codim2_complex.k_scalar":
        ("tatehh.codim2_complex", "KScalarTable.k_scalar"),
}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for name in COUNTED}
        self.request = None
        self._stack = []
        self._patched = []

    # ---- recording -----------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.request,
                           None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx):
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _spanned(self, name, fn, before, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    self.spans[idx][ATTRS] = after(self, args, result, state)
            finally:
                self._close(idx)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ---- installation --------------------------------------------------

    def install(self):
        """Wrap every entry point, wherever a tatehh module binds it."""
        import tatehh  # noqa: F401  (loads every submodule)

        for name, (module, path, before, after) in SPANNED.items():
            self._wrap(module, path,
                       lambda fn, n=name, b=before, a=after:
                       self._spanned(n, fn, b, a))
        for name, (module, path) in COUNTED.items():
            self._wrap(module, path, lambda fn, n=name: self._counted(n, fn))

    def _wrap(self, module_name, path, make):
        module = sys.modules[module_name]
        owner, attr = module, path
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
        original = owner.__dict__[attr]
        wrapped = make(original)
        targets = [owner]
        if owner is module:
            # modules that imported the function by name hold it too
            targets += [mod for name, mod in sorted(sys.modules.items())
                        if name.startswith("tatehh") and mod is not module
                        and mod.__dict__.get(attr) is original]
        for target in targets:
            setattr(target, attr, wrapped)
            self._patched.append((target, attr, original))

    def uninstall(self):
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- output --------------------------------------------------------

    def write(self, path):
        """Save the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START],
                    "end": s[END], "parent": s[PARENT],
                    "request": s[REQUEST], "attrs": s[ATTRS]}) + "\n")

    def root_seconds(self):
        """Summed duration of the root spans, one per traced request."""
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] is None)

    def self_times(self):
        """Self time of every span, in span order."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self, requests, cells):
        """Per-layer figures.

        Times, counts and nnz are means per traced request (``requests``
        of them); maxima and ratios are over the whole run, and each ratio's
        base is reported beside it.  ``cells`` counts printed cells by
        method.
        """
        per = 1.0 / requests
        calls, self_s, attrs = {}, {}, {}
        for s, own in zip(self.spans, self.self_times()):
            name = s[NAME]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if s[ATTRS] is not None:
                attrs.setdefault(name, []).append(dict(s[ATTRS], self_s=own))

        def total(table, *names):
            return sum(table.get(n, 0) for n in names)

        def largest(items, key):
            return max((a[key] for a in items), default=0)

        bar_names = ("hochschild_bar.boundary_matrix",
                     "hochschild_bar.coboundary_matrix")
        bar = attrs.get(bar_names[0], []) + attrs.get(bar_names[1], [])
        ranks = [a for a in attrs.get("sparse_linalg.rank", [])
                 if a["computed"]]
        qq = [a for a in ranks if "certifiable" in a]
        kernels = attrs.get("sparse_linalg.kernel_basis", [])
        deltas = attrs.get("codim2_complex.DeltaComplex", [])
        iso_tests = calls.get("tate_engine.bimodules_isomorphic", 0)
        hits = sum(1 for a in attrs.get("tate_engine.recognize_nakayama_power",
                                        []) if a["recognized"])
        m = {
            "hochschild_bar.assemble_s": total(self_s, *bar_names) * per,
            "hochschild_bar.calls": len(bar) * per,
            "hochschild_bar.nnz": sum(a["nnz"] for a in bar) * per,
            "hochschild_bar.max_rows": largest(bar, "rows"),
            "hochschild_bar.max_cols": largest(bar, "cols"),
            "hochschild_bar.max_nnz": largest(bar, "nnz"),
            "sparse_linalg.rank_s": total(self_s, "sparse_linalg.rank") * per,
            "sparse_linalg.rank_qq_s": sum(
                a["self_s"] for a in ranks if a["field"] == "qq") * per,
            "sparse_linalg.rank_gfp_s": sum(
                a["self_s"] for a in ranks if a["field"] == "gfp") * per,
            "sparse_linalg.rank_calls": len(ranks) * per,
            "sparse_linalg.rank_nnz": sum(a["nnz"] for a in ranks) * per,
            "sparse_linalg.rank_max_rows": largest(ranks, "rows"),
            "sparse_linalg.rank_max_cols": largest(ranks, "cols"),
            "sparse_linalg.rank_max_nnz": largest(ranks, "nnz"),
            "sparse_linalg.prepass_certified_ratio": (
                sum(1 for a in qq if a["certifiable"]) / len(qq)
                if qq else 0.0),
            "sparse_linalg.prepass_rank_calls": len(qq) * per,
            "sparse_linalg.window_check_s":
                total(self_s, "sparse_linalg.ChainComplexWindow") * per,
            "sparse_linalg.window_checks":
                total(calls, "sparse_linalg.ChainComplexWindow") * per,
            "sparse_linalg.kernel_basis_s":
                total(self_s, "sparse_linalg.kernel_basis") * per,
            "sparse_linalg.kernel_basis_calls": len(kernels) * per,
            "sparse_linalg.kernel_system_nnz":
                sum(a["nnz"] for a in kernels) * per,
            "sparse_linalg.kernel_max_rows": largest(kernels, "rows"),
            "sparse_linalg.kernel_max_cols": largest(kernels, "cols"),
            "codim2_complex.assemble_s":
                total(self_s, "codim2_complex.DeltaComplex") * per,
            "codim2_complex.complexes": len(deltas) * per,
            "codim2_complex.k_scalar_calls":
                self.counts["codim2_complex.k_scalar"] * per,
            "codim2_complex.max_degree": largest(deltas, "max_degree"),
            "tate_engine.recognize_s": total(
                self_s, "tate_engine.recognize_nakayama_power",
                "tate_engine.bimodules_isomorphic") * per,
            "tate_engine.isomorphism_tests": iso_tests * per,
            "tate_engine.recognitions": hits * per,
            "tate_engine.recognize_hit_ratio":
                hits / iso_tests if iso_tests else 0.0,
            "tate_engine.route_self_s":
                total(self_s, "tate_engine.tate_dims") * per,
        }
        for method in CELL_METHODS:
            m[f"tate_engine.cells.{method}"] = cells.get(method, 0) * per
        m.update({
            "qci_algebra.bimodule_s": total(
                self_s, "qci_algebra.twisted_bimodule",
                "qci_algebra.dual_bimodule") * per,
            "qci_algebra.bimodule_calls": total(
                calls, "qci_algebra.twisted_bimodule",
                "qci_algebra.dual_bimodule") * per,
            "qci_algebra.structure_constants_s":
                total(self_s, "qci_algebra.structure_constants") * per,
            "near_zero.tate_hh0_s": total(self_s, "near_zero.tate_hh0") * per,
            "near_zero.tate_hh0_calls":
                total(calls, "near_zero.tate_hh0") * per,
            "cli_reports.parse_spec_s":
                total(self_s, "cli_reports.parse_spec") * per,
            "cli_reports.self_s": total(self_s, "cli_reports.main") * per,
            "trace.bookkeeping_s": total(self_s, BOOKKEEPING) * per,
            "trace.spans": len(self.spans) * per,
        })
        return m
