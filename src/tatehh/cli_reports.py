"""Command-line front end: dimension tables, the raw oracle, verification.

Subcommands:

  dims       route a degree window through the engine and print the table;
  oracle     raw bar-complex dimensions for degrees 0..max (classical
             Hochschild values, no stable corrections);
  exactness  run the near-zero exactness check for one algebra;
  verify     run named theorem suites (default all) and report each checked
             equality with both sides.

Algebra spec files are JSON: {"field": {"type": "rational"} or
{"type": "prime", "p": N}, "exponents": [a1, ...], "q": c x c matrix of
scalar strings, optional "c"}.  Scalars are strings end to end; floats are
rejected.  Exit codes: 0 success, 1 assertion mismatch, 2 usage or
validation error (a budget below 1 included), 3 resource budget exhausted
(an algebra with more basis elements than the budget included).  A dims
table containing budget-capped entries exits 3 (the table is still
printed).
Output bytes are deterministic for a fixed configuration: suite families
are fixed lists, the one randomized family is seeded, and all orderings
are explicit.
"""

import argparse
import functools
import json
import re
import sys
from math import prod
from random import Random

from .closed_forms import ci_dim, codim2_cohomology_dim, exterior_dim
from .codim2_complex import DeltaComplex, expected_kernel_dim
from .exact_field import QQ, PrimeField
from .hochschild_bar import BarWindow, BudgetExceeded, DEFAULT_BUDGET
from .near_zero import check_exactness_claim, tate_hh0
from .qci_algebra import QciAlgebra, codim2_algebra, dual_bimodule, \
    exterior_algebra, truncated_polynomial_algebra
from .tate_engine import CSV_HEADER, TableEntry, TateRequest, TateWindow, \
    coefficient_name, entries_csv, entries_json_dict, nakayama_module, \
    recognize_nakayama_power, tate_dims

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_METHOD_POLICIES = {"auto": "auto", "bar": "bar_only"}

SUITES = ("ci", "exterior", "codim2", "duality", "exactness")


# ---------------------------------------------------------------- spec files

def parse_spec(text, budget=DEFAULT_BUDGET):
    """Parse a JSON algebra specification into a validated algebra.

    Every route's degree-0 space has dim A = prod(exponents) coordinates, so
    an algebra above the budget is refused before it is built.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("spec must be a JSON object")
    field_doc = doc.get("field")
    if not isinstance(field_doc, dict) or "type" not in field_doc:
        raise ValueError('spec needs "field": {"type": ...}')
    if field_doc["type"] == "rational":
        field = QQ
    elif field_doc["type"] == "prime":
        if "p" not in field_doc:
            raise ValueError('prime field spec needs "p"')
        field = PrimeField(field_doc["p"])
    else:
        raise ValueError(f'unknown field type {field_doc["type"]!r}')
    exponents = doc.get("exponents")
    if not isinstance(exponents, list) or \
            not all(isinstance(a, int) and a >= 2 for a in exponents):
        raise ValueError('"exponents" must be a list of integers >= 2')
    if prod(exponents) > budget:
        raise BudgetExceeded(0, prod(exponents), budget)
    c = doc.get("c", len(exponents))
    if not isinstance(c, int) or isinstance(c, bool):
        raise ValueError(f'"c" must be an integer, got {c!r}')
    if c != len(exponents):
        raise ValueError(f'"c" is {c} but {len(exponents)} exponents given')
    q_doc = doc.get("q")
    if q_doc is None and c == 1:
        q_doc = [["1"]]
    if not isinstance(q_doc, list) or len(q_doc) != c or \
            any(not isinstance(row, list) or len(row) != c for row in q_doc):
        raise ValueError(f'"q" must be a {c} x {c} matrix')
    q = []
    for i, row in enumerate(q_doc):
        parsed = []
        for j, scalar in enumerate(row):
            if not isinstance(scalar, str):
                raise ValueError(f"q[{i}][{j}]: scalars must be strings, "
                                 f"got {scalar!r}")
            try:
                parsed.append(field.parse(scalar))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"q[{i}][{j}]: {exc}") from None
        q.append(parsed)
    return QciAlgebra(field, exponents, q)


def _load_spec(args):
    with open(args.spec, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read(), args.budget)


def _parse_coeff(text):
    if text == "regular":
        return 0
    if text.startswith("nu:") and re.fullmatch(r"[+-]?[0-9]+", text[3:]):
        return int(text[3:])
    raise ValueError(f"coefficient must be 'regular' or 'nu:K', got {text!r}")


# ------------------------------------------------------------ serialization

def table_from_csv(text):
    """Entries of a dims CSV document (inverse of DimensionTable.to_csv)."""
    lines = text.strip("\n").split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    entries = []
    for line in lines[1:]:
        degree, dim, method, source = line.split(",", 3)
        entries.append(TableEntry(int(degree),
                                  None if dim == "" else int(dim),
                                  method, source))
    return entries


def table_from_json(text):
    doc = json.loads(text)
    return [TableEntry(e["degree"], e["dimension"], e["method"], e["source"])
            for e in doc["entries"]]


def _emit(payload, out_path):
    if out_path is None:
        sys.stdout.write(payload)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)


# ------------------------------------------------------------- subcommands

def _cmd_dims(args):
    algebra = _load_spec(args)
    req = TateRequest(algebra, args.min, args.max, args.variant,
                      nakayama_power=_parse_coeff(args.coeff),
                      method=_METHOD_POLICIES[args.method],
                      budget=args.budget)
    table = tate_dims(req)
    if args.format == "csv":
        payload = table.to_csv()
    else:
        payload = json.dumps(table.to_json_dict(), indent=2) + "\n"
    _emit(payload, args.out)
    return EXIT_OK if table.complete() else EXIT_BUDGET


def _cmd_oracle(args):
    algebra = _load_spec(args)
    k = _parse_coeff(args.coeff)
    dims = BarWindow(nakayama_module(algebra, k), args.max, args.variant,
                     args.budget).dimensions()
    entries = [TableEntry(n, dims[n], "oracle", coefficient_name(k))
               for n in range(args.max + 1)]
    if args.format == "csv":
        payload = entries_csv(entries)
    else:
        header = {"algebra": algebra.describe(), "variant": args.variant,
                  "coefficient": coefficient_name(k)}
        payload = json.dumps(entries_json_dict(header, entries),
                             indent=2) + "\n"
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_exactness(args):
    algebra = _load_spec(args)
    ok = check_exactness_claim(algebra)
    report = [{"check": "near-zero sequence exact and shifted copies "
                        f"independent (dim {algebra.dim})",
               "lhs": ok, "rhs": True, "pass": ok}]
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_verify(args):
    suites = args.suite or list(SUITES)
    report = []
    for name in suites:
        report.extend(run_verify(name, args.max, args.budget))
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    if any(not row["pass"] and "error" not in row for row in report):
        return EXIT_MISMATCH
    if any("error" in row for row in report):
        return EXIT_BUDGET
    return EXIT_OK


# ------------------------------------------------------------ verify suites

def _check(name, lhs, rhs):
    return {"check": name, "lhs": lhs, "rhs": rhs, "pass": lhs == rhs}


def _guarded(checks, label, fn):
    """Append fn()'s checks; a budget error becomes one failed row."""
    try:
        checks.extend(fn())
    except BudgetExceeded as exc:
        checks.append({"check": label, "error": str(exc), "pass": False})


def _homology_table(A, max_degree, budget):
    """The homology table of A on [-max_degree - 1, max_degree]."""
    return tate_dims(TateRequest(A, -max_degree - 1, max_degree, "homology",
                                 budget=budget))


def _table_vs_closed_form(label, table, closed):
    """A homology table against a published count closed(m), m >= 0, which
    gives degrees m and -m - 1.  The unit's bar window, built first, needs
    more room than the table, so the budget caps no entry here."""
    req = table.request
    return _check(
        f"{label} homology table on [{req.n_min}, {req.n_max}] vs formula",
        table.dims(), [closed(n if n >= 0 else -n - 1) for n in req.degrees])


def _closed_form_suite(family, max_degree, budget, palindrome=False):
    """One unit per (name, algebra, closed) of family: degree 0 from the
    structural window (tate_hh0) and degrees 1..max_degree from the bar
    oracle against the published count closed(n), then the homology table
    against it; with palindrome, also H_n = H_{-n-1} on the table."""
    checks = []
    for name, A, closed in family:

        def unit(name=name, A=A, closed=closed):
            rows = [_check(f"{name} degree 0 zeromaps vs formula",
                           tate_hh0(A, A.identity_twist()), closed(0))]
            dims = BarWindow(nakayama_module(A, 0), max_degree, "homology",
                             budget).dimensions()
            rows.extend(_check(f"{name} degree {n} oracle vs formula",
                               dims[n], closed(n))
                        for n in range(1, max_degree + 1))
            table = _homology_table(A, max_degree, budget)
            rows.append(_table_vs_closed_form(name, table, closed))
            if palindrome:
                rows.append(_check(
                    f"{name} homology palindrome on "
                    f"[{-max_degree - 1}, {max_degree}]",
                    [table.dimension(n) for n in range(max_degree + 1)],
                    [table.dimension(-n - 1) for n in range(max_degree + 1)]))
            return rows

        _guarded(checks, name, unit)
    return checks


def _suite_ci(max_degree, budget):
    return _closed_form_suite(
        [(f"ci {label}", truncated_polynomial_algebra(field, (2, 2)),
          functools.partial(ci_dim, 2, 2, field.characteristic))
         for field, label in ((QQ, "QQ"), (PrimeField(2), "GF(2)"))],
        max_degree, budget)


def _suite_exterior(max_degree, budget):
    fields = ((PrimeField(2), "GF(2)"), (PrimeField(3), "GF(3)"), (QQ, "QQ"))
    return _closed_form_suite(
        [(f"exterior c={c} {label}", exterior_algebra(field, c),
          functools.partial(exterior_dim, c, field.characteristic))
         for c in (1, 2, 3) for field, label in fields],
        max_degree, budget, palindrome=True)


def _suite_codim2(max_degree, budget):
    from fractions import Fraction

    checks = []
    qs = (Fraction(2), Fraction(3), Fraction(1, 2))
    for (a, b) in ((2, 2), (3, 2)):

        def unit(a=a, b=b):
            rows = []
            tables = {}
            for q in qs:
                A = codim2_algebra(QQ, a, b, q)
                table = tate_dims(TateRequest(A, -max_degree, max_degree,
                                              "cohomology", budget=budget))
                tables[q] = table.dims()
            for q in qs[1:]:
                rows.append(_check(
                    f"codim2 ({a},{b}) cohomology table q={q} matches q=2",
                    tables[q], tables[qs[0]]))
            rows.append(_check(
                f"codim2 ({a},{b}) cohomology table q=2 vs formula",
                tables[qs[0]],
                [codim2_cohomology_dim(n)
                 for n in range(-max_degree, max_degree + 1)]))
            A = codim2_algebra(QQ, a, b, Fraction(2))
            hom = tate_dims(TateRequest(A, -max_degree, max_degree,
                                        "homology", budget=budget))
            rows.append(_check(
                f"codim2 ({a},{b}) homology table q=2 constant",
                hom.dims(), [a + b - 2] * (2 * max_degree + 1)))
            bar = BarWindow(nakayama_module(A, 0), min(max_degree, 3),
                            "homology", budget).dimensions()
            rows.append(_check(
                f"codim2 ({a},{b}) homology degrees 1..{min(max_degree, 3)} "
                "oracle vs formula",
                bar[1:], [a + b - 2] * min(max_degree, 3)))
            complex_ = DeltaComplex(A, max_degree + 1)
            delta = [complex_.homology_dim(n)
                     for n in range(1, max_degree + 1)]
            rows.append(_check(
                f"codim2 ({a},{b}) twisted homology vanishes to {max_degree}",
                delta, [0] * max_degree))
            # a request window is never empty, so --max 0 reads degree 1
            # and compares no entry
            nu = tate_dims(TateRequest(A, 1, max(max_degree, 1), "homology",
                                       nakayama_power=-1, budget=budget))
            for e in nu.entries:
                if e.dimension is None:  # budget-capped, reported as _guarded
                    return [{"check": f"codim2 ({a},{b})",
                             "error": e.source, "pass": False}]
            rows.append(_check(
                f"codim2 ({a},{b}) nu^-1 homology degrees 1..{max_degree} "
                "resolution vs delta complex",
                nu.dims()[:max_degree], delta))
            rows.append(_check(
                f"codim2 ({a},{b}) kernel dimensions to {max_degree + 1}",
                [complex_.kernel_dim(n) for n in range(1, max_degree + 2)],
                [expected_kernel_dim(A, n) for n in range(1, max_degree + 2)]))
            return rows

        _guarded(checks, f"codim2 ({a},{b})", unit)
    return checks


def _duality_family():
    from fractions import Fraction

    rng = Random(7)
    family = [
        ("trunc QQ (3,)", truncated_polynomial_algebra(QQ, (3,))),
        ("exterior GF(3) c=2", exterior_algebra(PrimeField(3), 2)),
        ("codim2 QQ q=2 (2,2)", codim2_algebra(QQ, 2, 2, Fraction(2))),
        ("codim2 QQ q=1/2 (2,3)", codim2_algebra(QQ, 2, 3, Fraction(1, 2))),
    ]
    rational_qs = [Fraction(2), Fraction(3), Fraction(5, 3), Fraction(1, 2)]
    for i in range(4):
        if rng.random() < 0.5:
            q = rng.choice(rational_qs)
            family.append((f"random {i} codim2 QQ q={q}",
                           codim2_algebra(QQ, 2, rng.choice((2, 3)), q)))
        else:
            p = rng.choice((3, 5))
            field = PrimeField(p)
            q = field.parse(rng.choice(("1", "-1")))
            family.append((f"random {i} codim2 GF({p}) q={field.to_str(q)}",
                           codim2_algebra(field, 2, rng.choice((2, 3)), q)))
    return [(label, A) for label, A in family if A.dim <= 6]


def _suite_duality(max_degree, budget):
    checks = []
    upto = min(max_degree, 3)
    for label, A in _duality_family():
        for k in (0, 1, -1):

            def unit(A=A, k=k, label=label):
                B = nakayama_module(A, k)
                co = BarWindow(B, upto, "cohomology", budget).dimensions()
                ho = BarWindow(dual_bimodule(B), upto, "homology",
                               budget).dimensions()
                # degree-0 cohomology of nu^k is H_{-1}(C(k - 1)); the dual
                # of nu^k, certified as nu^(1 - k) or failing the row, gives
                # degree-0 homology by the structural window (tate_hh0)
                spliced = TateWindow(A, k - 1, -1, -1, budget,
                                     "resolution").homology_dim(-1)
                j = recognize_nakayama_power(A, dual_bimodule(B), 1 - k)
                name = f"duality {label} coeff {coefficient_name(k)}"
                return [
                    _check(f"{name} cohomology vs dual homology to {upto}",
                           co, ho),
                    _check(f"{name} degree 0 cohomology spliced complex vs "
                           "recognised dual", spliced,
                           None if j is None else tate_hh0(A, A.nakayama(j)))]

            _guarded(checks, f"duality {label} {coefficient_name(k)}", unit)
    return checks


def _exactness_family():
    from fractions import Fraction

    return [
        ("trunc QQ (2,)", truncated_polynomial_algebra(QQ, (2,))),
        ("trunc GF(3) (4,)", truncated_polynomial_algebra(PrimeField(3), (4,))),
        ("exterior GF(2) c=3", exterior_algebra(PrimeField(2), 3)),
        ("exterior QQ c=2", exterior_algebra(QQ, 2)),
        ("codim2 QQ q=2 (2,2)", codim2_algebra(QQ, 2, 2, Fraction(2))),
        ("codim2 QQ q=1/2 (3,2)", codim2_algebra(QQ, 3, 2, Fraction(1, 2))),
        ("codim2 GF(5) q=2 (2,4)", codim2_algebra(PrimeField(5), 2, 4, 2)),
        ("trunc GF(2) (2,2,2,2)",
         truncated_polynomial_algebra(PrimeField(2), (2, 2, 2, 2))),
    ]


def _suite_exactness(max_degree, budget):
    del max_degree, budget  # the check has no degree or budget parameter
    return [_check(f"exactness {label} (dim {A.dim})",
                   check_exactness_claim(A), True)
            for label, A in _exactness_family()]


_SUITE_RUNNERS = {
    "ci": _suite_ci,
    "exterior": _suite_exterior,
    "codim2": _suite_codim2,
    "duality": _suite_duality,
    "exactness": _suite_exactness,
}


def run_verify(suite, max_degree=3, budget=DEFAULT_BUDGET):
    """All checks of one named suite; resource errors become failed rows."""
    if suite not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite {suite!r}")
    if max_degree < 0:
        raise ValueError(f"verify depth must be non-negative, got {max_degree}")
    try:
        return _SUITE_RUNNERS[suite](max_degree, budget)
    except BudgetExceeded as exc:
        return [{"check": f"{suite} suite", "error": str(exc), "pass": False}]


# ------------------------------------------------------------------- parser

def _add_common(sub, spec=True):
    if spec:
        sub.add_argument("--spec", required=True, help="algebra spec JSON path")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="chain-space element budget")


@functools.cache
def _build_parser():
    """The one parser every ``main`` call reads, built on first use: each
    build leaves reference cycles (argparse formatters) for the collector."""
    parser = argparse.ArgumentParser(
        prog="tatehh",
        description="Stable Hochschild dimension tables for quantum "
                    "complete intersections")
    subs = parser.add_subparsers(dest="command", required=True)

    dims = subs.add_parser("dims", help="dimension table over a degree window")
    _add_common(dims)
    dims.add_argument("--min", type=int, required=True)
    dims.add_argument("--max", type=int, required=True)
    dims.add_argument("--variant", choices=("homology", "cohomology"),
                      default="homology")
    dims.add_argument("--coeff", default="regular",
                      help="'regular' or 'nu:K' for the K-th Nakayama twist")
    dims.add_argument("--method", choices=tuple(_METHOD_POLICIES),
                      default="auto")
    dims.add_argument("--format", choices=("csv", "json"), default="csv")
    dims.set_defaults(func=_cmd_dims)

    oracle = subs.add_parser("oracle",
                             help="raw bar-complex dimensions, degrees 0..max")
    _add_common(oracle)
    oracle.add_argument("--max", type=int, required=True)
    oracle.add_argument("--variant", choices=("homology", "cohomology"),
                        default="homology")
    oracle.add_argument("--coeff", default="regular")
    oracle.add_argument("--format", choices=("csv", "json"), default="csv")
    oracle.set_defaults(func=_cmd_oracle)

    exactness = subs.add_parser("exactness",
                                help="near-zero exactness check")
    _add_common(exactness)
    exactness.set_defaults(func=_cmd_exactness)

    verify = subs.add_parser("verify", help="run theorem verification suites")
    _add_common(verify, spec=False)
    verify.add_argument("--suite", action="append", choices=SUITES,
                        help="suite to run (repeatable; default all)")
    verify.add_argument("--max", type=int, default=3,
                        help="degree depth for the suites")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.budget < 1:
        print("error: budget must be positive", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
