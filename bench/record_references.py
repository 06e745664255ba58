"""Record the reference tables of the benchmark catalogue.

    python3 bench/record_references.py --commit <hash> [--out FILE]

Builds the catalogue from workloads.CATALOGUE_SEED, runs every entry through
``tatehh dims``, and checks each printed cell against a second route before
storing it:

* a positive-degree bar-oracle value (direct, or the source of a duality
  hop) against the bar complex of the linear dual: dim HH_n(A, B) equals
  dim HH^n(A, B*), and dim HH^n(A, B) equals dim HH_n(A, B*);
* a degree-0 homology value against the window built from the structural
  maps (right actions of 1 (x) x_w - x_w (x) 1 and of s), not the literal
  coefficient formulas the program uses;
* every duality hop against the reduction rules: degree n < 0 of homology
  with twist k comes from degree -n-1 with twist -k, of cohomology from
  degree -n-1 homology with twist k-1, and degree-0 cohomology from
  degree-0 homology with twist 1-k (the dual of the k-th twist is the
  (1-k)-th);
* the table of the first entry of each stratum under a relabelling of the
  generators, which must give the same dimensions.

Any disagreement stops the recording.  The output is references.json beside
this file, with the catalogue seed, commit, Python version and processor
count it was recorded with.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tatehh import BarWindowRequest, dual_bimodule, hh_cohomology_dims, \
    hh_homology_dims, twisted_bimodule  # noqa: E402
from tatehh.cli_reports import main as tatehh_main, parse_spec, \
    table_from_csv  # noqa: E402
from tatehh.near_zero import d0_matrix_via_s, d1_matrix_via_f  # noqa: E402
from tatehh.sparse_linalg import ChainComplexWindow  # noqa: E402


def run_dims(spec, argv, tmpdir):
    path = os.path.join(tmpdir, "spec.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tatehh_main(["dims", "--spec", path] + argv)
    if code != 0:
        raise RuntimeError(f"tatehh dims exited {code}")
    return table_from_csv(out.getvalue())


def _coeff_power(name):
    return 0 if name == "regular" else int(name[len("nu^"):])


def _source(entry, cell):
    """(variant, degree, twist) the cell's number comes from, checked
    against the reduction rules."""
    k, variant, n = entry["k"], entry["variant"], cell.degree
    if cell.method != "duality":
        if cell.method not in ("oracle", "zeromaps"):
            raise RuntimeError(f"degree {n}: unexpected method {cell.method}")
        return variant, n, k
    fields = dict(part.split("=") for part in cell.source.split("; "))
    got = ("homology", int(fields["degree"]), _coeff_power(fields["coeff"]))
    if n <= -1:
        expect = ("homology", -n - 1, -k if variant == "homology" else k - 1)
    else:
        expect = ("homology", 0, 1 - k)
    if got != expect:
        raise RuntimeError(f"degree {n}: hop to {got}, rules give {expect}")
    return got


def structural_hh0(A, j):
    psi = A.nakayama(j)
    window = ChainComplexWindow(
        [1, 0, -1], {1: A.dim * A.c, 0: A.dim, -1: A.dim},
        {1: d1_matrix_via_f(A, psi), 0: d0_matrix_via_s(A, psi)})
    return window.homology_dim(0)


def dual_bar_dims(A, variant, j, top):
    """Degrees 0..top of the other variant over the dual of the j-th twist."""
    B = twisted_bimodule(A, A.nakayama(j), A.identity_twist())
    dual = dual_bimodule(B)
    if variant == "homology":
        return hh_cohomology_dims(BarWindowRequest(dual, top, "cohomology"))
    return hh_homology_dims(BarWindowRequest(dual, top, "homology"))


def second_route(entry, cells):
    """Each cell's dimension by the second route."""
    A = parse_spec(json.dumps(entry["spec"]))
    sources = [_source(entry, cell) for cell in cells]
    tops = {}
    for variant, d, j in sources:
        if d >= 1:
            tops[(variant, j)] = max(tops.get((variant, j), 0), d)
    bars = {key: dual_bar_dims(A, key[0], key[1], top)
            for key, top in tops.items()}
    values = []
    for variant, d, j in sources:
        if d >= 1:
            values.append(bars[(variant, j)][d])
        elif variant == "homology":
            values.append(structural_hh0(A, j))
        else:
            raise RuntimeError("degree-0 cohomology without a duality hop")
    return values


def record(entry, tmpdir):
    argv = workloads.dims_argv(entry)
    cells = run_dims(entry["spec"], argv, tmpdir)
    degrees = [cell.degree for cell in cells]
    if degrees != list(range(entry["min"], entry["max"] + 1)):
        raise RuntimeError(f"table covers {degrees}")
    dims = [cell.dimension for cell in cells]
    if None in dims:
        raise RuntimeError("unavailable cell in a reference table")
    check = second_route(entry, cells)
    if check != dims:
        raise RuntimeError(f"{entry['stratum']}: table {dims}, "
                           f"second route {check}")
    return dims, [cell.method for cell in cells]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--commit", required=True,
                        help="commit of src/tatehh the values come from")
    parser.add_argument("--out", default=os.path.join(HERE, "references.json"))
    args = parser.parse_args(argv)
    catalogue = workloads.build_catalogue()
    doc = {"catalogue_seed": workloads.CATALOGUE_SEED,
           "recorded_at": {"commit": args.commit,
                           "python": platform.python_version(),
                           "nproc": os.cpu_count()}}
    with tempfile.TemporaryDirectory(dir=HERE) as tmpdir:
        for workload, entries in catalogue.items():
            strata_checked = set()
            for i, entry in enumerate(entries):
                start = time.perf_counter()
                dims, methods = record(entry, tmpdir)
                entry["dims"] = dims
                entry["methods"] = methods
                if entry["stratum"] not in strata_checked:
                    strata_checked.add(entry["stratum"])
                    c = entry["spec"]["c"]
                    perm = list(range(c))[::-1]
                    relabelled = run_dims(
                        workloads.permute_spec(entry["spec"], perm),
                        workloads.dims_argv(entry), tmpdir)
                    if [cell.dimension for cell in relabelled] != dims:
                        raise RuntimeError(
                            f"{entry['stratum']}: relabelled table differs")
                print(f"{workload} {i + 1}/{len(entries)} {entry['stratum']} "
                      f"{entry['variant']} k={entry['k']} dims={dims} "
                      f"{time.perf_counter() - start:.1f}s", flush=True)
            doc[workload] = entries
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
