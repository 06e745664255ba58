"""The benchmark under bench/ binds package names; keep them resolvable.

bench/tracer.py wraps entry points by module and attribute name, and
bench/record_references.py imports names from the package, so a refactor
that drops or moves one of them breaks the benchmark without failing any
other test.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_target():
    import tatehh.cli_reports  # noqa: F401  (binds what the tracer wraps)

    tracer_module = load_tracer()
    owners = {}
    for module, path in [entry[:2] for entry in tracer_module.SPANNED.values()] \
            + list(tracer_module.COUNTED.values()):
        owner, attr = sys.modules[module], path
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(owner, cls_name)
        owners[(owner, attr)] = owner.__dict__[attr]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
    finally:
        tracer.uninstall()
    assert {(target, attr) for target, attr, _ in patched} >= set(owners)
    assert not tracer._patched
    for (owner, attr), original in owners.items():
        assert owner.__dict__[attr] is original


def test_reference_recorder_names_import():
    from tatehh import BarWindowRequest, dual_bimodule, hh_cohomology_dims, \
        hh_homology_dims, twisted_bimodule
    from tatehh.cli_reports import main, parse_spec, table_from_csv
    from tatehh.near_zero import d0_matrix_via_s, d1_matrix_via_f
    from tatehh.sparse_linalg import ChainComplexWindow

    assert all(callable(name) for name in (
        BarWindowRequest, dual_bimodule, hh_cohomology_dims, hh_homology_dims,
        twisted_bimodule, main, parse_spec, table_from_csv, d0_matrix_via_s,
        d1_matrix_via_f, ChainComplexWindow))
