"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import os

import pytest

import run
import workloads
from tracer import Tracer


@pytest.fixture(scope="module")
def references():
    with open(run.REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def cli():
    run.sys.path.insert(0, run.SRC)
    from tatehh import cli_reports
    return cli_reports


@pytest.mark.parametrize(
    "workload", workloads.WORKLOADS + workloads.DIAGNOSTIC_WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload, references):
    first = workloads.generate(workload, 7, references)
    again = workloads.generate(workload, 7, references)
    other = workloads.generate(workload, 8, references)
    assert first == again
    assert first != other


def _pair_and_q(req):
    spec = req["spec"]
    return tuple(spec["exponents"]), spec["q"][0][1]


def test_known_defect_requests_are_kept_out_of_delta_deep(references):
    defect = {(pair, str(q)) for pair in workloads.KNOWN_DEFECT
              for q in workloads.DELTA_FIXED_Q}
    deep = workloads.generate("delta-deep", 3, references)
    sent = {_pair_and_q(req) for req in deep}
    assert not sent & defect
    assert {((2, 2), "2"), ((2, 2), "1/2")} <= sent
    blocks = {}
    for req in deep:
        blocks.setdefault(req["block"], []).append(
            _pair_and_q(req) + (len(req["degrees"]),))
    for block in blocks.values():
        assert len({q for _, q, _ in block}) == len(block) == 8
        assert sorted(d for _, _, d in block) == list(workloads.DELTA_DEPTHS)
        assert sorted(pair for pair, _, _ in block) == \
            sorted(workloads.DELTA_EXPONENTS * 2)
    known = workloads.generate("delta-known-defect", 3, references)
    assert {_pair_and_q(req) for req in known} == defect


def test_references_hold_the_catalogue_of_their_seed(references):
    assert references["catalogue_seed"] == workloads.CATALOGUE_SEED
    catalogue = workloads.build_catalogue(references["catalogue_seed"])
    for workload, entries in catalogue.items():
        recorded = references[workload]
        assert [{k: e[k] for k in entry} for e, entry
                in zip(recorded, entries)] == entries
        assert all(len(e["dims"]) == e["max"] - e["min"] + 1
                   for e in recorded)


def test_catalogue_scalars_avoid_plus_minus_one(references):
    for workload in ("bar-generic", "degree0-dual"):
        for entry in references[workload]:
            q = entry["spec"]["q"]
            p = entry["spec"]["field"].get("p")
            minus_one = "-1" if p is None else str(p - 1)
            off = [q[i][j] for i in range(len(q)) for j in range(len(q))
                   if i != j]
            assert not {"1", minus_one} & set(off)


def test_relabelled_spec_is_the_same_algebra():
    spec = workloads.make_spec(5, (2, 3), {(0, 1): 2})
    swapped = workloads.permute_spec(spec, (1, 0))
    assert swapped["exponents"] == [3, 2]
    assert swapped["q"] == [["1", "3"], ["2", "1"]]
    assert workloads.permute_spec(swapped, (1, 0)) == spec


class _Raising:
    def __init__(self):
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        raise ZeroDivisionError("inverse of zero")


def test_a_raising_request_is_counted_not_propagated(tmp_path):
    req = {"spec": {}, "argv": [], "stratum": "s", "block": 0,
           "degrees": [1, 2], "expect": [0, 0]}
    cli = _Raising()
    specs = workloads.SpecFiles([req], str(tmp_path))
    tally, _ = run.run_untraced(cli, [req], specs, 0.05)
    assert cli.calls >= 2
    assert tally.attempted == cli.calls
    assert tally.failed == cli.calls
    assert tally.latencies == []
    assert tally.failures == {"s: ZeroDivisionError: inverse of zero":
                              cli.calls}
    assert tally.cells["correct"] == 0


def test_a_wrong_cell_fails_the_request():
    req = {"degrees": [0, 1], "expect": [3, 0]}
    text = run.HEADER + "\n0,3,zeromaps,\n1,2,oracle,\n"
    reason, counts, methods = run.check(req, 0, text, None)
    assert reason == "cell differs from its reference"
    assert counts == {"correct": 1, "unavailable": 0, "wrong": 1}
    assert methods == {"zeromaps": 1, "oracle": 1}
    text = run.HEADER + "\n0,3,zeromaps,\n1,,unavailable,budget\n"
    reason, counts, _ = run.check(req, 3, text, None)
    assert reason is None
    assert counts == {"correct": 1, "unavailable": 1, "wrong": 0}
    assert run.check(req, 2, "", None)[0] == "exit code 2"


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail(list(range(40, 0, -1)))
    assert value == 30
    assert pct == 75.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_traced_and_untraced_print_identical_bytes(cli, tmp_path):
    spec = workloads.make_spec(5, (2, 2), {(0, 1): 2})
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    req = {"path": str(path),
           "argv": ["--min", "-1", "--max", "1", "--variant", "cohomology",
                    "--coeff", "nu:1"]}
    original = cli.main
    plain = run.send(cli, req)
    tracer = Tracer()
    with tracer:
        assert cli.main is not original
        traced = run.send(cli, req)
    assert cli.main is original
    assert plain[:3] == traced[:3]
    assert plain[0] == 0 and plain[2] is None
    names = {s[0] for s in tracer.spans}
    assert {"cli_reports.main", "hochschild_bar.coboundary_matrix",
            "sparse_linalg.rank", "tate_engine.recognize_nakayama_power",
            "near_zero.tate_hh0"} <= names
    own = tracer.self_times()
    root = tracer.spans[0]
    assert root[0] == "cli_reports.main"
    assert sum(own) == pytest.approx(root[2] - root[1])


def test_bare_checkout_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))
    code = run.main(["--workload", "delta-deep", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""
    assert not os.path.exists(tmp_path / "work" / f"delta-deep-{os.getpid()}")
