"""The tatehh benchmark: one closed-loop client sending ``tatehh dims``
requests in-process, every printed cell checked against its reference.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``tatehh`` from ``src/`` and
exits 2, printing no result, if that is missing.  Set-up (importing tatehh,
generating the requests from the seed, writing their spec files) is timed
in this process and in eight fresh ones, and ``setup_s`` is the median.  Then
requests go one at a time through ``tatehh.cli_reports.main(argv)`` until
``--seconds`` have passed and the current block is complete (each block is
a pass with a fixed mix of strata, so partial passes do not skew the mix).

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end figures:

  setup_s          median set-up time;
  cells_per_s      correct table cells per second over the wall time of the
                   whole request sequence, failed requests included;
  request_p50_s    median latency of completed requests;
  request_tail_s   latency at the highest percentile with at least 10
                   completed requests beyond it (the percentile and the
                   sample count are printed above the JSON line);
  completed_frac   1 - failed_frac, the share of requests that did not fail;
  available_frac   1 - unavailable_frac, the share of requested cells that
                   were not printed as unavailable;
  peak_rss_mb      peak resident memory of this process.

A request fails if it raises, exits with a code other than 0 or 3 (3 is
the documented budget exit, which still prints the table), or prints a
table whose degrees or cells differ from the reference.  A failed request is
left out of the latency figures.  ``correct`` is false if any printed cell
differs from its reference.

With ``--trace 1`` each request runs twice, once untraced and once with the
spans of ``tracer.py`` installed (alternating which goes first), until
``--seconds`` have passed and the current block is complete.  The two runs
must print identical bytes.  The metrics are the per-layer figures of
``Tracer.layer_metrics`` plus the tracing overhead; the spans are written to
``.bench_work/traces/<workload>-seed<seed>.jsonl``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

perf_counter = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCES = os.path.join(HERE, "references.json")

SETUP_PROBES = 8
TAIL_BEYOND = 10
HEADER = "degree,dimension,method,source"

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class SetupError(Exception):
    """The checkout lacks what the benchmark needs."""


# -------------------------------------------------------------------- set-up

def setup(workload, seed, workdir):
    """Import tatehh, generate the requests and write the spec files of
    the first block (later ones are written as the run reaches them).

    Returns (cli module, requests, SpecFiles, seconds taken)."""
    start = perf_counter()
    if not os.path.isfile(os.path.join(SRC, "tatehh", "__init__.py")):
        raise SetupError(f"no tatehh package under {SRC}")
    if not os.path.isfile(REFERENCES):
        raise SetupError(f"missing {REFERENCES}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from tatehh import cli_reports

    if not os.path.abspath(cli_reports.__file__).startswith(SRC + os.sep):
        raise SetupError(f"tatehh imported from {cli_reports.__file__}")
    with open(REFERENCES, encoding="utf-8") as fh:
        references = json.load(fh)
    requests = workloads.generate(workload, seed, references)
    specs = workloads.SpecFiles(requests, workdir)
    for req in requests:
        if req["block"] != requests[0]["block"]:
            break
        specs.ensure(req)
    return cli_reports, requests, specs, perf_counter() - start


def probe_setups(workload, seed, count):
    """Set-up times measured in ``count`` fresh interpreters."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


# ------------------------------------------------------------------ requests

def send(cli, req):
    """Run one request; returns (exit code or None, stdout, error, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["dims", "--spec", req["path"]] + req["argv"])
        error = None
    except SystemExit as exc:
        code, error = None, f"SystemExit: {exc.code}"
    except Exception as exc:  # the run goes on; the request counts as failed
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), error, perf_counter() - start


def check(req, code, text, error):
    """Grade one response against its reference.

    Returns (failure reason or None, {"correct", "unavailable", "wrong"}
    cell counts, Counter of printed methods)."""
    counts = {"correct": 0, "unavailable": 0, "wrong": 0}
    methods = Counter()
    if error is not None:
        return error, counts, methods
    if code not in (0, 3):
        return f"exit code {code}", counts, methods
    lines = text.rstrip("\n").split("\n")
    if lines[0] != HEADER:
        return "no table printed", counts, methods
    degrees = []
    for line, expect in zip(lines[1:], req["expect"]):
        degree, dim, method, _ = line.split(",", 3)
        degrees.append(int(degree))
        methods[method] += 1
        if dim == "":
            counts["unavailable"] += 1
        elif int(dim) == expect:
            counts["correct"] += 1
        else:
            counts["wrong"] += 1
    if len(lines) - 1 != len(req["degrees"]) or degrees != req["degrees"]:
        return "table degrees differ from the request", counts, methods
    if counts["wrong"]:
        return "cell differs from its reference", counts, methods
    return None, counts, methods


def tail(latencies):
    """(value, percentile) at the highest percentile with TAIL_BEYOND
    samples above it, or the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ---------------------------------------------------------------------- runs

class Tally:
    """Outcomes of a request sequence."""

    def __init__(self):
        self.attempted = 0
        self.cells_requested = 0
        self.cells = Counter()
        self.methods = Counter()
        self.failures = Counter()
        self.latencies = []

    def add(self, req, code, text, error, seconds):
        reason, counts, methods = check(req, code, text, error)
        self.attempted += 1
        self.cells_requested += len(req["degrees"])
        self.cells.update(counts)
        self.methods.update(methods)
        if reason is None:
            self.latencies.append(seconds)
        else:
            self.failures[f"{req['stratum']}: {reason}"] += 1

    @property
    def failed(self):
        return sum(self.failures.values())


def _sequence(requests, specs, seconds):
    """(index, request) in order, cycling, until ``seconds`` have passed
    and the current block (a fixed mix of strata) is complete.  Each spec
    file is written before its first request."""
    start = perf_counter()
    i = 0
    while True:
        req = requests[i % len(requests)]
        new_block = i == 0 or i % len(requests) == 0 or \
            req["block"] != requests[(i - 1) % len(requests)]["block"]
        if new_block and perf_counter() - start >= seconds:
            return
        specs.ensure(req)
        yield i, req
        i += 1


def run_untraced(cli, requests, specs, seconds):
    tally = Tally()
    start = perf_counter()
    for _, req in _sequence(requests, specs, seconds):
        tally.add(req, *send(cli, req))
    return tally, perf_counter() - start


def run_traced(cli, requests, specs, seconds):
    """Each request untraced and traced, alternating which runs first."""
    untraced, traced = Tally(), Tally()
    times = {False: 0.0, True: 0.0}
    mismatched = 0
    tracer = Tracer()
    for i, req in _sequence(requests, specs, seconds):
        outputs = {}
        tracer.request = i
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            with tracer if with_trace else contextlib.nullcontext():
                code, text, error, took = send(cli, req)
            outputs[with_trace] = (code, text, error)
            times[with_trace] += took
            (traced if with_trace else untraced).add(req, code, text, error,
                                                     took)
        if outputs[False] != outputs[True]:
            mismatched += 1
    return tracer, untraced, traced, times, mismatched


# ------------------------------------------------------------------- report

def _emit(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))


def end_to_end(tally, wall, setup_times):
    completed = len(tally.latencies)
    tail_s, tail_pct = tail(tally.latencies) if completed else (wall, 100.0)
    unavailable = tally.cells["unavailable"]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "cells_per_s": tally.cells["correct"] / wall,
        "request_p50_s": statistics.median(tally.latencies)
        if completed else wall,
        "request_tail_s": tail_s,
        "completed_frac": completed / tally.attempted,
        "available_frac": 1 - unavailable / tally.cells_requested,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"setup_s {metrics['setup_s']:.4f} s: median of "
          f"{len(setup_times)} set-ups {[round(t, 4) for t in setup_times]}")
    print(f"cells_per_s {metrics['cells_per_s']:.4f} cells/s: "
          f"{tally.cells['correct']} correct cells in {wall:.3f} s")
    print(f"request_p50_s {metrics['request_p50_s']:.4f} s over "
          f"{completed} completed requests")
    print(f"request_tail_s {tail_s:.4f} s: p{tail_pct:.1f} of {completed} "
          f"completed requests, {TAIL_BEYOND if completed > TAIL_BEYOND else 0} "
          f"beyond it")
    print(f"failed_frac {tally.failed / tally.attempted:.4f}: "
          f"{tally.failed} of {tally.attempted} requests")
    print(f"unavailable_frac {unavailable / tally.cells_requested:.4f}: "
          f"{unavailable} of {tally.cells_requested} cells")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    return metrics


def per_layer(tracer, untraced, traced, times, mismatched):
    n = traced.attempted
    metrics = tracer.layer_metrics(n, traced.methods)
    metrics.update({
        "trace.requests": n,
        "trace.request_s": times[True] / n,
        "trace.untraced_request_s": times[False] / n,
        "trace.overhead_frac": times[True] / times[False] - 1,
        "trace.self_coverage": tracer.root_seconds() / times[True],
    })
    print(f"traced {n} requests, each also run untraced; "
          f"{mismatched} printed different bytes")
    print(f"tracing overhead {metrics['trace.overhead_frac']:.4f} "
          f"({times[True]:.3f} s traced, {times[False]:.3f} s untraced)")
    print(f"self times cover {metrics['trace.self_coverage']:.4f} of the "
          f"traced request time")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g}")
    return metrics


def _units(section):
    """{metric: unit} of one metric list in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None):
    parser = argparse.ArgumentParser(description="tatehh benchmark")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS
                        + workloads.DIAGNOSTIC_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up, print it and exit")
    args = parser.parse_args(argv)

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        cli, requests, specs, setup_s = setup(args.workload, args.seed,
                                              workdir)
        if args.setup_probe:
            print(f"{setup_s:.9f}")
            return 0
        print(f"workload {args.workload} seed {args.seed} seconds "
              f"{args.seconds:g} trace {args.trace}: closed loop, one client, "
              f"python {platform.python_version()}, nproc {os.cpu_count()}")
        if args.trace:
            tracer, untraced, traced, times, mismatched = run_traced(
                cli, requests, specs, args.seconds)
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            trace_path = os.path.join(
                WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl")
            tracer.write(trace_path)
            print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
            metrics = per_layer(tracer, untraced, traced, times, mismatched)
            tally = traced
            correct = not mismatched and not traced.cells["wrong"] \
                and not untraced.cells["wrong"]
            units = _units("per_layer")
        else:
            setup_times = [setup_s] + probe_setups(args.workload, args.seed,
                                                   SETUP_PROBES)
            tally, wall = run_untraced(cli, requests, specs, args.seconds)
            metrics = end_to_end(tally, wall, setup_times)
            correct = not tally.cells["wrong"]
            units = _units("end_to_end")
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason, count in sorted(tally.failures.items()):
        print(f"failed x{count}: {reason}")
    _emit(correct, tally.attempted, tally.failed, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
