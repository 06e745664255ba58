"""Seeded request generators for the three benchmark workloads.

A request is one ``tatehh dims`` invocation: an algebra spec file plus the
argv that follows ``--spec``, and the reference dimensions its table must
print.  The program sees only the spec files and the argv.

``bar-generic`` and ``degree0-dual`` draw their requests from a catalogue of
algebras.  The catalogue itself is drawn once, from ``CATALOGUE_SEED``, by
``build_catalogue``: it picks c, exponents, field and the commutation
scalars q (never 1 or -1, so no closed form applies and every cell goes to
the bar oracle or the degree-0 window).  ``bench/record_references.py``
computes each catalogue entry's table at a fixed commit, checks it against
a second route, and stores it in ``references.json``.  The run seed then
chooses the order of catalogue entries and the generator permutation each
one is presented with; relabelling the generators gives an isomorphic
algebra, so the stored table still applies, while the spec differs.

``delta-deep`` needs no catalogue: every cell of the inverse-Nakayama
twisted homology of a generic two-generator algebra is 0 (the paper's
vanishing theorem), so the run seed draws q and the depth directly.

``delta-known-defect`` is not a scored workload: it sends only the
two-generator requests that fail at the recording commit (see
``KNOWN_DEFECT``), so that a fix shows as its failures going to 0.
"""

import json
import os
import random
from fractions import Fraction
from itertools import permutations

WORKLOADS = ("bar-generic", "delta-deep", "degree0-dual")
# Runnable by name, but not listed in BENCHMARK.json: every request fails.
DIAGNOSTIC_WORKLOADS = ("delta-known-defect",)

CATALOGUE_SEED = 1109

# Passes generated per run.  A run that gets through all of them starts
# over with the same specs.
PASSES = 64

# (stratum, field kind, exponent tuples, degree window, requests per pass).
# "prime" draws GF(5) or GF(7) per algebra.  Degree 3 at dim 12 takes
# 35-45 s, so dim 12 stops at degree 2.  The strata keep request latencies
# within a factor of about 3 of each other, so that the median and tail
# of a run do not jump between strata as its request count changes.
BAR_STRATA = (
    ("qq-c3-d12", "rational", ((2, 2, 3),), (-2, 2), 2),
    ("gfp-c3-d8", "prime", ((2, 2, 2),), (-3, 3), 1),
    ("gfp-c3-d12", "prime", ((2, 2, 3),), (-2, 2), 1),
    ("gfp-c2-d8", "prime", ((2, 4),), (-3, 3), 1),
    ("gfp-c2-d12", "prime", ((3, 4), (2, 6)), (-2, 2), 1),
)

# (stratum, field kind, exponent tuples); the window is always [-1, 0].
DUAL_STRATA = (
    ("qq-c3-d16", "rational", ((2, 2, 4),)),
    ("gf7-c4-d16", "gf7", ((2, 2, 2, 2),)),
    ("qq-c3-d24", "rational", ((2, 3, 4),)),
    ("gf7-c3-d24", "gf7", ((2, 3, 4), (2, 2, 6))),
    ("qq-c4-d24", "rational", ((2, 2, 2, 3),)),
    ("gf7-c3-d27", "gf7", ((3, 3, 3),)),
    ("qq-c5-d32", "rational", ((2, 2, 2, 2, 2),)),
    ("gf7-c3-d32", "gf7", ((2, 4, 4),)),
)

# Each catalogue stratum holds two entries per (variant, twist) pair.
ENTRIES_PER_COMBO = 2
# A degree0-dual pass sends this many homology requests and one cohomology
# request per stratum, so that the median falls among the homology requests
# and the tail among the cohomology ones.
DUAL_HOMOLOGY_PER_PASS = 2

TWISTS = (-1, 0, 1)
VARIANTS = ("homology", "cohomology")

# delta-deep: exponent pairs, the q pool (2 and 1/2 as they are, the rest
# with a seeded sign), and the depths of a block's requests (degrees 1 to
# depth; each block of 8 uses each depth once).  The pool and the depths are
# fixed up to signs and order, so that every seed sees the same mix of
# scalar heights and the same number of cells per block.
DELTA_EXPONENTS = ((2, 2), (2, 3), (3, 2), (3, 3))
DELTA_FIXED_Q = (Fraction(2), Fraction(1, 2))
# At the recording commit, 2 and 1/2 with these exponent pairs raise
# ZeroDivisionError from degree 38 or 39 on: the modular pre-pass of
# SparseMatrix.rank keeps entries whose residue modulo 2^61 - 1 is 0 (such
# as -(2^61 - 1)/4 in the degree-39 map for (3, 2), q = 2) and Markowitz
# picks one as a pivot.  A scored workload has no failing request, so
# delta-deep sends 2 and 1/2 with (2, 2) only (first failing degree 59)
# and delta-known-defect sends these.
KNOWN_DEFECT = ((2, 3), (3, 2), (3, 3))
DELTA_SIGNED_Q = (Fraction(3), Fraction(1, 3), Fraction(5, 3), Fraction(3, 5),
                  Fraction(9, 7), Fraction(7, 9))
DELTA_DEPTHS = tuple(range(41, 49))

# Draws tried for an algebra not yet in the catalogue, then in total.
_FRESH_ATTEMPTS = 200
_DRAW_ATTEMPTS = 2000


# ------------------------------------------------------------ algebra specs

def _rational_q(rng):
    while True:
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        if abs(q) != 1:
            return q


def _q_matrix(c, upper, inverse, to_str):
    """The c x c commutation matrix from its strictly upper triangle."""
    q = [["1"] * c for _ in range(c)]
    for (i, j), v in upper.items():
        q[i][j] = to_str(v)
        q[j][i] = to_str(inverse(v))
    return q


def make_spec(field, exponents, upper):
    """A spec document; ``upper`` maps (i, j), i < j, to q_ij.

    ``field`` is "rational" or a prime p; q_ij are Fractions or residues.
    """
    c = len(exponents)
    if field == "rational":
        field_doc = {"type": "rational"}
        q = _q_matrix(c, upper, lambda v: 1 / v, str)
    else:
        field_doc = {"type": "prime", "p": field}
        q = _q_matrix(c, upper, lambda v: pow(v, -1, field), str)
    return {"field": field_doc, "c": c, "exponents": list(exponents), "q": q}


def _draw_algebra(rng, kind, exponent_choices):
    exponents = rng.choice(exponent_choices)
    c = len(exponents)
    if kind == "rational":
        field = "rational"
    elif kind == "gf7":
        field = 7
    else:
        field = rng.choice((5, 7))
    upper = {}
    for i in range(c):
        for j in range(i + 1, c):
            if field == "rational":
                upper[(i, j)] = _rational_q(rng)
            else:
                upper[(i, j)] = rng.choice(range(2, field - 1))
    return field, exponents, upper


def permute_spec(spec, perm):
    """The same algebra with generator perm[w] renamed to w."""
    exps = spec["exponents"]
    q = spec["q"]
    return {"field": spec["field"], "c": spec["c"],
            "exponents": [exps[p] for p in perm],
            "q": [[q[pi][pj] for pj in perm] for pi in perm]}


def spec_key(spec):
    return json.dumps(spec, sort_keys=True)


# ---------------------------------------------------------------- catalogue

def _catalogue_stratum(rng, kind, exponent_choices, combos, seen):
    """One entry per (variant, twist) in ``combos``, each on an algebra not
    drawn before.  The two-generator prime-field strata hold only six
    algebras each; once those are used, an algebra may repeat under another
    (variant, twist)."""
    entries = []
    for variant, k in combos:
        for attempt in range(_DRAW_ATTEMPTS):
            spec = make_spec(*_draw_algebra(rng, kind, exponent_choices))
            request = (spec_key(spec), variant, k)
            if spec_key(spec) not in seen or \
                    (attempt >= _FRESH_ATTEMPTS and request not in seen):
                break
        else:
            raise RuntimeError("catalogue stratum has too few algebras")
        seen.update((spec_key(spec), request))
        entries.append({"spec": spec, "variant": variant, "k": k})
    return entries


def build_catalogue(seed=CATALOGUE_SEED):
    """{workload: [entry]} for the two catalogue workloads.

    An entry is {"stratum", "spec", "variant", "k", "min", "max"}; the
    reference file adds "dims".
    """
    rng = random.Random(seed)
    seen = set()
    bar = []
    combos = [(v, k) for v in VARIANTS for k in TWISTS]
    for name, kind, exps, (lo, hi), _ in BAR_STRATA:
        for entry in _catalogue_stratum(
                rng, kind, exps, combos * ENTRIES_PER_COMBO, seen):
            entry.update(stratum=name, min=lo, max=hi)
            bar.append(entry)
    dual = []
    for name, kind, exps in DUAL_STRATA:
        for entry in _catalogue_stratum(
                rng, kind, exps, combos * ENTRIES_PER_COMBO, seen):
            entry.update(stratum=name, min=-1, max=0)
            dual.append(entry)
    return {"bar-generic": bar, "degree0-dual": dual}


# ------------------------------------------------------------- run requests

def dims_argv(entry):
    return ["--min", str(entry["min"]), "--max", str(entry["max"]),
            "--variant", entry["variant"], "--coeff", f"nu:{entry['k']}"]


def _presentations(rng, entries):
    """Endless (entry, spec) stream: each round visits every entry once in
    a seeded order, each time under a permutation it has not had before."""
    perms = []
    for entry in entries:
        c = entry["spec"]["c"]
        own = list(permutations(range(c)))
        rng.shuffle(own)
        perms.append(own)
    order = list(range(len(entries)))
    rounds = 0
    while True:
        rng.shuffle(order)
        for i in order:
            own = perms[i]
            yield entries[i], permute_spec(entries[i]["spec"],
                                           own[rounds % len(own)])
        rounds += 1


def _request(spec, entry, stratum, block):
    return {"stratum": stratum, "block": block, "spec": spec,
            "argv": dims_argv(entry), "expect": entry["dims"],
            "degrees": list(range(entry["min"], entry["max"] + 1))}


def bar_generic_requests(seed, references):
    """Passes of each bar stratum's share of requests, in seeded order."""
    rng = random.Random(seed)
    streams = {}
    names = []
    for name, _, _, _, per_pass in BAR_STRATA:
        entries = [e for e in references if e["stratum"] == name]
        streams[name] = _presentations(rng, entries)
        names += [name] * per_pass
    requests = []
    for block in range(PASSES):
        rng.shuffle(names)
        for name in names:
            entry, spec = next(streams[name])
            requests.append(_request(spec, entry, name, block))
    return requests


def degree0_dual_requests(seed, references):
    """Passes of two homology and one cohomology request per stratum."""
    rng = random.Random(seed)
    streams = {}
    for name, _, _ in DUAL_STRATA:
        for variant in VARIANTS:
            entries = [e for e in references
                       if e["stratum"] == name and e["variant"] == variant]
            streams[(name, variant)] = _presentations(rng, entries)
    per_pass = [(name, "homology") for name, _, _ in DUAL_STRATA] \
        * DUAL_HOMOLOGY_PER_PASS \
        + [(name, "cohomology") for name, _, _ in DUAL_STRATA]
    requests = []
    for block in range(PASSES):
        rng.shuffle(per_pass)
        for key in per_pass:
            entry, spec = next(streams[key])
            requests.append(_request(spec, entry, key[0], block))
    return requests


def _delta_request(a, b, q, depth, block):
    return {"stratum": f"({a},{b}) q={q}", "block": block,
            "spec": make_spec("rational", (a, b), {(0, 1): q}),
            "argv": ["--min", "1", "--max", str(depth),
                     "--variant", "homology", "--coeff", "nu:-1"],
            "expect": [0] * depth, "degrees": list(range(1, depth + 1))}


def delta_deep_requests(seed):
    """Passes of three blocks of 8 requests, one per q of the seeded pool.

    In every block 2 and 1/2 take (2, 2) (see ``KNOWN_DEFECT``) and the six
    other q take (2, 3), (3, 2) and (3, 3) two each, rotating so that over a
    pass each of them meets each of those pairs once.  So every block has
    the same mix of pairs, and uses every depth once.
    """
    rng = random.Random(seed)
    signed = [rng.choice((-1, 1)) * q for q in DELTA_SIGNED_Q]
    others = [pair for pair in DELTA_EXPONENTS if pair != (2, 2)]
    requests = []
    for pass_ in range(PASSES):
        rng.shuffle(signed)
        rng.shuffle(others)
        for k in range(len(others)):
            block = [((2, 2), q) for q in DELTA_FIXED_Q] + \
                [(others[(i // 2 + k) % len(others)], q)
                 for i, q in enumerate(signed)]
            rng.shuffle(block)
            depths = rng.sample(DELTA_DEPTHS, len(DELTA_DEPTHS))
            requests += [_delta_request(a, b, q, depth,
                                        pass_ * len(others) + k)
                         for ((a, b), q), depth in zip(block, depths)]
    return requests


def delta_known_defect_requests(seed):
    """Passes of every ``KNOWN_DEFECT`` pair with 2 and 1/2, in seeded
    order; each pass is one block."""
    rng = random.Random(seed)
    combos = [(a, b, q) for a, b in KNOWN_DEFECT for q in DELTA_FIXED_Q]
    requests = []
    for pass_ in range(PASSES):
        rng.shuffle(combos)
        requests += [_delta_request(a, b, q, rng.choice(DELTA_DEPTHS), pass_)
                     for a, b, q in combos]
    return requests


def generate(workload, seed, references):
    """The request list of one run; ``references`` is the parsed
    references.json (unused by the delta workloads)."""
    if workload == "bar-generic":
        return bar_generic_requests(seed, references["bar-generic"])
    if workload == "degree0-dual":
        return degree0_dual_requests(seed, references["degree0-dual"])
    if workload == "delta-deep":
        return delta_deep_requests(seed)
    if workload == "delta-known-defect":
        return delta_known_defect_requests(seed)
    raise ValueError(f"unknown workload {workload!r}")


class SpecFiles:
    """One spec file per distinct spec of a request list, in ``directory``,
    each written when first needed."""

    def __init__(self, requests, directory):
        os.makedirs(directory, exist_ok=True)
        paths = {}
        for req in requests:
            key = spec_key(req["spec"])
            if key not in paths:
                paths[key] = os.path.join(directory, f"spec{len(paths)}.json")
            req["path"] = paths[key]
        self._written = set()

    def ensure(self, req):
        """Write the request's spec file unless it exists already."""
        if req["path"] not in self._written:
            with open(req["path"], "w", encoding="utf-8") as fh:
                fh.write(json.dumps(req["spec"]))
            self._written.add(req["path"])
