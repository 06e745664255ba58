"""Tests for spec parsing, the CLI subcommands, and the verify suites."""

import contextlib
import copy
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tatehh import cli_reports, tate_engine
from tatehh.cli_reports import (
    _duality_family,
    EXIT_BUDGET,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    SUITES,
    main,
    parse_spec,
    run_verify,
    table_from_csv,
    table_from_json,
)
from tatehh.hochschild_bar import DEFAULT_BUDGET
from tatehh.near_zero import d0_matrix_via_s
from tatehh.tate_engine import TableEntry, recognize_nakayama_power

from oracles import is_commutative, is_exterior, twist_compose

CODIM2_SPEC = """{
  "field": {"type": "rational"}, "c": 2, "exponents": [2, 2],
  "q": [["1", "2"], ["1/2", "1"]]
}"""

EXTERIOR_GF2_SPEC = """{
  "field": {"type": "prime", "p": 2}, "exponents": [2, 2, 2],
  "q": [["1", "-1", "-1"], ["-1", "1", "-1"], ["-1", "-1", "1"]]
}"""

# `tatehh oracle --spec CODIM2_SPEC --max 1 --coeff nu:1 --format json`
GOLDEN_ORACLE_JSON = (
    '{\n'
    '  "algebra": {\n'
    '    "field": "QQ",\n'
    '    "exponents": [\n'
    '      2,\n'
    '      2\n'
    '    ],\n'
    '    "q": [\n'
    '      [\n'
    '        "1",\n'
    '        "2"\n'
    '      ],\n'
    '      [\n'
    '        "1/2",\n'
    '        "1"\n'
    '      ]\n'
    '    ]\n'
    '  },\n'
    '  "variant": "homology",\n'
    '  "coefficient": "nu^1",\n'
    '  "entries": [\n'
    '    {\n'
    '      "degree": 0,\n'
    '      "dimension": 2,\n'
    '      "method": "oracle",\n'
    '      "source": "nu^1"\n'
    '    },\n'
    '    {\n'
    '      "degree": 1,\n'
    '      "dimension": 2,\n'
    '      "method": "oracle",\n'
    '      "source": "nu^1"\n'
    '    }\n'
    '  ]\n'
    '}\n'
)


@pytest.fixture
def codim2_path(tmp_path):
    path = tmp_path / "codim2.json"
    path.write_text(CODIM2_SPEC)
    return str(path)


class TestParseSpec:
    def test_codim2_example(self):
        A = parse_spec(CODIM2_SPEC)
        assert A.c == 2 and A.dim == 4
        assert A.field.to_str(A.q[0][1]) == "2"

    def test_prime_field_exterior_example(self):
        A = parse_spec(EXTERIOR_GF2_SPEC)
        # -1 reduces to 1 mod 2, so this is the commutative square-zero case
        assert is_exterior(A) and is_commutative(A)
        assert A.field.characteristic == 2

    def test_rejects_non_inverse_pair(self):
        bad = ('{"field": {"type": "rational"}, "exponents": [2, 2],'
               ' "q": [["1", "2"], ["2", "1"]]}')
        with pytest.raises(ValueError, match=r"q\[0\]\[1\] \* q\[1\]\[0\]"):
            parse_spec(bad)

    def test_rejects_small_exponent(self):
        bad = ('{"field": {"type": "rational"}, "exponents": [1],'
               ' "q": [["1"]]}')
        with pytest.raises(ValueError, match=">= 2"):
            parse_spec(bad)

    def test_names_malformed_scalar(self):
        bad = ('{"field": {"type": "rational"}, "exponents": [2, 2],'
               ' "q": [["1", "x"], ["1", "1"]]}')
        with pytest.raises(ValueError, match=r"q\[0\]\[1\]"):
            parse_spec(bad)

    @pytest.mark.parametrize("field", ['{"type": "rational"}',
                                       '{"type": "prime", "p": 7}'])
    @pytest.mark.parametrize("scalar", ["1e4000000", "1.5", "1_000"])
    def test_dims_rejects_scalar_outside_n_over_d(self, tmp_path, capsys,
                                                  field, scalar):
        path = tmp_path / "bad.json"
        path.write_text('{"field": %s, "exponents": [2, 2],'
                        ' "q": [["1", "%s"], ["1", "1"]]}' % (field, scalar))
        start = time.monotonic()
        assert main(["dims", "--spec", str(path), "--min", "0",
                     "--max", "1"]) == EXIT_USAGE
        assert time.monotonic() - start < 1.0
        assert f"q[0][1]: not a scalar of the form n or n/d: '{scalar}'" \
            in capsys.readouterr().err

    def test_rejects_numeric_scalar(self):
        bad = ('{"field": {"type": "rational"}, "exponents": [2, 2],'
               ' "q": [["1", 2], ["1/2", "1"]]}')
        with pytest.raises(ValueError, match="strings"):
            parse_spec(bad)

    def test_rejects_c_mismatch_and_shape(self):
        with pytest.raises(ValueError, match='"c" is 3'):
            parse_spec('{"field": {"type": "rational"}, "c": 3,'
                       ' "exponents": [2, 2], "q": [["1","1"],["1","1"]]}')
        with pytest.raises(ValueError, match="2 x 2"):
            parse_spec('{"field": {"type": "rational"},'
                       ' "exponents": [2, 2], "q": [["1"]]}')
        for c in ('"1"', "1.0", "true"):
            with pytest.raises(ValueError, match='"c" must be an integer'):
                parse_spec('{"field": {"type": "rational"}, "c": %s,'
                           ' "exponents": [2], "q": [["1"]]}' % c)

    def test_rejects_boolean_prime(self, tmp_path):
        spec = ('{"field": {"type": "prime", "p": true},'
                ' "exponents": [2], "q": [["1"]]}')
        with pytest.raises(ValueError,
                           match="must be an integer, got True"):
            parse_spec(spec)
        path = tmp_path / "bool.json"
        path.write_text(spec)
        assert main(["dims", "--spec", str(path), "--min", "0",
                     "--max", "1"]) == EXIT_USAGE

    def test_single_generator_defaults_q(self):
        A = parse_spec('{"field": {"type": "prime", "p": 5},'
                       ' "exponents": [4]}')
        assert A.dim == 4

    def test_oversized_spec_is_budget_exit_before_building(self, tmp_path,
                                                           capsys):
        huge = 1099511627776
        path = tmp_path / "huge.json"
        path.write_text('{"field": {"type": "rational"}, "exponents": [%d]}'
                        % huge)
        for argv in (["dims", "--min", "0", "--max", "0"],
                     ["oracle", "--max", "0"], ["exactness"]):
            start = time.monotonic()
            assert main(argv + ["--spec", str(path)]) == EXIT_BUDGET
            assert time.monotonic() - start < 1.0
            err = capsys.readouterr().err
            assert str(huge) in err and str(DEFAULT_BUDGET) in err

    def test_rejects_malformed_json_and_field(self):
        with pytest.raises(ValueError, match="valid JSON"):
            parse_spec("{not json")
        with pytest.raises(ValueError, match="field"):
            parse_spec('{"exponents": [2]}')
        with pytest.raises(ValueError, match="unknown field type"):
            parse_spec('{"field": {"type": "real"}, "exponents": [2]}')


class TestRoundTrips:
    def test_csv_round_trip(self, codim2_path, capsys):
        assert main(["dims", "--spec", codim2_path, "--min", "-2", "--max",
                     "2", "--variant", "cohomology"]) == EXIT_OK
        text = capsys.readouterr().out
        entries = table_from_csv(text)
        assert entries == [
            TableEntry(-2, 0, "resolution", ""),
            TableEntry(-1, 0, "resolution", ""),
            TableEntry(0, 1, "resolution", ""),
            TableEntry(1, 2, "resolution", ""),
            TableEntry(2, 1, "resolution", ""),
        ]

    def test_json_round_trip_preserves_unavailable(self, codim2_path, capsys):
        code = main(["dims", "--spec", codim2_path, "--min", "1", "--max",
                     "4", "--method", "bar", "--budget", "256",
                     "--format", "json"])
        assert code == EXIT_BUDGET
        text = capsys.readouterr().out
        entries = table_from_json(text)
        assert [e.dimension for e in entries] == [2, 2, None, None]
        assert entries == table_from_csv(
            "degree,dimension,method,source\n" + "\n".join(
                "{},{},{},{}".format(
                    e.degree,
                    "" if e.dimension is None else e.dimension,
                    e.method, e.source)
                for e in entries) + "\n")

    def test_csv_header_enforced(self):
        with pytest.raises(ValueError, match="header"):
            table_from_csv("deg,dim\n0,1\n")


class TestDimsCommand:
    def test_golden_csv_bytes(self, codim2_path, capsys):
        argv = ["dims", "--spec", codim2_path, "--min", "-1", "--max", "1",
                "--variant", "cohomology"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert first == ("degree,dimension,method,source\n"
                         "-1,0,resolution,\n"
                         "0,1,resolution,\n"
                         "1,2,resolution,\n")
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_out_file(self, codim2_path, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["dims", "--spec", codim2_path, "--min", "0", "--max",
                     "1", "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith("degree,dimension,method,source")

    def test_repeated_calls_leave_no_argparse_garbage(self, codim2_path,
                                                      capsys):
        """main reuses one parser; building one per call left its
        formatters in reference cycles for the collector."""
        argv = ["dims", "--spec", codim2_path, "--min", "0", "--max", "1"]
        assert main(argv) == EXIT_OK  # the parser is built on first use
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(20):
                assert main(argv) == EXIT_OK
            gc.collect()
            leaked = [type(obj).__name__ for obj in gc.garbage
                      if type(obj).__module__ == "argparse"]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []

    def test_retired_methods_are_usage_errors(self, codim2_path, capsys):
        # the closed forms check the tables and route no cell
        for method in ("formula", "complex"):
            with pytest.raises(SystemExit) as exc:
                main(["dims", "--spec", codim2_path, "--min", "0", "--max",
                      "1", "--method", method])
            assert exc.value.code == EXIT_USAGE
            assert "invalid choice" in capsys.readouterr().err

    def test_usage_errors(self, codim2_path, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["dims", "--spec", missing, "--min", "0",
                     "--max", "1"]) == EXIT_USAGE
        assert main(["dims", "--spec", codim2_path, "--min", "0", "--max",
                     "1", "--coeff", "twist:3"]) == EXIT_USAGE
        bad = tmp_path / "bad.json"
        bad.write_text('{"field": {"type": "rational"}, "exponents": [2, 2],'
                       ' "q": [["1", "2"], ["2", "1"]]}')
        assert main(["dims", "--spec", str(bad), "--min", "0",
                     "--max", "1"]) == EXIT_USAGE

    def test_coefficient_power_is_ascii_digits(self, codim2_path, capsys):
        # int() alone reads "nu:1_0" as nu^10 and "nu: 1", "nu:\u0661" as nu^1
        for coeff in ("nu:1_0", "nu: 1", "nu:1 ", "nu:\u0661", "nu:", "nu:+"):
            for argv in (["dims", "--min", "0", "--max", "0"],
                         ["oracle", "--max", "0"]):
                assert main(argv + ["--spec", codim2_path,
                                    "--coeff", coeff]) == EXIT_USAGE
                assert "coefficient must be 'regular' or 'nu:K'" in \
                    capsys.readouterr().err
        for coeff in ("nu:+1", "nu:-1", "nu:10"):
            assert main(["dims", "--spec", codim2_path, "--min", "0", "--max",
                         "0", "--coeff", coeff]) == EXIT_OK
        capsys.readouterr()

    def test_twisted_coefficient(self, codim2_path, capsys):
        assert main(["dims", "--spec", codim2_path, "--min", "1", "--max",
                     "2", "--coeff", "nu:-1"]) == EXIT_OK
        entries = table_from_csv(capsys.readouterr().out)
        assert [e.dimension for e in entries] == [0, 0]
        assert {e.method for e in entries} == {"resolution"}


class TestOracleCommand:
    def test_cohomology_table(self, codim2_path, capsys):
        assert main(["oracle", "--spec", codim2_path, "--max", "3",
                     "--variant", "cohomology"]) == EXIT_OK
        entries = table_from_csv(capsys.readouterr().out)
        # ordinary degree-0 value differs from the stable table
        assert [e.dimension for e in entries] == [2, 2, 1, 0]
        assert {e.method for e in entries} == {"oracle"}

    def test_golden_bytes(self, codim2_path, capsys):
        argv = ["oracle", "--spec", codim2_path, "--max", "1",
                "--coeff", "nu:1"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == ("degree,dimension,method,source\n"
                                           "0,2,oracle,nu^1\n"
                                           "1,2,oracle,nu^1\n")
        assert main(argv + ["--format", "json"]) == EXIT_OK
        assert capsys.readouterr().out == GOLDEN_ORACLE_JSON

    def test_budget_exit(self, codim2_path, capsys):
        assert main(["oracle", "--spec", codim2_path, "--max", "5",
                     "--budget", "100"]) == EXIT_BUDGET
        assert "budget" in capsys.readouterr().err

    def test_non_positive_budget_is_usage_error(self, codim2_path, capsys):
        for budget in ("0", "-3"):
            assert main(["oracle", "--spec", codim2_path, "--max", "1",
                         "--budget", budget]) == EXIT_USAGE
            assert "budget must be positive" in capsys.readouterr().err


class TestExactnessCommand:
    def test_passes(self, codim2_path, capsys):
        assert main(["exactness", "--spec", codim2_path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report[0]["pass"] is True
        assert report[0]["lhs"] is True and report[0]["rhs"] is True


    def test_non_positive_budget_is_usage_error(self, codim2_path, capsys):
        for budget in ("0", "-3"):
            assert main(["exactness", "--spec", codim2_path,
                         "--budget", budget]) == EXIT_USAGE
            assert "budget must be positive" in capsys.readouterr().err


class TestVerify:
    def test_ci_suite_rows(self):
        rows = run_verify("ci", 2)
        assert all(row["pass"] for row in rows)
        assert [row["check"] for row in rows] == [
            "ci QQ degree 0 zeromaps vs formula",
            "ci QQ degree 1 oracle vs formula",
            "ci QQ degree 2 oracle vs formula",
            "ci QQ homology table on [-3, 2] vs formula",
            "ci GF(2) degree 0 zeromaps vs formula",
            "ci GF(2) degree 1 oracle vs formula",
            "ci GF(2) degree 2 oracle vs formula",
            "ci GF(2) homology table on [-3, 2] vs formula",
        ]
        assert [row["lhs"] for row in rows] == [
            3, 4, 5, [5, 4, 3, 3, 4, 5], 4, 8, 12, [12, 8, 4, 4, 8, 12]]

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_verify("everything")

    def test_budget_errors_reported_per_unit(self):
        rows = run_verify("ci", 2, budget=50)
        assert len(rows) == 2
        assert all("error" in row and not row["pass"] for row in rows)

    def test_every_suite_passes_at_depth_two(self):
        for suite in SUITES:
            rows = run_verify(suite, 2)
            assert rows and all(row["pass"] for row in rows), suite

    def test_cli_selected_suites_deterministic(self, capsys):
        argv = ["verify", "--suite", "ci", "--suite", "exactness",
                "--max", "2"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        rows = json.loads(first)
        assert all(row["pass"] for row in rows)
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_cli_budget_exit(self, capsys):
        assert main(["verify", "--suite", "ci", "--max", "2",
                     "--budget", "50"]) == EXIT_BUDGET
        capsys.readouterr()

    def test_cli_non_positive_budget_is_usage_error(self, capsys):
        for suite in ("ci", "codim2"):
            assert main(["verify", "--suite", suite, "--max", "1",
                         "--budget", "0"]) == EXIT_USAGE
            assert "budget must be positive" in capsys.readouterr().err

    def test_cli_exactness_suite_non_positive_budget_is_usage_error(
            self, capsys):
        for budget in ("0", "-3"):
            assert main(["verify", "--suite", "exactness",
                         "--budget", budget]) == EXIT_USAGE
            assert "budget must be positive" in capsys.readouterr().err

    def test_cli_negative_depth_is_one_usage_error(self, capsys):
        for suite in SUITES:
            assert main(["verify", "--suite", suite, "--max", "-1"]) == \
                EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: verify depth must be non-negative, got -1\n"
        assert main(["verify", "--suite", "exactness", "--max", "0"]) == \
            EXIT_OK
        capsys.readouterr()

    def test_duality_suite_checks_the_recognised_dual(self):
        rows = [row for row in run_verify("duality", 1)
                if "degree 0 cohomology spliced complex vs recognised dual"
                in row["check"]]
        assert len(rows) == 3 * len(_duality_family())
        assert all(row["pass"] and isinstance(row["lhs"], int)
                   for row in rows)

    def test_corrupted_splice_twist_fails_a_duality_row(self, monkeypatch):
        # nu^{j+1} in place of nu^j in the norm map C_0 -> C_{-1}
        monkeypatch.setattr(
            tate_engine, "d0_matrix_via_s",
            lambda A, psi: d0_matrix_via_s(
                A, twist_compose(A, psi, A.nakayama(1))))
        rows = run_verify("duality", 1)
        assert any(not row["pass"] for row in rows
                   if "spliced" in row["check"])

    def test_dual_certified_at_the_wrong_twist_fails_a_duality_row(
            self, monkeypatch):
        # nu^-k in place of nu^(1-k) as the twist the dual of nu^k is
        monkeypatch.setattr(
            cli_reports, "recognize_nakayama_power",
            lambda A, M, j: recognize_nakayama_power(A, M, j - 1))
        rows = run_verify("duality", 1)
        assert any(not row["pass"] for row in rows
                   if "recognised dual" in row["check"])

    def test_mismatch_exit_code_contract(self):
        # a fabricated failing row drives the exit logic, not real math
        rows = [{"check": "x", "lhs": 1, "rhs": 2, "pass": False}]
        assert EXIT_MISMATCH == 1 and rows[0]["pass"] is False


# ------------------------------------------------------------------ fuzzing

BASE_SPECS = [
    {"field": {"type": "rational"}, "c": 2, "exponents": [2, 3],
     "q": [["1", "2"], ["1/2", "1"]]},
    {"field": {"type": "prime", "p": 3}, "exponents": [2, 2],
     "q": [["1", "-1"], ["-1", "1"]]},
    {"field": {"type": "prime", "p": 5}, "exponents": [3]},
]
# small values only, so that no draw builds a large algebra
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.sampled_from(["", "2", "x", "1/0", "0", "-1", "3/2"]),
                 st.lists(st.integers(-1, 3), max_size=2), st.just({}))
PRIMES = st.sampled_from([2, 3, 5, 7, 4, 9, 1, 0, -5, True, False, 2.0, "7"])


@st.composite
def mutated_specs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASE_SPECS)))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["drop", "top", "prime", "exponent",
                                     "q", "nest"]))
        if kind == "drop":
            doc.pop(draw(st.sampled_from(["field", "c", "exponents", "q"])),
                    None)
        elif kind == "top":
            doc[draw(st.sampled_from(["field", "c", "exponents", "q"]))] = \
                draw(JUNK)
        elif kind == "prime":
            doc["field"] = {"type": "prime", "p": draw(PRIMES)}
        elif kind == "exponent" and isinstance(doc.get("exponents"), list) \
                and doc["exponents"]:
            w = draw(st.integers(0, len(doc["exponents"]) - 1))
            doc["exponents"][w] = draw(JUNK)
        elif kind == "q" and isinstance(doc.get("q"), list) and doc["q"] \
                and isinstance(doc["q"][0], list) and doc["q"][0]:
            doc["q"][0][-1] = draw(JUNK)  # breaks the inverse pair, or types
        elif kind == "nest":
            doc["exponents"] = [doc.get("exponents")]
    text = json.dumps(doc)
    if draw(st.booleans()) and draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


ARGVS = st.one_of(
    st.tuples(st.just("dims"), st.integers(-2, 2), st.integers(-2, 2),
              st.sampled_from(["homology", "cohomology"]),
              st.sampled_from(["regular", "nu:1", "nu:-2", "nu:", "nu:x",
                               "twist:3"]),
              st.sampled_from(["auto", "bar"])).map(
        lambda t: [t[0], "--min", str(t[1]), "--max", str(t[2]),
                   "--variant", t[3], "--coeff", t[4], "--method", t[5]]),
    st.tuples(st.just("oracle"), st.integers(-1, 1),
              st.sampled_from(["regular", "nu:1", "nu:y"])).map(
        lambda t: [t[0], "--max", str(t[1]), "--coeff", t[2]]),
    st.just(["exactness"]))
BUDGETS = st.sampled_from([None] * 4 + ["-1", "0", "1", "50"])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(mutated_specs(), ARGVS, BUDGETS)
def test_fuzz_spec_and_argv_exit_with_documented_codes(text, argv, budget):
    try:
        parse_spec(text)
    except ValueError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = argv + ["--spec", path, "--out", os.path.join(tmp, "out")]
        if budget is not None:
            argv += ["--budget", budget]
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (EXIT_OK, EXIT_MISMATCH, EXIT_USAGE,
                                  EXIT_BUDGET)


def test_python_dash_m_runs_the_command_line(tmp_path):
    spec = tmp_path / "codim2.json"
    spec.write_text(CODIM2_SPEC)
    src = str(Path(tate_engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "tatehh", "dims", "--spec", str(spec),
         "--min", "0", "--max", "2"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.splitlines()[0] == "degree,dimension,method,source"


def test_cli_import_skips_the_introspection_modules():
    """Importing the command line loads none of dataclasses, inspect and
    ast beyond what a bare interpreter has loaded: they cost a fifth of the
    package's import time, and every request pays it."""
    src = str(Path(tate_engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def loaded(statement):
        done = subprocess.run(
            [sys.executable, "-c",
             f"import sys\n{statement}\nprint(*sorted(sys.modules))"],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        return set(done.stdout.split())

    bare, cli = loaded("pass"), loaded("import tatehh.cli_reports")
    assert "tatehh.cli_reports" in cli
    assert not {"dataclasses", "inspect", "ast"} & (cli - bare)
