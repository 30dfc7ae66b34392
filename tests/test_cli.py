"""CLI tests: subcommands, exit codes, JSON schema, determinism."""

import json
import random
import sys

import pytest

from slopelab.cli import main
from slopelab.elementary import regular_module
from slopelab.expr import parse_and_eval
from slopelab.randomgen import random_formal_module


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_slopes_command(capsys):
    code, out, _ = run(capsys, "slopes", "-e", "El(1,u^-3,rank=1)")
    assert code == 0
    assert "slopes: 3:1" in out
    assert "irregularity: 3" in out


def test_slopes_json(capsys):
    code, out, _ = run(capsys, "slopes", "-e", "El(2,u^-3,rank=1)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "1"
    assert data["slopes"] == [["3/2", 2]]
    assert data["irregularity"] == "3"
    assert data["regular"] is False


def test_nearby_command(capsys):
    code, out, _ = run(capsys, "nearby", "-e", "El(1,u^-3,rank=1)", "-p", "2")
    assert code == 0
    assert "3/2" in out


def test_nearby_cert_json(capsys):
    code, out, _ = run(capsys, "nearby", "-e", "El(1,u^-2,rank=1)", "-p", "1",
                       "--cert", "--ram-bound", "4", "--ord-bound", "6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["nearby_slopes"] == ["2"]
    (member,) = data["certificate"]["members"]
    assert member["psi_dim"] > 0
    absent = {rec["slope"] for rec in data["certificate"]["nonmembers"]}
    assert "2" not in absent and "1" in absent and "0" in absent


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "slopes", "-e", "El(0,u^-1,rank=1)")
    assert code == 1
    assert "ramification" in err


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "nearby", "-e", "Reg(rank=1)", "-p", "0")
    assert code == 1
    assert "usage" in err


def test_bound_command(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text(json.dumps({
        "dim": 2,
        "factors": [{"pole": [2, 3], "twist": ["0", "0"], "rank": 1}]}))
    code, out, _ = run(capsys, "bound", "-m", str(model), "-f", "x1*x2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["bound"] == "5"
    assert data["threshold"] == "3"
    assert data["criterion_applicable"] is True
    assert all(c["within_threshold"] for c in data["curve_checks"])


def test_bound_bad_monomial(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text(json.dumps({"dim": 2, "factors": [{"pole": [1, 0]}]}))
    code, _, err = run(capsys, "bound", "-m", str(model), "-f", "y1")
    assert code == 1
    assert "monomial" in err


def test_blowup_command(tmp_path, capsys):
    script = tmp_path / "s.blowup"
    script.write_text(json.dumps({
        "dim": 2, "mode": "toric", "Z": {"a": [1, 1]}, "S": {"r": ["2", "3"]},
        "steps": [{"center": ["D1", "D2"]}]}))
    code, out, _ = run(capsys, "blowup", "-s", str(script), "--verify", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    e1 = next(c for c in data["components"] if c["id"] == "E1")
    assert e1["vZ"] == 2 and e1["vS"] == "5" and e1["margin"] == "5"
    assert data["per_step"] == [{"step": 1, "ok": True}]


def test_blowup_script_error_names_step(tmp_path, capsys):
    script = tmp_path / "bad.blowup"
    script.write_text(json.dumps({
        "dim": 2, "mode": "toric", "Z": {"a": [1, 0]}, "S": {"r": ["1", "0"]},
        "steps": [{"center": ["D2", "D2"]}]}))
    code, _, err = run(capsys, "blowup", "-s", str(script))
    assert code == 1
    assert "step 1" in err


def assert_clean_error(code, err, *words):
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(word in err for word in words)


_SCRIPT = {"dim": 2, "mode": "toric", "Z": {"a": [1, 1]}, "S": {"r": ["1", "1"]}}


# Each case overrides fields of _SCRIPT; explicit ids keep the names of the
# first four cases stable.
@pytest.mark.parametrize("fields, words", [
    pytest.param({"steps": [1]}, ("step 1", "JSON object"), id="steps0-words0"),
    pytest.param({"steps": [{"center": ["D1", "D2"]}, "D1"]},
                 ("step 2", "JSON object"), id="steps1-words1"),
    pytest.param({"steps": {"center": ["D1", "D2"]}},
                 ("'steps' must be a list",), id="steps2-words2"),
    pytest.param({"steps": [{"center": 5}]}, ("step 1", "malformed step"),
                 id="steps3-words3"),
    # Integer fields refuse JSON floats and booleans instead of truncating.
    ({"dim": 2.0}, ("'dim' must be an integer", "2.0")),
    ({"Z": {"a": [1.9, 1]}}, ("'Z.a' entry", "1.9")),
    ({"Z": {"a": [1, True]}}, ("'Z.a' entry", "true")),
    ({"mode": "abstract", "steps": [{"alpha": [1.5, 0], "epsS": [1], "epsE": []}]},
     ("step 1", "'alpha' entry", "1.5")),
    ({"mode": "abstract", "steps": [{"alpha": [1, 0], "epsS": [True], "epsE": []}]},
     ("step 1", "'epsS' entry", "true")),
    ({"mode": "abstract", "steps": [{"alpha": [1, 0], "epsS": [1], "epsE": [0.0]}]},
     ("step 1", "'epsE' entry", "0.0")),
])
def test_blowup_wrong_shape_json_exits_1(tmp_path, capsys, fields, words):
    script = tmp_path / "s.blowup"
    script.write_text(json.dumps({**_SCRIPT, "steps": [], **fields}))
    code, _, err = run(capsys, "blowup", "-s", str(script), "--verify")
    assert_clean_error(code, err, *words)


# Each case overrides fields of a one-factor model; explicit ids keep the
# names of the first two cases stable.
@pytest.mark.parametrize("fields, words", [
    pytest.param({"factors": 5}, ("list of 'factors'",), id="5-words0"),
    pytest.param({"factors": [{"pole": [1, 0]}, 7]},
                 ("factor 1", "expected an object"), id="factors1-words1"),
    ({"dim": 2.0}, ("'dim' must be an integer", "2.0")),
    ({"dim": True}, ("'dim' must be an integer", "true")),
    ({"factors": [{"pole": [2.9, 3]}]}, ("factor 0", "'pole' entry", "2.9")),
    ({"factors": [{"pole": [False, 1]}]}, ("factor 0", "'pole' entry", "false")),
    ({"factors": [{"pole": [1, 0], "rank": 1.5}]}, ("factor 0", "'rank'", "1.5")),
    ({"factors": [{"pole": [1, 0], "twist": [True, "0"]}]},
     ("factor 0", "'twist' entry", "true")),
    ({"factors": [{"pole": [1, 0], "twist": ["0", 0.5]}]},
     ("factor 0", "'twist' entry", "0.5")),
])
def test_bound_wrong_shape_json_exits_1(tmp_path, capsys, fields, words):
    model = tmp_path / "m.model"
    model.write_text(json.dumps({"dim": 2, "factors": [{"pole": [1, 0]}], **fields}))
    code, _, err = run(capsys, "bound", "-m", str(model), "-f", "x1")
    assert_clean_error(code, err, *words)


def test_bound_spot_curves_extend_past_dimension_4(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text(json.dumps({"dim": 5, "factors": [{"pole": [2, 3, 0, 0, 1]}]}))
    code, out, _ = run(capsys, "bound", "-m", str(model), "-f", "x1*x2")
    assert code == 0
    curves = [line for line in out.splitlines() if line.startswith("curve ")]
    assert len(curves) == 4
    assert curves[2].startswith("curve (2, 1, 3, 1, 2):")


# Pinned stdout.  El(600) is certified through a twist of ramification 1200,
# and the spelling of every root of unity must not drift; the selftest's
# report must not move when its checks are rewritten.
@pytest.mark.parametrize("argv, expected", [
    (("nearby", "-e", "El(600,u^-1,rank=1)", "-p", "2", "--cert"),
     "nearby slopes along x^2: 1/1200\n"
     "  slope 1/1200: witness El(1200, -u^-1, rank=1) gives nearby-cycle "
     "dimension 1200\n"
     "  certified absent (ram <= 12, pole order <= 24): 182 slopes, "
     "762 twists checked\n"),
    (("slopes", "-e", "El(210,u^-1,rank=1)"),
     "expr: El(210, -u^-1, rank=1)\nrank: 210\nslopes: 1/210:210\n"
     "irregularity: 1\n"),
    pytest.param(("selftest", "--cases", "10", "--seed", "7"),
                 "seed 7, 10 cases per suite\n"
                 "ok   cyclotomic-field-axioms\n"
                 "ok   exponent-substitution\n"
                 "ok   duality\n"
                 "ok   pullback-pushforward\n"
                 "ok   pushforward-nearby-inclusion [observed_equalities=10]\n"
                 "ok   tensor-algebra\n"
                 "ok   nearby-cycles\n"
                 "ok   regularity-characterization\n"
                 "ok   newton-polygon-oracle\n"
                 "ok   monomial-models\n"
                 "ok   blowup-chains\n"
                 "ok   expression-round-trip\n"
                 "selftest: all suites passed\n",
                 id="selftest-cases10-seed7"),
])
def test_high_conductor_stdout_is_pinned(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected


def test_bound_zero_denominator_exits_1(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text(json.dumps(
        {"dim": 2, "factors": [{"pole": [1, 0], "twist": ["1/0", "0"]}]}))
    code, out, err = run(capsys, "bound", "-m", str(model), "-f", "x1")
    assert_clean_error(code, err, "factor 0", "zero denominator")
    assert out == ""


def test_blowup_zero_denominator_exits_1(tmp_path, capsys):
    script = tmp_path / "s.blowup"
    script.write_text(json.dumps(dict(_SCRIPT, S={"r": ["1/0", 1]}, steps=[])))
    code, out, err = run(capsys, "blowup", "-s", str(script))
    assert_clean_error(code, err, "malformed script", "zero denominator")
    assert out == ""


def _nested(depth, form):
    # An expression whose deepest point has `depth` parentheses open.
    if form == "module":
        return "(" * (depth - 1) + "Reg(rank=1)" + ")" * (depth - 1)
    return "El(1, " + "(" * (depth - 1) + "u^-1" + ")" * (depth - 1) + ", rank=1)"


@pytest.mark.parametrize("form", ["module", "phi"])
def test_nesting_limit(capsys, form):
    code, out, err = run(capsys, "slopes", "-e", _nested(200, form))
    assert code == 0 and err == ""
    assert ("slopes: 1:1" if form == "phi" else "rank: 1") in out
    for depth in (201, 5000):
        code, out, err = run(capsys, "slopes", "-e", _nested(depth, form))
        assert_clean_error(code, err, "nested deeper than 200", "line 1, column")
        assert out == ""


@pytest.mark.parametrize("argv", [("bound", "-m", "{dir}", "-f", "x1"),
                                  ("blowup", "-s", "{dir}")])
def test_directory_path_exits_1(tmp_path, capsys, argv):
    argv = [word.format(dir=tmp_path) for word in argv]
    code, out, err = run(capsys, *argv)
    assert_clean_error(code, err, str(tmp_path))
    assert out == ""


@pytest.mark.parametrize("flag, value", [("--ram-bound", "0"),
                                          ("--ord-bound", "-3")])
def test_nearby_cert_rejects_vacuous_bounds(capsys, flag, value):
    code, out, err = run(capsys, "nearby", "-e", "El(1,u^-1,rank=1)", "-p", "1",
                         "--cert", flag, value)
    assert_clean_error(code, err, "bounds must be >= 1")
    assert out == ""


def test_selftest_small(capsys):
    code, out, _ = run(capsys, "selftest", "--cases", "4", "--seed", "3")
    assert code == 0
    assert "all suites passed" in out


@pytest.mark.parametrize("cases", ["0", "-2"])
def test_selftest_rejects_vacuous_case_counts(capsys, cases):
    code, out, err = run(capsys, "selftest", "--cases", cases, "--seed", "3")
    assert code == 1
    assert err.startswith("usage error: ") and "--cases must be >= 1" in err
    assert out == ""


def test_selftest_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("SLOPELAB_SEED", "99")
    code, out, _ = run(capsys, "selftest", "--cases", "3")
    assert code == 0
    assert "seed 99" in out


def test_selftest_failure_is_replayable(capsys, monkeypatch):
    # A "dual" that adds a summand breaks the involution on every case.
    selftest = sys.modules["slopelab.selftest"]
    monkeypatch.setattr(selftest, "dual", lambda m: m + regular_module(1))
    code, out, err = run(capsys, "selftest", "--cases", "3", "--seed", "7")
    assert code == 2 and "FALSIFICATION" in err
    line = next(s for s in out.splitlines() if "involution" in s).strip()
    assert line.startswith("duality: seed 7, case 0: involution; module: ")
    assert line.endswith("; replay: slopelab selftest --seed 7 --cases 3")
    # The module text is case 0's input, drawn from the duality suite's rng.
    index = [check for check, _ in selftest.ALL_SUITES].index(selftest.check_dual)
    text = line.split("module: ")[1].split(";")[0]
    assert parse_and_eval(text) == random_formal_module(
        random.Random(7 * 1000003 + index))


def test_selftest_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "selftest", "--cases", "5", "--seed", "11",
                         "--json")
    code2, out2, _ = run(capsys, "selftest", "--cases", "5", "--seed", "11",
                         "--json")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical under a fixed seed
    data = json.loads(out1)
    assert data["ok"] is True and len(data["suites"]) == 12


def test_json_outputs_never_contain_floats(tmp_path, capsys):
    _, out, _ = run(capsys, "slopes", "-e", "El(2,u^-3,rank=1)", "--json")

    def no_floats(value):
        if isinstance(value, float):
            return False
        if isinstance(value, dict):
            return all(no_floats(v) for v in value.values())
        if isinstance(value, list):
            return all(no_floats(v) for v in value)
        return True

    assert no_floats(json.loads(out))
