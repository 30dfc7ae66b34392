"""CLI tests: subcommands, exit codes, JSON schema, determinism."""

import contextlib
import copy
import functools
import importlib
import io
import json
import operator
import os
import random
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slopelab
from slopelab import exact_algebra
from slopelab.cli import main
from slopelab.elementary import regular_module
from slopelab.errors import json_rat
from slopelab.expr import parse_and_eval
from slopelab.monomial_models import model_to_dict
from slopelab.randomgen import random_chain_script, random_formal_module, random_good_model


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


def test_nearby_json_without_cert(capsys):
    code, out, _ = run(capsys, "nearby", "-e", "El(2,u^-3,rank=1) + Reg(rank=1)",
                       "-p", "2", "--json")
    assert code == 0
    assert json.loads(out) == {
        "command": "nearby", "expr": "Reg(rank=1) + El(2, -u^-3, rank=1)",
        "nearby_slopes": ["0", "3/4"], "p": 2, "schema": "1"}


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

# A field value that drops its key from the document.
_DROP = object()


def _document(base, fields):
    # `base` with `fields` laid over it, or `fields` alone when it is no
    # object: the document a wrong-shape case writes.
    if not isinstance(fields, dict):
        return fields
    return {k: v for k, v in {**base, **fields}.items() if v is not _DROP}


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
    # Rational fields refuse them too, as a model's 'twist' entries do.
    ({"S": {"r": [0.1, "1"]}}, ("'S.r' entry", "0.1")),
    ({"S": {"r": ["1", True]}}, ("'S.r' entry", "true")),
    ({"S": {"r": ["abc", "1"]}}, ("'S.r' entry", '"abc"')),
    # A string in place of an array is refused, not read letter by letter.
    ({"Z": {"a": "11"}}, ("malformed script", "'Z.a' must be an array", '"11"')),
    ({"S": {"r": "20"}}, ("malformed script", "'S.r' must be an array", '"20"')),
    ({"mode": "abstract", "Z": {"a": [1, 1]}, "S": {"r": ["2", "0"]},
      "steps": [{"alpha": "11"}]},
     ("step 1", "'alpha' must be an array", '"11"')),
    ({"mode": "abstract", "steps": [{"alpha": [1, 0], "epsS": "1"}]},
     ("step 1", "'epsS' must be an array", '"1"')),
    ({"mode": "abstract", "steps": [{"alpha": [1, 1], "epsE": "0"}]},
     ("step 1", "'epsE' must be an array", '"0"')),
    ({"steps": [{"center": "D1"}]}, ("step 1", "'center' must be an array", '"D1"')),
    ({"steps": [{"center": [None, "D1"]}]},
     ("step 1", "'center' entry must be a component id string", "null")),
    ({"steps": [{"center": ["D1", 2]}]},
     ("step 1", "'center' entry must be a component id string", "2")),
    # Every array a string: read letter by letter, this ran as [1, 1], [2, 0], [1, 1].
    ({"mode": "abstract", "Z": {"a": "11"}, "S": {"r": "20"},
      "steps": [{"alpha": "11"}]}, ("'Z.a' must be an array",)),
    # Integer fields refuse strings that are no integer, naming the field as
    # 'S.r' does.
    ({"Z": {"a": ["abc", 1]}}, ("'Z.a' entry must be an integer, got \"abc\"",)),
    ({"mode": "abstract", "steps": [{"alpha": ["x", 0], "epsS": [1], "epsE": []}]},
     ("step 1", "'alpha' entry must be an integer, got \"x\"")),
    # A missing field, an object that is something else, or a script that is
    # no JSON object, is named, not reported in Python's words.
    ({"dim": _DROP}, ("malformed script", "the script has no 'dim' field")),
    ({"S": _DROP}, ("malformed script", "the script has no 'S' field")),
    ({"Z": {}}, ("malformed script", "'Z' has no 'a' field")),
    ({"Z": 5}, ("malformed script", "'Z' must be a JSON object, got 5")),
    ({"S": ["1", "1"]}, ("malformed script", "'S' must be a JSON object, got [\"1\", \"1\"]")),
    ([1, 2], ("malformed script", "the script must be a JSON object, got [1, 2]")),
    # Integer strings are a sign and ASCII digits only, as rational ones are.
    ({"Z": {"a": ["1_0", 1]}}, ("'Z.a' entry must be an integer, got \"1_0\"",)),
    ({"dim": "\u0662"}, ("'dim' must be an integer, got \"\\u0662\"",)),
])
def test_blowup_wrong_shape_json_exits_1(tmp_path, capsys, fields, words):
    script = tmp_path / "s.blowup"
    script.write_text(json.dumps(_document({**_SCRIPT, "steps": []}, fields)))
    code, _, err = run(capsys, "blowup", "-s", str(script), "--verify")
    assert_clean_error(code, err, *words)


# The refusals of the starting configuration, each reached from a script.
@pytest.mark.parametrize("fields, message", [
    ({"mode": "polar"}, "mode must be 'toric' or 'abstract', got 'polar'"),
    ({"dim": 0, "Z": {"a": []}, "S": {"r": []}}, "dimension must be >= 1, got 0"),
    ({"Z": {"a": [1]}}, "Z and S multiplicity vectors must have length dim"),
    ({"Z": {"a": [1, -1]}}, "multiplicities must be nonnegative"),
    ({"Z": {"a": [0, 0]}}, "Z must be a nonempty divisor (some a_i > 0)"),
], ids=["mode", "dim", "length", "negative", "Z-zero"])
def test_blowup_initial_state_refusals_exit_1(tmp_path, capsys, fields, message):
    script = tmp_path / "s.blowup"
    script.write_text(json.dumps({**_SCRIPT, "steps": [], **fields}))
    code, _, err = run(capsys, "blowup", "-s", str(script), "--verify")
    assert_clean_error(code, err, message)


# A rational string is a sign, digits and an optional /digits.  Fraction()
# also reads decimals, underscores and exponents: "1e10000000" cost seconds
# of CPU, and "1e5000" printed "step 1: ok" before failing.  Each is refused
# before any step or table is printed.
@pytest.mark.parametrize("text", ["1e10000000", "1e5", "0.5", "1_0",
                                  "\u0662", "1/\u0662", "\u00b2"])
def test_blowup_refuses_other_numeric_strings_at_once(tmp_path, capsys, text):
    script = tmp_path / "s.blowup"
    script.write_text(json.dumps({**_SCRIPT, "S": {"r": [text, "1"]},
                                  "steps": [{"center": ["D1", "D2"]}]}))
    code, out, err = run(capsys, "blowup", "-s", str(script), "--verify")
    assert out == ""
    assert_clean_error(code, err, f"'S.r' entry must be an integer or a rational "
                                  f"string, got {json.dumps(text)}")


def test_json_rat_reads_signed_fractions_and_integers():
    assert json_rat(" -3/4 ", "'S.r' entry") == Fraction(-3, 4)
    assert json_rat("7", "'S.r' entry") == 7
    assert json_rat("+12/8", "'S.r' entry") == Fraction(3, 2)


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
    ({"factors": [{"pole": [1, 0], "twist": ["x", "0"]}]},
     ("factor 0", "'twist' entry", '"x"')),
    ({"factors": [{"pole": [1, 0], "twist": ["0", "abc"]}]},
     ("factor 0", "'twist' entry", '"abc"')),
    # A string in place of an array is refused, not read digit by digit.
    ({"factors": [{"pole": "12"}]}, ("factor 0", "'pole' must be an array", '"12"')),
    ({"factors": [{"pole": [1, 0], "twist": "00"}]},
     ("factor 0", "'twist' must be an array", '"00"')),
    # Integer fields refuse strings that are no integer, naming the field.
    ({"dim": "two"}, ("'dim' must be an integer, got \"two\"",)),
    ({"factors": [{"pole": ["x", 1]}]},
     ("factor 0: 'pole' entry must be an integer, got \"x\"",)),
    ({"factors": [{"pole": [1, 0], "rank": "1.5"}]},
     ("factor 0: 'rank' must be an integer, got \"1.5\"",)),
    # Shape errors found once the factor is built name the factor too.
    ({"factors": [{"pole": [1, 0, 3]}]},
     ("factor 0", "twist and pole must have the same dimension")),
    ({"factors": [{"pole": [1, 0]}, {"pole": [1, 0, 3], "twist": [0, 0, 0]}]},
     ("factor 1", "does not match the model")),
    ({"factors": [{"pole": [1, 0], "rank": 0}]}, ("factor 0", "rank must be >= 1, got 0")),
    # A missing field, or a file that is no JSON object, is named, not
    # reported in Python's words.
    ({"dim": _DROP}, ("the model has no 'dim' field",)),
    ({"factors": _DROP}, ("the model has no 'factors' field",)),
    ({"factors": [{"twist": [0, 0]}]}, ("factor 0: the factor has no 'pole' field",)),
    ([{"dim": 2}], ("the model must be a JSON object, got [{\"dim\": 2}]",)),
    ("2", ("the model must be a JSON object, got \"2\"",)),
    # Rational strings are a sign, digits and an optional /digits only.
    ({"factors": [{"pole": [1, 0], "twist": ["1e5", "0"]}]},
     ("factor 0", "'twist' entry", '"1e5"')),
    # Integer strings are a sign and ASCII digits only: int() reads "1_0" as
    # 10 and "\u0662" (Arabic-Indic two) as 2.  A string of more than 4300
    # digits is refused with the same message.
    ({"dim": "1_0"}, ("'dim' must be an integer, got \"1_0\"",)),
    ({"factors": [{"pole": ["\u0662", 0]}]},
     ("factor 0: 'pole' entry must be an integer, got \"\\u0662\"",)),
    ({"factors": [{"pole": [1, 0], "rank": "\u00b2"}]},
     ("factor 0: 'rank' must be an integer, got \"\\u00b2\"",)),
    ({"factors": [{"pole": ["1" * 4301, 0]}]},
     ("factor 0: 'pole' entry must be an integer, got \"1111",)),
])
def test_bound_wrong_shape_json_exits_1(tmp_path, capsys, fields, words):
    model = tmp_path / "m.model"
    model.write_text(json.dumps(_document({"dim": 2, "factors": [{"pole": [1, 0]}]}, fields)))
    code, _, err = run(capsys, "bound", "-m", str(model), "-f", "x1")
    assert_clean_error(code, err, *words)


# A monomial's index and exponent are ASCII digits: a regular expression's
# \d also matches other scripts' digits, which int() reads.
@pytest.mark.parametrize("function", ["x\u0661*x\u0662", "x1^\u0662", "x\u00b2"])
def test_bound_refuses_monomials_in_other_digits(tmp_path, capsys, function):
    model = tmp_path / "m.model"
    model.write_text(json.dumps({"dim": 2, "factors": [{"pole": [1, 0]}]}))
    code, out, err = run(capsys, "bound", "-m", str(model), "-f", function)
    assert_clean_error(code, err, "bad monomial token")
    assert out == ""


# Expression integers are ASCII digits: El(\u0661,u^-\u0663,rank=1) read as
# El(1, u^-3, rank=1), and a superscript digit reached int() and printed its
# bare message.
@pytest.mark.parametrize("text, column", [("El(\u0661,u^-\u0663,rank=1)", 4),
                                          ("El(\u00b2,u^-1,rank=1)", 4),
                                          ("El(1,u^-1,rank=\u0661)", 16)])
def test_expressions_refuse_other_digits(capsys, text, column):
    code, out, err = run(capsys, "nearby", "-e", text, "-p", "1")
    assert_clean_error(code, err, f"unexpected character {text[column - 1]!r} "
                                  f"at line 1, column {column}")
    assert out == ""


def test_integer_fields_take_numeric_strings(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text(json.dumps({"dim": "2", "factors": [{"pole": ["1", 0]}]}))
    assert run(capsys, "bound", "-m", str(model), "-f", "x1")[0] == 0
    script = tmp_path / "s.blowup"
    script.write_text(json.dumps({**_SCRIPT, "dim": "2", "Z": {"a": ["1", 1]},
                                  "steps": []}))
    assert run(capsys, "blowup", "-s", str(script), "--verify")[0] == 0


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
    # The witness meets the second factor, whose u^-1 ratio zeta(3)^2 sends
    # the discrete log past the d == -c shortcut into the search at L = 1200.
    pytest.param(("nearby", "-e",
                  "El(1,u^-2 + u^-1,rank=1) + El(1,u^-2 + zeta(3)*u^-1,rank=1)",
                  "-p", "1200", "--cert"),
                 "nearby slopes along x^1200: 1/600\n"
                 "  slope 1/600: witness El(1200, -u^-2 - u^-1, rank=1) gives "
                 "nearby-cycle dimension 1200\n"
                 "  certified absent (ram <= 12, pole order <= 24): 182 slopes, "
                 "762 twists checked\n",
                 id="nearby-root-log-search-p1200"),
    # A root of unity spread over 2002 coordinates: -1 - zeta(2003) - ...
    # - zeta(2003)^2001 = zeta(2003)^2002.  Its orbit under zeta(4) mostly
    # lies in Q(zeta_8012), so only the two residues left in Q(zeta_2003) are
    # built.
    pytest.param(("slopes", "-e", "El(4, zeta(2003)^2002*u^-3, rank=1)"),
                 "expr: El(4, ("
                 + " - ".join(["-1", "zeta(2003)"]
                              + [f"zeta(2003)^{k}" for k in range(2, 2002)])
                 + ")*u^-3, rank=1)\nrank: 4\nslopes: 3/4:4\nirregularity: 3\n",
                 id="slopes-spread-root-zeta2003"),
    # The witness meets the zeta(401) factor, whose u^-1 ratio is a root of
    # unity of Q(zeta_401): its log modulo 802 comes in closed form.
    pytest.param(("nearby", "-e",
                  "El(1,u^-2 + u^-1,rank=1) + El(1,u^-2 + zeta(401)*u^-1,rank=1)",
                  "-p", "802", "--cert"),
                 "nearby slopes along x^802: 1/401\n"
                 "  slope 1/401: witness El(802, -u^-2 - u^-1, rank=1) gives "
                 "nearby-cycle dimension 802\n"
                 "  certified absent (ram <= 12, pole order <= 24): 182 slopes, "
                 "762 twists checked\n",
                 id="nearby-root-log-closed-form-p802"),
    # Large covers: the orbit minimum compares roots of unity of Q(zeta_2000)
    # and Q(zeta_4000) by closed-form keys and builds only the winner.
    pytest.param(("slopes", "-e", "push(2000, El(1,u^-1,rank=1))"),
                 "expr: El(2000, -u^-1, rank=1)\nrank: 2000\nslopes: 1/2000:2000\n"
                 "irregularity: 1\n",
                 id="slopes-push-2000"),
    pytest.param(("slopes", "-e", "El(2000,u^-1 + u^-2,rank=1)"),
                 "expr: El(2000, -u^-2 - zeta(4)*u^-1, rank=1)\nrank: 2000\n"
                 "slopes: 1/1000:2000\nirregularity: 2\n",
                 id="slopes-two-terms-2000"),
    pytest.param(("nearby", "-e", "El(1,u^-1,rank=1)", "-p", "4000", "--cert"),
                 "nearby slopes along x^4000: 1/4000\n"
                 "  slope 1/4000: witness El(4000, -u^-1, rank=1) gives "
                 "nearby-cycle dimension 4000\n"
                 "  certified absent (ram <= 12, pole order <= 24): 182 slopes, "
                 "762 twists checked\n",
                 id="nearby-cert-p4000"),
])
def test_high_conductor_stdout_is_pinned(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected


def test_large_cover_leaves_no_root_per_residue_in_the_caches(capsys):
    # El(2000) has 2000 residues; the orbit minimum reads their keys in
    # closed form, so the root caches gain a few entries, not one per residue.
    caches = (exact_algebra._zeta_pow, exact_algebra._zeta_power_coords)
    importlib.import_module("slopelab.elementary")._galois_canonical.cache_clear()
    for cache in caches:
        cache.cache_clear()
    code, out, _ = run(capsys, "slopes", "-e", "El(2000,u^-1,rank=1)")
    assert code == 0 and "expr: El(2000, -u^-1, rank=1)" in out
    assert max(cache.cache_info().currsize for cache in caches) <= 4, \
        [cache.cache_info() for cache in caches]


def _loaded_layers(code):
    # The slopelab modules loaded after running `code` in a fresh interpreter.
    script = (f"import sys\n{code}\n"
              "print(' '.join(sorted(m for m in sys.modules if m.startswith('slopelab'))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(slopelab.__file__)), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


_OTHER_LAYERS = {f"slopelab.{layer}" for layer in
                 ("blowup", "selftest", "randomgen", "monomial_models", "newton_polygon")}


@pytest.mark.parametrize("argv", [
    ["slopes", "-e", "El(3,u^-2,rank=1)"],
    ["nearby", "-e", "El(2,u^-3,rank=1)", "-p", "2", "--cert"],
])
def test_one_variable_queries_load_no_other_layer(argv):
    loaded = _loaded_layers(
        "import runpy\n"
        f"sys.argv = ['slopelab', *{argv!r}]\n"
        "try:\n    runpy.run_module('slopelab', run_name='__main__')\n"
        "except SystemExit as done:\n    assert done.code == 0, done.code")
    assert "slopelab.elementary" in loaded and not loaded & _OTHER_LAYERS, loaded


# Every name the package exported when it imported all its layers eagerly,
# the two multivariate modules among them.
_EXPORTS = """
    ElementaryModule FormalModule RegularPart certify_nearby_slopes dual elementary
    irregularity is_regular make_elementary nearby_slopes psi_dim pullback pushforward
    regular_module slopes tensor witness_twist ExpressionError FalsificationError
    ScriptError SlopelabError CycloRat MultiIndex RamifiedExponent module_to_expr
    parse_and_eval parse_module GenericSlopeDivisor GoodModel ModelFactor MonomialFunction
    curve_restriction highest_generic_slopes lemma_vanishing nearby_slope_bound
    vanishing_threshold slopes_from_operator __version__ exact_algebra errors expr
    monomial_models newton_polygon
""".split()


def test_every_exported_name_still_imports():
    loaded = _loaded_layers(
        "import slopelab\n"
        "assert 'slopelab.monomial_models' not in sys.modules\n"
        f"for name in {_EXPORTS!r}:\n    getattr(slopelab, name)\n"
        "from slopelab import GoodModel, slopes_from_operator\n"
        "assert slopelab.monomial_models.GoodModel is GoodModel\n"
        "assert slopes_from_operator.__module__ == 'slopelab.newton_polygon'\n"
        "try:\n    slopelab.missing\nexcept AttributeError:\n    pass\n"
        "else:\n    raise AssertionError('slopelab.missing')")
    assert {"slopelab.monomial_models", "slopelab.newton_polygon"} <= loaded


_EXPR = "El(1,u^-1,rank=1)"


@pytest.mark.parametrize("argv, option", [
    (("nearby", "-e", _EXPR, "-p", "\u0662"), "-p"),
    (("nearby", "-e", _EXPR, "-p", "1_0"), "-p"),
    (("nearby", "-e", _EXPR, "-p", "2.0"), "-p"),
    (("nearby", "-e", _EXPR, "-p", "2", "--cert", "--ram-bound", "1_2"), "--ram-bound"),
    (("nearby", "-e", _EXPR, "-p", "2", "--cert", "--ord-bound", "\u0662\u0664"),
     "--ord-bound"),
    (("selftest", "--cases", "\u0663"), "--cases"),
    (("selftest", "--cases", "1", "--seed", "\u0663"), "--seed"),
    (("selftest", "--cases", "1", "--seed", "0x7"), "--seed"),
])
def test_integer_options_take_ascii_digits_only(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"usage error: argument {option}: must be an integer in "
                          "ASCII digits, got "), err


@pytest.mark.parametrize("seed", ["\u0667", "1_0", " 7x"])
def test_selftest_env_seed_takes_ascii_digits_only(capsys, monkeypatch, seed):
    monkeypatch.setenv("SLOPELAB_SEED", seed)
    code, out, err = run(capsys, "selftest", "--cases", "1")
    assert code == 1 and out == ""
    assert err == f"error: SLOPELAB_SEED must be an integer, got {seed!r}\n"


def test_integer_options_take_a_sign_and_surrounding_spaces(capsys):
    code, out, _ = run(capsys, "nearby", "-e", _EXPR, "-p", " +2 ")
    assert code == 0 and out == "nearby slopes along x^2: 1/2\n"


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


def test_selftest_env_seed_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("SLOPELAB_SEED", "abc")
    code, out, err = run(capsys, "selftest", "--cases", "1")
    assert code == 1 and out == ""
    assert err == "error: SLOPELAB_SEED must be an integer, got 'abc'\n"


def test_selftest_failure_is_replayable(capsys, monkeypatch):
    # A "dual" that adds a summand breaks the involution on every case.
    selftest = importlib.import_module("slopelab.selftest")
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


def test_selftest_certificate_failure_carries_one_replay(capsys, monkeypatch):
    # Inside the certificate only, witness twists measure 0: the
    # certificate of every nonzero module fails.
    elementary_module = sys.modules["slopelab.elementary"]
    selftest = importlib.import_module("slopelab.selftest")
    certify = selftest.certify_nearby_slopes

    def failing_certificate(*args, **kwargs):
        with monkeypatch.context() as patched:
            patched.setattr(elementary_module, "_twisted_dim", lambda *_: 0)
            return certify(*args, **kwargs)

    monkeypatch.setattr(selftest, "certify_nearby_slopes", failing_certificate)
    code, out, err = run(capsys, "selftest", "--cases", "3", "--seed", "7")
    assert code == 2 and "FALSIFICATION" in err
    line = next(s for s in out.splitlines() if "certificate:" in s).strip()
    assert line.startswith("nearby-cycles: seed 7, case 0: certificate: witness ")
    assert line.count("module: ") == 1 and line.count("replay:") == 1
    assert line.endswith("; replay: slopelab selftest --seed 7 --cases 3")
    index = [check for check, _ in selftest.ALL_SUITES].index(
        selftest.check_nearby_cycles)
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


# ---------------------------------------------------------------------------
# Exit-code property over the JSON inputs of `bound -m` and `blowup -s`.
# ---------------------------------------------------------------------------

# Values a hand-edited file may hold: small ints, strings that are no
# rational, floats, booleans, null, and nested lists or objects.
_JUNK = st.recursive(
    st.one_of(st.integers(-2, 4), st.sampled_from(["1/0", "x", "1/2", "2", ""]),
              st.floats(), st.booleans(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["a", "r", "pole", "center"]), inner,
                        max_size=2)),
    max_leaves=5)


def _paths(node, path=()):
    # The path of every value in a JSON document, the root's included.
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


@st.composite
def _mutated(draw, doc):
    # Up to three values of a valid document replaced by junk, or their keys
    # deleted, so that every depth of the reader meets bad input.
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(_JUNK)
        if not path:
            doc = value
            continue
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            code = exc.code
        except Exception:  # an escape is a traceback at the console
            code, err = None, io.StringIO(traceback.format_exc())
    return code, err.getvalue()


# The documents start valid: seeded models of dimension <= 4 and blow-up
# scripts of at most 6 steps, so that no drawn input is costly.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(["bound", "blowup"]), seed=st.integers(0, 2**32),
       as_json=st.booleans(), data=st.data())
def test_json_inputs_exit_0_1_or_2_with_a_message(command, seed, as_json, data):
    rng = random.Random(seed)
    if command == "bound":
        doc = model_to_dict(random_good_model(rng, max_dim=4))
        flags = ["-f", data.draw(st.sampled_from(["x1", "x1*x2", "x2^2", "x1*x3*x4",
                                                  "x5", "y"]))]
    else:
        doc = random_chain_script(rng, max_dim=4, max_steps=6)
        flags = data.draw(st.sampled_from([[], ["--verify"]]))
    payload = data.draw(_mutated(doc))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        argv = [command, "-m" if command == "bound" else "-s", path, *flags]
        code, err = _run_in_process(argv + (["--json"] if as_json else []))
    assert "Traceback" not in err, (argv, payload, err)
    assert code in (0, 1, 2), (argv, payload, code)
    assert code == 0 or err.strip(), (argv, payload)
