"""Write tests/golden/cli.json: argv, stdout, stderr and exit code of a fixed
set of `slopelab` commands, run in process through `cli.main`.

    PYTHONPATH=src python tests/write_golden_cli.py

`test_golden_cli.py` replays every entry and compares all four fields, so
a change that moves an output byte shows as a diff of this file.  An entry
with a "file" field writes that text to a file and passes its path where
the argv says "{file}".  Rewrite the file only for a change that means to
move output.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile

GOLDEN = pathlib.Path(__file__).with_name("golden") / "cli.json"

CI_MODEL = {"dim": 2, "factors": [{"pole": [2, 3]}]}
README_MODEL = {"schema": "1", "dim": 2,
                "factors": [{"pole": [2, 3], "twist": ["1/2", "0"], "rank": 1}]}
# ROADMAP item 1: the pole support leaves supp(f) for f = x1*x3.
ITEM_1_MODEL = {"dim": 3, "factors": [{"pole": [1, 2, 1]}]}

CI_CHAIN = {"dim": 2, "mode": "toric", "Z": {"a": [1, 1]}, "S": {"r": ["2", "3"]},
            "steps": [{"center": ["D1", "D2"]}, {"center": ["D1", "E1"]}]}
README_CHAIN = {"schema": "1", "dim": 2, "mode": "toric",
                "Z": {"a": [1, 1]}, "S": {"r": ["2", "3"]},
                "steps": [{"center": ["D1", "D2"]}, {"center": ["E1", "D1"]}]}
ABSTRACT_CHAIN = {"dim": 3, "mode": "abstract", "Z": {"a": [1, 2, 0]},
                  "S": {"r": ["1/2", "0", "3"]},
                  "steps": [{"alpha": [1, 0], "epsS": [1], "epsE": []},
                            {"alpha": [0, 2], "epsS": [0], "epsE": [1]}]}
MIXED_CHAIN = {"dim": 3, "mode": "toric", "Z": {"a": [1, 1, 0]},
               "S": {"r": ["1/3", "1/4", "5/6"]},
               "steps": [{"center": ["D1", "D2"]}, {"center": ["D1", "E1"]},
                         {"center": ["D2", "D3", "E1"]}]}
# Step 2 is refused: after {D1, D2} is subdivided it is no longer a cone.
REFUSED_CHAIN = {"dim": 2, "mode": "toric", "Z": {"a": [1, 1]}, "S": {"r": ["2", "3"]},
                 "steps": [{"center": ["D1", "D2"]}, {"center": ["D1", "D2"]}]}

NEARBY_EXPRESSIONS = (
    "El(1,u^-3,rank=1)",
    "El(2,u^-3,rank=1) + El(3,u^-2,rank=2)",
    "El(3,u^-2 + zeta(4)*u^-1,rank=1) + Reg(rank=1, exp=[1/2])",
    "dual(El(2,u^-5,rank=1)) + push(2, El(1,u^-1,rank=1))",
    "tensor(El(2,u^-1,rank=1), El(3,u^-1,rank=1))",
)


def _cases() -> list[dict]:
    def cmd(*argv, file=None):
        case = {"argv": list(argv)}
        if file is not None:
            case["file"] = json.dumps(file)
        return case

    cases = [
        # The CI smoke commands.
        cmd("slopes", "-e", "El(1,u^-3,rank=1)"),
        cmd("selftest", "--cases", "10", "--seed", "7"),
        cmd("slopes", "-e", "tensor(El(600,u^-1,rank=1), El(600,u^-1,rank=1)) +"),
        cmd("nearby", "-e", "El(600,u^-1,rank=1)", "-p", "2", "--cert"),
        cmd("nearby", "-e", "El(1200,u^-1,rank=1)", "-p", "2", "--cert"),
        cmd("nearby", "-e", "El(1,u^-2 + u^-1,rank=1) + El(1,u^-2 + zeta(3)*u^-1,rank=1)",
            "-p", "1200", "--cert"),
        cmd("nearby", "-e", "El(1,u^-2 + u^-1,rank=1) + El(1,u^-2 + zeta(401)*u^-1,rank=1)",
            "-p", "802", "--cert"),
        cmd("slopes", "-e", "El(4, zeta(2003)^2002*u^-3, rank=1)"),
        cmd("slopes", "-e", "El(2, (1 + zeta(2003))*u^-1, rank=1)"),
        cmd("slopes", "-e", "El(8000,u^-1,rank=1)"),
        cmd("slopes", "-e", "push(8000, El(1,u^-1,rank=1))"),
        cmd("nearby", "-e", "El(1,u^-1,rank=1)", "-p", "8000", "--cert"),
        cmd("nearby", "-e", "El(2,u^-3,rank=1)", "-p", "1", "--cert",
            "--ram-bound", "60", "--ord-bound", "120"),
        cmd("bound", "-m", "{file}", "-f", "x1*x2", file=CI_MODEL),
        cmd("blowup", "-s", "{file}", "--verify", file=CI_CHAIN),
        cmd("blowup", "-s", "{file}", "--verify", "--json", file=CI_CHAIN),
        # The README examples.
        cmd("nearby", "-e", "El(1,u^-3,rank=1)", "-p", "2"),
        cmd("nearby", "-e", "El(2,u^-3,rank=1)", "-p", "1", "--cert"),
        cmd("bound", "-m", "{file}", "-f", "x1*x2", file=README_MODEL),
        cmd("blowup", "-s", "{file}", "--verify", file=README_CHAIN),
        cmd("selftest", "--cases", "60", "--seed", "7"),
        # Bound on two models, text and JSON; item 1's model exits 2 until
        # that item is fixed.
        cmd("bound", "-m", "{file}", "-f", "x1*x2^2", "--json", file=CI_MODEL),
        cmd("bound", "-m", "{file}", "-f", "x1*x3", file=ITEM_1_MODEL),
        cmd("bound", "-m", "{file}", "-f", "x1*x3", "--json", file=ITEM_1_MODEL),
        cmd("bound", "-m", "{file}", "-f", "x2", file=ITEM_1_MODEL),
        # Selftest.
        cmd("selftest", "--cases", "40", "--seed", "3", "--json"),
        # One refusal per error class: parse, JSON field, usage.
        cmd("slopes", "-e", "El(1,u^-3,rank=1"),
        cmd("blowup", "-s", "{file}", file={**CI_CHAIN, "Z": {"a": "11"}}),
        cmd("nearby", "-e", "El(1,u^-3,rank=1)", "-p", "0"),
        cmd("nearby", "-e", "El(1,u^-3,rank=1)", "-p", "1_0"),
    ]
    for expr in NEARBY_EXPRESSIONS:
        for p in ("1", "2", "3"):
            for flags in ((), ("--json",), ("--cert",), ("--cert", "--json")):
                cases.append(cmd("nearby", "-e", expr, "-p", p, *flags))
    for chain in (CI_CHAIN, ABSTRACT_CHAIN, MIXED_CHAIN, REFUSED_CHAIN):
        for flags in ((), ("--json",), ("--verify",), ("--verify", "--json")):
            cases.append(cmd("blowup", "-s", "{file}", *flags, file=chain))
    return cases


def materialize(case: dict, directory: pathlib.Path) -> list[str]:
    """The argv of `case`, with its file written under `directory`."""
    if "file" not in case:
        return list(case["argv"])
    path = directory / "input.json"
    path.write_text(case["file"], encoding="utf-8")
    return [str(path) if word == "{file}" else word for word in case["argv"]]


def _record(case: dict) -> dict:
    from slopelab.cli import main
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = materialize(case, pathlib.Path(tmp))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert tmp not in out.getvalue() + err.getvalue(), case
    return {**case, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def main() -> None:
    entries = [_record(case) for case in _cases()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
