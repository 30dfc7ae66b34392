"""Command-line front end.

Exit codes: 0 success; 1 usage, parse, or file errors; 2 a checked property
or verification failed (so CI can tell falsification from misuse).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from slopelab import blowup as blowup_mod
from slopelab import randomgen
from slopelab.elementary import (
    DEFAULT_ORD_BOUND,
    DEFAULT_RAM_BOUND,
    certify_nearby_slopes,
    irregularity,
    is_regular,
    nearby_slopes,
    slopes,
)
from slopelab.errors import ExpressionError, FalsificationError, ScriptError
from slopelab.exact_algebra import MultiIndex
from slopelab.expr import module_to_expr, parse_and_eval
from slopelab.monomial_models import (
    GoodModel,
    MonomialFunction,
    curve_restriction,
    highest_generic_slopes,
    lemma_vanishing,
    load_model,
    nearby_slope_bound,
    vanishing_threshold,
)
from slopelab.selftest import run_selftest

SCHEMA = "1"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="slopelab",
                     description="Exact slope invariants for formal "
                                 "meromorphic differential modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_slopes = sub.add_parser("slopes", help="slope multiset of an expression")
    p_slopes.add_argument("-e", "--expr", required=True)
    p_slopes.add_argument("--json", action="store_true")

    p_nearby = sub.add_parser("nearby", help="nearby slopes along x^p")
    p_nearby.add_argument("-e", "--expr", required=True)
    p_nearby.add_argument("-p", type=int, required=True)
    p_nearby.add_argument("--cert", action="store_true",
                          help="emit witness and exhaustion certificates")
    p_nearby.add_argument("--ram-bound", type=int, default=DEFAULT_RAM_BOUND)
    p_nearby.add_argument("--ord-bound", type=int, default=DEFAULT_ORD_BOUND)
    p_nearby.add_argument("--json", action="store_true")

    p_bound = sub.add_parser("bound", help="bounds for a monomial good model")
    p_bound.add_argument("-m", "--model", required=True,
                         help="model file (JSON)")
    p_bound.add_argument("-f", "--function", required=True,
                         help="monomial, e.g. 'x1*x2^3'")
    p_bound.add_argument("--json", action="store_true")

    p_blow = sub.add_parser("blowup", help="run a blow-up script")
    p_blow.add_argument("-s", "--script", required=True,
                        help="script file (JSON)")
    p_blow.add_argument("--verify", action="store_true",
                        help="check the multiplicity inequality after every step")
    p_blow.add_argument("--json", action="store_true")

    p_self = sub.add_parser("selftest", help="run the property-test suites")
    p_self.add_argument("--cases", type=int, default=40)
    p_self.add_argument("--seed", type=int, default=None)
    p_self.add_argument("--json", action="store_true")

    return parser


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _parse_monomial(text: str, dim: int) -> MonomialFunction:
    entries = [0] * dim
    for token in text.replace(" ", "").split("*"):
        match = re.fullmatch(r"x([0-9]+)(?:\^([0-9]+))?", token)
        if not match:
            raise ScriptError(f"bad monomial token {token!r}; expected x<i>[^<e>]")
        index = int(match.group(1))
        if not 1 <= index <= dim:
            raise ScriptError(f"coordinate x{index} outside dimension {dim}")
        entries[index - 1] += int(match.group(2) or 1)
    return MonomialFunction(entries)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _cmd_slopes(args) -> int:
    module = parse_and_eval(args.expr)
    multiset = slopes(module)
    if args.json:
        _emit_json({
            "schema": SCHEMA, "command": "slopes",
            "expr": module_to_expr(module),
            "rank": module.rank,
            "slopes": [[str(s), mult] for s, mult in multiset.items()],
            "irregularity": str(irregularity(module)),
            "regular": is_regular(module),
        })
        return 0
    print(f"expr: {module_to_expr(module)}")
    print(f"rank: {module.rank}")
    body = " ".join(f"{s}:{mult}" for s, mult in multiset.items()) or "(empty)"
    print(f"slopes: {body}")
    print(f"irregularity: {irregularity(module)}")
    return 0


def _cmd_nearby(args) -> int:
    if args.p < 1:
        raise _UsageError("-p must be >= 1")
    module = parse_and_eval(args.expr)
    cert = (certify_nearby_slopes(module, args.p, ram_bound=args.ram_bound,
                                  ord_bound=args.ord_bound) if args.cert else None)
    found = sorted(cert.slopes if cert else nearby_slopes(module, args.p))
    if args.json:
        payload = {"schema": SCHEMA, "command": "nearby", "p": args.p,
                   "expr": module_to_expr(module),
                   "nearby_slopes": [str(s) for s in found]}
        if cert:
            payload["certificate"] = {
                "ram_bound": cert.ram_bound,
                "ord_bound": cert.ord_bound,
                "members": [
                    {"slope": str(w.slope),
                     "witness": module_to_expr(w.twist),
                     "psi_dim": w.psi_dimension}
                    for w in cert.members],
                "nonmembers": [
                    {"slope": str(rec.slope),
                     "twists_checked": rec.twists_checked}
                    for rec in cert.nonmembers],
            }
        _emit_json(payload)
        return 0
    print(f"nearby slopes along x^{args.p}: "
          + (", ".join(map(str, found)) or "(empty)"))
    if cert:
        for w in cert.members:
            print(f"  slope {w.slope}: witness {module_to_expr(w.twist)} "
                  f"gives nearby-cycle dimension {w.psi_dimension}")
        total = sum(rec.twists_checked for rec in cert.nonmembers)
        print(f"  certified absent (ram <= {cert.ram_bound}, pole order <= "
              f"{cert.ord_bound}): {len(cert.nonmembers)} slopes, "
              f"{total} twists checked")
    return 0


_SPOT_CURVES = ((1, 1, 1, 1), (1, 2, 1, 2), (2, 1, 3, 1), (3, 1, 1, 2))


def _curve_checks(model: GoodModel, f: MonomialFunction, threshold) -> list[dict]:
    checks = []
    for base in _SPOT_CURVES:
        curve = MultiIndex(base[i % len(base)] for i in range(model.dim))
        restricted, k = curve_restriction(model, curve, f)
        near = sorted(nearby_slopes(restricted, k))
        top = max(near, default=Fraction(0))
        checks.append({
            "curve": list(curve.entries),
            "k": k,
            "restricted_slopes": [[str(s), m] for s, m in slopes(restricted).items()],
            "nearby_slopes": [str(s) for s in near],
            "max_nearby": str(top),
            "within_threshold": top <= threshold.value,
        })
    return checks


def _cmd_bound(args) -> int:
    model = load_model(args.model)
    f = _parse_monomial(args.function, model.dim)
    div = highest_generic_slopes(model)
    bound = nearby_slope_bound(model)
    threshold = vanishing_threshold(model, f)
    zero = MultiIndex((0,) * model.dim)
    verdicts = []
    for idx, factor in enumerate(model.factors):
        absorbed = lemma_vanishing(zero, factor.pole, f)
        dominated = lemma_vanishing(factor.pole, f.exponents, f)
        verdicts.append({
            "factor": idx,
            "pole": list(factor.pole.entries),
            "untwisted": absorbed.value if absorbed else "unknown",
            "against_twist_along_f": dominated.value if dominated else "unknown",
        })
    checks = _curve_checks(model, f, threshold)
    ok = all(c["within_threshold"] for c in checks) or not threshold.criterion_applicable
    if args.json:
        _emit_json({
            "schema": SCHEMA, "command": "bound",
            "dim": model.dim,
            "function": list(f.exponents.entries),
            "generic_slopes": [str(w) for w in div.weights],
            "bound": str(bound),
            "threshold": str(threshold.value),
            "criterion_applicable": threshold.criterion_applicable,
            "lemma_verdicts": verdicts,
            "curve_checks": checks,
            "ok": ok,
        })
    else:
        print(f"generic slopes: ({', '.join(map(str, div.weights))})")
        print(f"nearby-slope bound (sum): {bound}")
        applicability = "" if threshold.criterion_applicable \
            else "  [criterion inapplicable: div f leaves the pole locus]"
        print(f"vanishing threshold along f: {threshold.value}{applicability}")
        for v in verdicts:
            print(f"factor {v['factor']} pole {tuple(v['pole'])}: "
                  f"untwisted={v['untwisted']}, "
                  f"twist-along-f={v['against_twist_along_f']}")
        for c in checks:
            mark = "ok" if c["within_threshold"] else "VIOLATION"
            print(f"curve {tuple(c['curve'])}: f pulls back to t^{c['k']}, "
                  f"nearby slopes {{{', '.join(c['nearby_slopes'])}}} "
                  f"max {c['max_nearby']} <= {threshold.value}: {mark}")
    if not ok:
        raise FalsificationError(
            "a curve restriction exceeded the vanishing threshold on its "
            "applicability domain")
    return 0


def _cmd_blowup(args) -> int:
    state = blowup_mod.replay(blowup_mod.load_script(args.script))
    final = blowup_mod.verify_inequality(state)
    # Rows never change, so the state after step i is the first dim + i rows
    # of the final one, and step i holds iff none of those is violated.
    ids = [c.id for c in state.components]
    first_bad = min(map(ids.index, final.violations), default=len(ids))
    step_reports = [(i, state.dim + i <= first_bad)
                    for i in range(1, state.steps_applied + 1)]
    if args.json:
        payload = blowup_mod.report_to_dict(final)
        payload.update({"command": "blowup", "steps": state.steps_applied,
                        "mode": state.mode})
        if args.verify:
            payload["per_step"] = [{"step": i, "ok": ok} for i, ok in step_reports]
        _emit_json(payload)
    else:
        if args.verify:
            for idx, ok in step_reports:
                print(f"step {idx}: {'ok' if ok else 'INEQUALITY VIOLATED'}")
        print(blowup_mod.report_to_text(final))
    if not final.ok:
        raise FalsificationError(
            "multiplicity inequality violated at "
            + ", ".join(final.violations))
    return 0


def _cmd_selftest(args) -> int:
    if args.cases < 1:
        raise _UsageError("--cases must be >= 1")
    seed = args.seed
    if seed is None:
        env = os.environ.get("SLOPELAB_SEED", randomgen.DEFAULT_SEED)
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"SLOPELAB_SEED must be an integer, got {env!r}") from None
    results = run_selftest(seed=seed, cases=args.cases)
    ok = all(r.ok for r in results)
    if args.json:
        _emit_json({
            "schema": SCHEMA, "command": "selftest", "seed": seed,
            "cases": args.cases, "ok": ok,
            "suites": [
                {"name": r.name, "cases": r.cases, "ok": r.ok,
                 "failures": list(r.failures),
                 "notes": dict(sorted(r.notes.items()))}
                for r in results],
        })
    else:
        print(f"seed {seed}, {args.cases} cases per suite")
        for r in results:
            extra = "".join(f" [{k}={v}]" for k, v in sorted(r.notes.items()))
            print(f"{'ok  ' if r.ok else 'FAIL'} {r.name}{extra}")
            for failure in r.failures:
                print(f"      {failure}")
        print("selftest: " + ("all suites passed" if ok else "FAILURES above"))
    if not ok:
        raise FalsificationError("selftest found violated invariants")
    return 0


_COMMANDS = {
    "slopes": _cmd_slopes,
    "nearby": _cmd_nearby,
    "bound": _cmd_bound,
    "blowup": _cmd_blowup,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ExpressionError, ScriptError, OSError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FalsificationError as exc:
        print(f"FALSIFICATION: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
