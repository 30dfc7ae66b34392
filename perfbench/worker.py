"""One cold pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass meets the
engine's process-global caches empty, as a command-line user does.  The
pass builds its inputs from the seed (set-up), times each item, then, with
the clock stopped, renders each item's canonical result, digests it and
runs the property checks that need no reference.  The result goes to the
JSON file named by ``--out``; ``run.py`` compares the digests with the
recorded reference.

Run it through ``run.py``; it expects the checkout root as the working
directory and ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import corpus
import tracer as tracing

OUT_DIR = os.path.join("perfbench", "out")
QUERY_TIMEOUT_S = 120


def _mod(short: str):
    # Resolved at call time so that the tracer's wrappers are the ones called;
    # importlib because slopelab.elementary is shadowed by elementary().
    return importlib.import_module(f"slopelab.{short}")


def _slopes_text(values) -> list[str]:
    return [str(v) for v in sorted(values)]


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

class Workload:
    """setup(seed, count, only) -> inputs; run(input) -> result;
    render(input, result) -> canonical text; check(index, input, result,
    seed) -> problems; describe(input) -> replay fields."""

    # True when check() calls the engine, so it must wait for the timed loop.
    engine_checks = False
    clock = staticmethod(time.process_time)

    def extra(self, results) -> dict:
        return {}


class CertSweep(Workload):
    """certify_nearby_slopes at default bounds, p cycling over 1..3."""

    engine_checks = True

    def setup(self, seed, count, only):
        exprs = corpus.module_corpus(seed, "cert-sweep", count)
        parse = _mod("expr").parse_and_eval
        return [(e, parse(e), 1 + i % 3) for i, e in enumerate(exprs)
                if only is None or i == only]

    def run(self, item):
        _, module, p = item
        return _mod("elementary").certify_nearby_slopes(module, p)

    def render(self, item, cert):
        to_expr = _mod("expr").module_to_expr
        return json.dumps({
            "module": to_expr(item[1]), "p": item[2],
            "members": [[str(w.slope), to_expr(w.twist), w.psi_dimension]
                        for w in cert.members],
            "nonmembers": [[str(r.slope), r.twists_checked] for r in cert.nonmembers],
        }, sort_keys=True)

    def check(self, index, item, cert, seed):
        E = _mod("elementary")
        _, module, p = item
        problems = []
        if cert.slopes != E.nearby_slopes(module, p, verify=False):
            problems.append("certificate slopes differ from nearby_slopes(verify=False)")
        for w in cert.members:
            if E.psi_dim_twisted(module, w.twist, p) != w.psi_dimension:
                problems.append(f"witness for {w.slope}: psi_dim_twisted differs "
                                "from the composed route")
        if index % 8 == 0:
            # Fast route against the composed route on a seeded subsample.
            rng = random.Random(f"cert-sweep-check:{seed}:{index}")
            twist = _mod("expr").parse_and_eval(corpus.module_expr(rng, rng, max_factors=1))
            fast = E.psi_dim_twisted(module, twist, p)
            slow = E.psi_dim(E.tensor(module, E.pullback(p, twist)), p)
            if fast != slow:
                problems.append(f"psi_dim_twisted {fast} != composed {slow} "
                                f"for twist {_mod('expr').module_to_expr(twist)}")
        return problems

    def describe(self, item):
        return {"expr": item[0], "p": item[2]}

    def extra(self, results):
        return {"twists_checked": sum(r.twists_checked for cert in results
                                      if cert is not None for r in cert.nonmembers)}


class WitnessSweep(Workload):
    """nearby_slopes(verify=True) on m, dual(m) and pushforward(p, m), p <= 6."""

    P_MAX = 6
    engine_checks = True

    def setup(self, seed, count, only):
        exprs = corpus.module_corpus(seed, "witness-sweep", count)
        parse = _mod("expr").parse_and_eval
        return [(e, parse(e)) for i, e in enumerate(exprs) if only is None or i == only]

    def run(self, item):
        E = _mod("elementary")
        module = item[1]
        dm = E.dual(module)
        rows = []
        for p in range(1, self.P_MAX + 1):
            pushed = E.pushforward(p, module)
            rows.append((p, E.nearby_slopes(module, p), E.nearby_slopes(dm, p),
                         pushed, E.nearby_slopes(pushed, 1)))
        return dm, rows

    def render(self, item, result):
        to_expr = _mod("expr").module_to_expr
        dm, rows = result
        return json.dumps({
            "module": to_expr(item[1]), "dual": to_expr(dm),
            "rows": [[p, _slopes_text(a), _slopes_text(b), to_expr(pushed),
                      _slopes_text(c)] for p, a, b, pushed, c in rows],
        }, sort_keys=True)

    def check(self, index, item, result, seed):
        E = _mod("elementary")
        module = item[1]
        dm, rows = result
        problems = []
        if E.dual(dm) != module:
            problems.append("dual(dual(m)) != m")
        regular = E.is_regular(module)
        for p, near, near_dual, _, near_push in rows:
            if near != near_dual:
                problems.append(f"p={p}: nearby slopes not invariant under duality")
            if not near_push <= near:
                problems.append(f"p={p}: pushforward nearby slopes not included")
            if regular != (near <= {Fraction(0)}):
                problems.append(f"p={p}: regularity disagrees with nearby slopes")
        return problems

    def describe(self, item):
        return {"expr": item[0], "p": f"1..{self.P_MAX}"}


class ModelsChains(Workload):
    """Monomial models (every threshold for entries <= 4 plus curve
    restrictions), blow-up chains verified after every step, and Newton
    polygons of composed operators."""

    def setup(self, seed, count, only):
        M = _mod("monomial_models")
        B = _mod("blowup")
        out = []
        for i, raw in enumerate(corpus.models_chains_corpus(seed, count)):
            if only is not None and i != only:
                continue
            if raw[0] == "model":
                out.append(("model", raw, M.model_from_dict(raw[1])))
            elif raw[0] == "chain":
                script = raw[1]
                steps = [B.step_from_dict(s, script["mode"]) for s in script["steps"]]
                out.append(("chain", raw, script, steps))
            else:
                out.append(("operator", raw, sorted(raw[1].items()), raw[2]))
        return out

    def run(self, item):
        kind = item[0]
        if kind == "model":
            M = _mod("monomial_models")
            E = _mod("elementary")
            _, raw, model = item
            div = M.highest_generic_slopes(model)
            bound = M.nearby_slope_bound(model)
            thresholds = [M.vanishing_threshold(model, M.MonomialFunction(a))
                          for a in itertools.product(range(5), repeat=model.dim) if any(a)]
            curves = []
            if any(raw[2]):
                f = M.MonomialFunction(raw[2])
                thr = M.vanishing_threshold(model, f)
                for c in raw[3]:
                    restricted, k = M.curve_restriction(model, c, f)
                    curves.append((restricted, k, E.nearby_slopes(restricted, k)))
            else:
                thr = None
            return div, bound, thresholds, thr, curves
        if kind == "chain":
            B = _mod("blowup")
            _, _, script, steps = item
            state = B.initial_state(script["dim"], script["Z"]["a"],
                                    [Fraction(v) for v in script["S"]["r"]],
                                    script["mode"])
            oks = []
            for step in steps:
                state = B.blow_up(state, step)
                oks.append(B.verify_inequality(state).ok)
            return state, oks, B.verify_inequality(state)
        return _mod("newton_polygon").slopes_from_operator(item[2])

    def render(self, item, result):
        kind = item[0]
        if kind == "model":
            to_expr = _mod("expr").module_to_expr
            div, bound, thresholds, thr, curves = result
            return json.dumps({
                "div": [str(w) for w in div.weights], "bound": str(bound),
                "thresholds": [[str(t.value), t.criterion_applicable] for t in thresholds],
                "f": None if thr is None else [str(thr.value), thr.criterion_applicable],
                "curves": [[to_expr(r), k, _slopes_text(near)] for r, k, near in curves],
            }, sort_keys=True)
        if kind == "chain":
            state, oks, report = result
            return json.dumps({"report": _mod("blowup").report_to_dict(report),
                               "steps": state.steps_applied, "per_step": oks},
                              sort_keys=True)
        return json.dumps({str(s): m for s, m in result.items()}, sort_keys=True)

    def check(self, index, item, result, seed):
        kind = item[0]
        problems = []
        if kind == "model":
            _, bound, thresholds, thr, curves = result
            if any(t.value > bound for t in thresholds):
                problems.append("a vanishing threshold exceeds nearby_slope_bound")
            if thr is not None and thr.criterion_applicable:
                for _, k, near in curves:
                    if any(s > thr.value for s in near):
                        problems.append(f"curve restriction (k={k}) exceeds the threshold")
        elif kind == "chain":
            state, oks, report = result
            if not (all(oks) and report.ok):
                problems.append("multiplicity inequality violated")
            if state.steps_applied != len(item[3]):
                problems.append("steps applied differ from the script")
        else:
            got = {str(s): m for s, m in result.items()}
            if got != item[3]:
                problems.append(f"slopes {got} != expected {item[3]}")
        return problems

    def describe(self, item):
        raw = item[1]
        if raw[0] == "operator":
            return {"kind": "operator", "expected": raw[2],
                    "operator": {order: {e: str(c) for e, c in coeff.items()}
                                 for order, coeff in raw[1].items()}}
        return {"kind": raw[0], "input": raw[1:]}


class CliCold(Workload):
    """Each query in its own fresh `python -m slopelab` process."""

    @staticmethod
    def clock() -> float:
        # CPU time of the finished queries, each reaped before it is read.
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def __init__(self, traced: bool, tiny: bool):
        self.traced = traced
        self.tiny = tiny
        self.child_traces: list[dict] = []

    def setup(self, seed, count, only):
        inputs = os.path.join(OUT_DIR, "cli-inputs")
        os.makedirs(inputs, exist_ok=True)
        files = {"model": os.path.join(inputs, "model.json"),
                 "chain": os.path.join(inputs, "chain.json")}
        for key, payload in (("model", corpus.CLI_MODEL), ("chain", corpus.CLI_CHAIN)):
            with open(files[key], "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
        self.seed = seed
        queries = corpus.cli_queries(seed, corpus.CLI_TINY if self.tiny else None)
        items = []
        for i in range(count):
            qid, argv = queries[i % len(queries)]
            if only is None or i == only:
                items.append((qid, [a.format(**files) for a in argv], i))
        return items

    def run(self, item):
        qid, argv, index = item
        if self.traced:
            trace_out = os.path.join(OUT_DIR, f"spans-cli-cold-seed{self.seed}-{index:03d}-{qid}")
            cmd = [sys.executable, os.path.join("perfbench", "cli_child.py"), trace_out, *argv]
        else:
            cmd = [sys.executable, "-m", "slopelab", *argv]
        start = self.clock()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                out, err = proc.communicate(timeout=QUERY_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if self.traced:
            with open(trace_out + ".json", encoding="utf-8") as fh:
                child = json.load(fh)
            os.unlink(trace_out + ".json")
            child["cpu_s"] = self.clock() - start
            self.child_traces.append(child)
        return proc.returncode, out, err

    def render(self, item, result):
        return result[1].decode("utf-8", "surrogateescape")

    def check(self, index, item, result, seed):
        code, out, err = result
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {err.decode('utf-8', 'replace').strip()[-300:]}")
        if item[0] == "blowup-verify" and b"inequality: OK" not in out:
            problems.append("blow-up report is not OK")
        return problems

    def describe(self, item):
        return {"query": item[0], "argv": item[1]}


def make_workload(name: str, traced: bool, tiny: bool):
    if name == "cert-sweep":
        return CertSweep()
    if name == "witness-sweep":
        return WitnessSweep()
    if name == "models-chains":
        return ModelsChains()
    if name == "cli-cold":
        return CliCold(traced, tiny)
    raise SystemExit(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# The pass.
# ---------------------------------------------------------------------------

def _check_package() -> None:
    import slopelab
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(slopelab.__file__).startswith(src + os.sep):
        raise SystemExit(f"slopelab imported from {slopelab.__file__}, not from {src}")


def _merge_child_traces(children: list[dict]) -> dict:
    functions: dict[str, dict] = {}
    under: dict[str, float] = {}
    caches: dict[str, dict] = {}
    for child in children:
        for name, s in child["trace"]["functions"].items():
            acc = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]
        for name, seconds in child["trace"]["under"].items():
            under[name] = under.get(name, 0.0) + seconds
        for name, c in child["caches"].items():
            acc = caches.setdefault(name, {"hits": 0, "misses": 0, "entries": 0,
                                           "maxsize": c["maxsize"]})
            acc["hits"] += c["hits"]
            acc["misses"] += c["misses"]
            acc["entries"] = max(acc["entries"], c["entries"])
    for c in caches.values():
        total = c["hits"] + c["misses"]
        c["hit_ratio"] = c["hits"] / total if total else 0.0
    return {"functions": functions, "under": under, "caches": caches,
            "query_main_s": [c["trace"]["functions"].get("cli.main", {}).get("total_s", 0.0)
                             for c in children],
            "query_cpu_s": [c["cpu_s"] for c in children],
            "spans_kept": sum(c["trace"]["spans_kept"] for c in children),
            "spans_dropped": sum(c["trace"]["spans_dropped"] for c in children)}


def _record(workload, args, index, item, output, error) -> dict:
    if args.only is not None:
        index = args.only
    record = {"index": index, "describe": workload.describe(item),
              "problems": [], "digest": None}
    if error is not None:
        record["problems"].append(f"raised: {error.strip().splitlines()[-1]}")
        record["traceback"] = error
        return record
    try:
        text = workload.render(item, output)
    except Exception:
        record["problems"].append("render raised: " + traceback.format_exc(limit=4))
        return record
    digest = hashlib.sha256(text.encode("utf-8", "surrogateescape"))
    record["digest"] = digest.hexdigest()
    if args.workload == "cli-cold" or args.only is not None:
        record["output"] = text
    return record


def _finish(workload, args, index, item, output, error) -> dict:
    record = _record(workload, args, index, item, output, error)
    if error is None:
        try:
            record["problems"] += workload.check(record["index"], item, output, args.seed)
        except Exception:
            record["problems"].append("check raised: " + traceback.format_exc(limit=4))
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--items", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--only", type=int, default=None,
                    help="run just this item index (replay)")
    args = ap.parse_args()

    _check_package()
    workload = make_workload(args.workload, args.trace, args.tiny)
    items = workload.setup(args.seed, args.items, args.only)
    # CPU time of this process so far: interpreter start, imports, inputs.
    result = {"workload": args.workload, "seed": args.seed, "items": len(items),
              "setup_s": time.process_time()}
    if args.setup_only:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    if args.trace and args.workload != "cli-cold":
        caches = tracing.discover_caches()
        before = tracing.cache_snapshot(caches)
        tracer = tracing.Tracer()
        tracer.install()

    # Items are rendered and checked off the clock.  That happens right away
    # when the checks never call the engine, so results need not be kept;
    # otherwise after the loop, so that neither the caches the checks fill
    # nor the tracer's view of them reaches the timed items.
    immediate = tracer is None and not workload.engine_checks
    clock = workload.clock
    records, later, latencies = [], [], []
    for index, item in enumerate(items):
        t0 = clock()
        try:
            output, error = workload.run(item), None
        except Exception:  # an engine failure is a failed item, not a crash
            output, error = None, traceback.format_exc(limit=4)
        latencies.append(clock() - t0)
        if immediate:
            records.append(_finish(workload, args, index, item, output, error))
        else:
            later.append((index, item, output, error))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    result.update(timed_s=sum(latencies), latencies_s=latencies,
                  peak_rss_kib=resource.getrusage(who).ru_maxrss)

    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        result["trace"]["caches"] = tracing.cache_delta(
            before, tracing.cache_snapshot(caches))
        tracer.write_spans(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    elif args.trace:
        result["trace"] = _merge_child_traces(workload.child_traces)

    records += [_finish(workload, args, *entry) for entry in later]
    result["extra"] = workload.extra([entry[2] for entry in later])
    result["records"] = records
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
