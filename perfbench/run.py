"""The slopelab benchmark: one workload, one run, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/slopelab``).
Workloads: cert-sweep, witness-sweep, cli-cold, models-chains (see
perfbench/README.md for why each exists and what each metric means).

Every pass runs in a fresh interpreter (``worker.py``), because the engine's
caches are process-global and a CLI user always starts cold.  A run with
``--trace 0`` makes SETUP_SAMPLES set-up-only starts plus one timed pass and
prints the end-to-end metrics; ``--trace 1`` makes one untraced and one
traced pass of the same inputs and prints the per-layer metrics.  Every item
is checked: it must not raise, must pass its property checks and, where a
reference is recorded for the seed, must reproduce the reference output.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.

Other modes:
  --tiny             a few items per workload, for the smoke test
  --replay INDEX     run one item alone and print its output and checks
  --record           write the current outputs as the reference for --seed
  --reference-dir D  compare against references in D instead
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402

WORKLOADS = ("cert-sweep", "witness-sweep", "cli-cold", "models-chains")

# Items per CPU second, measured at the commit that defined the benchmark
# on a 2-core box, so that a run times about --seconds of work.
# The item count is fixed by --seconds alone, never by how fast the code is,
# so two commits always time the same items.
ITEMS_PER_SECOND = {"cert-sweep": 14, "witness-sweep": 16, "models-chains": 280}
CLI_PASS_SECONDS = 12          # CPU seconds of one pass over corpus.CLI_QUERIES
TINY_ITEMS = {"cert-sweep": 4, "witness-sweep": 3,
              "cli-cold": len(corpus.CLI_TINY), "models-chains": 14}

SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170           # a run must exit within 180 s
OUT_DIR = os.path.join("perfbench", "out")
REFERENCE_DIR = os.path.join(HERE, "reference")
DIGEST_CHARS = 8               # per item: the first hex digits of sha256(output)

SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


class RunError(Exception):
    """The benchmark itself could not run; no result is printed."""


def item_count(workload: str, seconds: float, tiny: bool) -> int:
    if tiny:
        return TINY_ITEMS[workload]
    if workload == "cli-cold":
        # At least two passes, so that each query's time is a median.
        return max(2, round(seconds / CLI_PASS_SECONDS)) * len(corpus.CLI_QUERIES)
    return max(1, round(ITEMS_PER_SECOND[workload] * seconds))


# ---------------------------------------------------------------------------
# Environment stamp.
# ---------------------------------------------------------------------------

def _src_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "slopelab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()[:16]


def _commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root: str, args, items: int) -> dict:
    return {"workload": args.workload, "seed": args.seed, "items": items,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "commit": _commit(root), "src_sha256": _src_digest(root),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_start": list(os.getloadavg()), "platform": platform.platform()}


# ---------------------------------------------------------------------------
# Worker processes.
# ---------------------------------------------------------------------------

def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill the worker's whole process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_worker(root: str, workload: str, seed: int, items: int, deadline: float, *,
               tiny: bool = False, trace: bool = False, setup_only: bool = False,
               only: int | None = None) -> dict:
    fd, out = tempfile.mkstemp(prefix=f"{workload}-", suffix=".json", dir=OUT_DIR)
    os.close(fd)
    cmd = [sys.executable, os.path.join("perfbench", "worker.py"), "--workload", workload,
           "--seed", str(seed), "--items", str(items), "--out", out]
    if tiny:
        cmd.append("--tiny")
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if only is not None:
        cmd += ["--only", str(only)]
    try:
        proc = subprocess.Popen(cmd, cwd=root,
                                env=_child_env(root), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _stop_group(proc)
            raise RunError(f"{workload} pass did not finish before the run deadline")
        except BaseException:
            _stop_group(proc)
            raise
        if proc.returncode != 0:
            raise RunError(f"{workload} worker exited with {proc.returncode}:\n"
                           + err.decode("utf-8", "replace")[-2000:])
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.unlink(out)


# ---------------------------------------------------------------------------
# References.
# ---------------------------------------------------------------------------

def load_reference(ref_dir: str, workload: str) -> dict:
    path = os.path.join(ref_dir, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expected_for(reference: dict, workload: str, seed: int, record: dict) -> str | None:
    """The reference output or digest for one item, or None if unrecorded."""
    if workload == "cli-cold":
        entry = reference.get("queries", {}).get(record["describe"]["query"])
        return None if entry is None else entry["stdout"]
    digests = reference.get("seeds", {}).get(str(seed), "")
    index = record["index"] * DIGEST_CHARS
    return digests[index:index + DIGEST_CHARS] or None


def compare(reference: dict, workload: str, seed: int, records: list[dict]) -> int:
    """Add reference mismatches to each record's problems; return how many
    items had a reference to compare against."""
    compared = 0
    for record in records:
        expected = expected_for(reference, workload, seed, record)
        if expected is None:
            continue
        compared += 1
        actual = (record.get("output") if workload == "cli-cold"
                  else (record["digest"] or "")[:DIGEST_CHARS])
        if actual != expected:
            record["problems"].append("output differs from the recorded reference")
    return compared


def record_reference(ref_dir: str, workload: str, seed: int, records: list[dict]) -> str:
    bad = [r for r in records if r["problems"]]
    if bad:
        raise RunError(f"not recording: {len(bad)} items failed their checks")
    reference = load_reference(ref_dir, workload)
    reference["workload"] = workload
    if workload == "cli-cold":
        reference["queries"] = {r["describe"]["query"]: {"argv": r["describe"]["argv"],
                                                         "stdout": r["output"]}
                                for r in records}
    else:
        reference.setdefault("seeds", {})[str(seed)] = "".join(
            r["digest"][:DIGEST_CHARS] for r in records)
        reference["seeds"] = dict(sorted(reference["seeds"].items(), key=lambda kv: int(kv[0])))
    os.makedirs(ref_dir, exist_ok=True)
    path = os.path.join(ref_dir, f"{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=10)[8]


def end_to_end(workload: str, setups: list[float], timed: dict) -> dict:
    lat = timed["latencies_s"]
    items_per_s = len(lat) / timed["timed_s"]
    if workload == "cli-cold":
        # Each query runs once per pass; its time is the median of its passes,
        # so that p90 does not rest on one run of the two slowest queries.
        by_query: dict[str, list[float]] = {}
        for record, seconds in zip(timed["records"], lat):
            by_query.setdefault(record["describe"]["query"], []).append(seconds)
        lat = [statistics.median(v) for v in by_query.values()]
    return {"setup_s": statistics.median(setups),
            "items_per_s": items_per_s,
            "item_p50_ms": statistics.median(lat) * 1e3,
            "item_p90_ms": _p90(lat) * 1e3,
            "peak_rss_mib": timed["peak_rss_kib"] / 1024}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _cache_group(caches: dict, prefix: str) -> tuple[float, int]:
    group = [c for name, c in caches.items() if name.startswith(prefix)]
    hits = sum(c["hits"] for c in group)
    total = hits + sum(c["misses"] for c in group)
    return (hits / total if total else 0.0), sum(c["entries"] for c in group)


def per_layer(traced: dict, untraced: dict) -> dict:
    trace = traced["trace"]
    fs = trace["functions"]

    def calls(*names):
        return sum(fs.get(n, {}).get("calls", 0) for n in names)

    def total(name):
        return fs.get(name, {}).get("total_s", 0.0)

    def self_time(*names):
        return sum(fs.get(n, {}).get("self_s", 0.0) for n in names)

    caches = trace["caches"]
    ea_ratio, ea_entries = _cache_group(caches, "exact_algebra.")
    el_ratio, el_entries = _cache_group(caches, "elementary.")
    all_ratio, all_entries = _cache_group(caches, "")
    twists = traced["extra"].get("twists_checked", 0)
    certify_s = total("elementary.certify_nearby_slopes")
    nearby_s = total("elementary.nearby_slopes")
    make_calls = calls("elementary.make_elementary")
    main_s = trace.get("query_main_s", [])
    cpus = trace.get("query_cpu_s", [])
    arith = ("exact_algebra.CycloRat.__add__", "exact_algebra.CycloRat.__radd__",
             "exact_algebra.CycloRat.__mul__", "exact_algebra.CycloRat.__rmul__",
             "exact_algebra.CycloRat.inverse")
    values = {
        "exact_algebra.zeta_calls": calls("exact_algebra.CycloRat.zeta"),
        "exact_algebra.zeta_s": total("exact_algebra.CycloRat.zeta"),
        "exact_algebra.cyclotomic_polynomial_s": total("exact_algebra.cyclotomic_polynomial"),
        "exact_algebra.cyclo_mul_calls": calls(*arith[2:4]),
        "exact_algebra.cyclo_add_calls": calls(*arith[:2]),
        "exact_algebra.cyclo_arith_s": self_time(*arith),
        "exact_algebra.cache.hit_ratio": ea_ratio,
        "exact_algebra.cache.entries": ea_entries,
        "elementary.make_elementary_calls": make_calls,
        "elementary.make_elementary_s": total("elementary.make_elementary"),
        "elementary.galois_candidates_per_canonical":
            calls("exact_algebra.RamifiedExponent.substitute_root") / make_calls
            if make_calls else 0.0,
        "elementary.pullback_s": total("elementary.pullback"),
        "elementary.tensor_s": total("elementary.tensor"),
        "elementary.dual_s": total("elementary.dual"),
        "elementary.pushforward_s": total("elementary.pushforward"),
        "elementary.psi_dim_twisted_calls": calls("elementary.psi_dim_twisted"),
        "elementary.psi_dim_twisted_s": total("elementary.psi_dim_twisted"),
        "elementary.certify_s": certify_s,
        "elementary.twists_checked": twists,
        "elementary.twists_per_s": twists / certify_s if certify_s else 0.0,
        "elementary.nearby_slopes_s": nearby_s,
        "elementary.witness_verify_share":
            sum(trace["under"].values()) / nearby_s if nearby_s else 0.0,
        "elementary.cache.hit_ratio": el_ratio,
        "elementary.cache.entries": el_entries,
        "cache.functions": len(caches),
        "cache.hit_ratio": all_ratio,
        "cache.entries": all_entries,
        "expr.parse_and_eval_s": total("expr.parse_and_eval"),
        "expr.module_to_expr_s": total("expr.module_to_expr"),
        "cli.main_s": total("cli.main"),
        "cli.process_start_s":
            statistics.median(c - m for c, m in zip(cpus, main_s)) if cpus else 0.0,
        "monomial_models.vanishing_threshold_calls": calls("monomial_models.vanishing_threshold"),
        "monomial_models.vanishing_threshold_s": total("monomial_models.vanishing_threshold"),
        "monomial_models.curve_restriction_s": total("monomial_models.curve_restriction"),
        "monomial_models.highest_generic_slopes_s":
            total("monomial_models.highest_generic_slopes"),
        "blowup.blow_up_steps": calls("blowup.blow_up"),
        "blowup.blow_up_s": total("blowup.blow_up"),
        "blowup.verify_inequality_s": total("blowup.verify_inequality"),
        "newton_polygon.slopes_from_operator_s": total("newton_polygon.slopes_from_operator"),
        "trace.overhead_ratio": traced["timed_s"] / untraced["timed_s"],
    }
    return values


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------

def replay_command(args, index: int) -> str:
    cmd = ["python3", "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--replay", str(index)]
    if args.tiny:
        cmd.append("--tiny")
    return shlex.join(cmd)


def print_trace_tables(traced: dict) -> None:
    trace = traced["trace"]
    print(f"trace: {trace['spans_kept']} spans kept, {trace['spans_dropped']} dropped "
          f"(spans in {OUT_DIR}/)")
    print(f"  {'function':<46} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for name, s in sorted(trace["functions"].items()):
        if s["calls"]:
            print(f"  {name:<46} {s['calls']:>9} {s['total_s']:>10.4f} {s['self_s']:>10.4f}")
    print(f"  {'cache (discovered)':<46} {'hits':>9} {'misses':>10} {'entries':>10} hit_ratio")
    for name, c in sorted(trace["caches"].items()):
        print(f"  {name:<46} {c['hits']:>9} {c['misses']:>10} {c['entries']:>10} "
              f"{c['hit_ratio']:.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--replay", type=int, default=None, metavar="INDEX")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--reference-dir", default=REFERENCE_DIR)
    args = ap.parse_args(argv)
    # A terminated run still stops its worker (run_worker's cleanup).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "slopelab", "__init__.py")):
        print(f"perfbench: no src/slopelab under {root}; run from the root of a "
              "slopelab checkout", file=sys.stderr)
        return 2
    if args.record and (args.tiny or args.trace or args.replay is not None):
        print("perfbench: --record needs a full untraced run", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    items = item_count(args.workload, args.seconds, args.tiny)
    env = environment(root, args, items)
    reference = load_reference(args.reference_dir, args.workload)

    def worker(**kw):
        return run_worker(root, args.workload, args.seed, items, deadline,
                          tiny=args.tiny, **kw)

    try:
        if args.replay is not None:
            return replay(args, items, reference, worker)
        if args.trace:
            untraced = worker()
            timed = worker(trace=True)
            runs = [untraced, timed]
            metrics = per_layer(timed, untraced)
        else:
            setups = [worker(setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES)]
            timed = worker()
            runs = [timed]
            metrics = end_to_end(args.workload, setups + [timed["setup_s"]], timed)
        compared = [compare(reference, args.workload, args.seed, run["records"])
                    for run in runs][-1]
        if args.record:
            recorded = record_reference(args.reference_dir, args.workload, args.seed,
                                        timed["records"])
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    units = declared_units(args.trace)
    if list(metrics) != list(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    failed_records = {r["index"]: r for run in runs for r in run["records"] if r["problems"]}
    attempted = len(timed["records"])
    failed = len(failed_records)

    print(f"env: {json.dumps(env, sort_keys=True)}")
    if args.trace:
        print_trace_tables(timed)
    for name, value in metrics.items():
        print(f"metric {name} = {value} {units[name]}")
    print(f"metric failed_ratio = {failed / attempted} 1 ({failed}/{attempted} items failed)")
    if args.record:
        print(f"reference: recorded for seed {args.seed} in {os.path.relpath(recorded, root)}")
    elif compared:
        print(f"reference: {compared}/{attempted} items compared with "
              f"{os.path.relpath(args.reference_dir, root)}/{args.workload}.json")
    else:
        print(f"reference: none recorded for seed {args.seed}; property checks only")
    for index, record in sorted(failed_records.items()):
        print(f"FAILED item {index}: {'; '.join(record['problems'])}")
        print(f"  input: {json.dumps(record['describe'])}")
        print(f"  replay: {replay_command(args, index)}")
    result_file = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, result_file), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": metrics,
                   "failed": [failed_records[i] for i in sorted(failed_records)],
                   "trace": timed.get("trace")}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


def replay(args, items: int, reference: dict, worker) -> int:
    if not 0 <= args.replay < items:
        print(f"perfbench: item {args.replay} is outside 0..{items - 1}", file=sys.stderr)
        return 2
    record = worker(only=args.replay)["records"][0]
    compare(reference, args.workload, args.seed, [record])
    print(f"input: {json.dumps(record['describe'])}")
    print(f"output: {record.get('output')}")
    print(f"digest: {(record['digest'] or '')[:DIGEST_CHARS]} reference: "
          f"{expected_for(reference, args.workload, args.seed, record)}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    if record.get("traceback"):
        print(record["traceback"])
    return 1 if record["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
