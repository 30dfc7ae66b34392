"""Smoke test of the benchmark itself, on the tiny mode of the same command.

    python3 -m pytest perfbench/test_perfbench.py

Run from the root of the checkout.  Every run here times a few items, so the
whole file takes well under a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cert-sweep", "witness-sweep", "cli-cold", "models-chains")
SEED = 1  # has a recorded reference for every workload

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def tiny(workload, *extra):
    proc = run_bench(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
                     "--tiny", *extra)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return proc.stdout, result


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_by_name_and_unit(workload):
    stdout, result = tiny(workload, "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in units.items():
        assert re.search(rf"^metric {re.escape(name)} = \S+ {re.escape(unit)}$", stdout, re.M)
    assert "metric failed_ratio = 0.0 1" in stdout
    assert "items compared with" in stdout  # the seed has a reference


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_by_name_and_unit(workload):
    _, result = tiny(workload, "--trace", "1")
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared("per_layer")
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_reference_raises_failed_ratio(workload):
    tampered = os.path.join(ROOT, "perfbench", "out", "tampered-reference")
    shutil.rmtree(tampered, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench", "reference"), tampered)
    path = os.path.join(tampered, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    if workload == "cli-cold":
        for query in reference["queries"].values():
            query["stdout"] = query["stdout"].replace("1", "2", 1)
    else:
        digests = reference["seeds"][str(SEED)]
        reference["seeds"][str(SEED)] = "00000000" + digests[8:]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
    stdout, result = tiny(workload, "--trace", "0", "--reference-dir", tampered)
    assert not result["correct"] and result["failed"] >= 1
    ratio = float(stdout.split("metric failed_ratio = ")[1].split()[0])
    assert ratio > 0
    assert "replay: python3 perfbench/run.py" in stdout


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, "perfbench", "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(bare, "--workload", "cert-sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
