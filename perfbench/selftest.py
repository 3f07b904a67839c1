#!/usr/bin/env python3
"""Self-test of the repo benchmark at small size.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and metric_moves.json agree, that every workload
prints every declared metric with its unit in both modes, that a seeded
output mismatch trips the correctness gate (non-zero exit, "correct":
false), and that run.py fails without printing a result when the program's
sources are absent. Exits non-zero on the first failure.
"""
import json
import os
import re
import shutil
import subprocess
import sys

import run

BENCH = os.path.join(run.ROOT, "BENCHMARK.json")
MOVES = os.path.join(run.HERE, "metric_moves.json")


def fail(msg):
    sys.exit(f"selftest: FAIL: {msg}")


def load_declared():
    with open(BENCH) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if tuple(names) != run.WORKLOADS:
        fail(f"BENCHMARK.json workloads {names} != run.py {run.WORKLOADS}")
    return bench


def check_moves(bench):
    with open(MOVES) as f:
        moves = json.load(f)["per_layer"]
    layer = {m["name"] for m in bench["per_layer"]}
    known = layer | {m["name"] for m in bench["end_to_end"]}
    if set(moves) != layer:
        fail(f"metric_moves.json and BENCHMARK.json per_layer differ: "
             f"{sorted(set(moves) ^ layer)}")
    for name, entry in moves.items():
        for ref in entry["moves"] + entry["unchanged"]:
            if ref["metric"] not in known:
                fail(f"{name}: unknown metric {ref['metric']}")
            if not set(ref["on"]) <= set(run.WORKLOADS):
                fail(f"{name}: unknown workload in {ref['on']}")


def run_binary(workload, trace, *extra):
    cmd = [run.BINARY, "--workload", workload, "--seed", "3", "--seconds",
           "0.3", "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                       timeout=run.RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(cmd)}: no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    return p.returncode, result, lines


def check_metrics(bench, workload, trace):
    code, result, lines = run_binary(workload, trace)
    if code != 0 or not result["correct"] or result["failed"] != 0:
        fail(f"{workload} trace {trace}: exit {code}, {result}")
    declared = bench["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if list(got) != [m["name"] for m in declared]:
        fail(f"{workload} trace {trace}: metrics {list(got)}")
    printed = {}
    for line in lines:
        m = re.match(r"metric (\S+) (\S+) (\S+)", line)
        if m:
            printed[m.group(1)] = m.group(3)
    for m in declared:
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"{workload}: {m['name']} unit {got[m['name']]['unit']}")
        if not trace and (got[m["name"]]["value"] <= 0
                          or printed.get(m["name"]) != m["unit"]):
            fail(f"{workload}: end-to-end {m['name']} not printed > 0 "
                 f"with unit {m['unit']}")
    if "failed_frac" not in printed:
        fail(f"{workload}: failed_frac not printed")
    print(f"selftest: {workload} trace {trace}: {len(got)} metrics ok")


def check_gate(workload, trace):
    code, result, _ = run_binary(workload, trace, "--inject-mismatch")
    if code == 0 or result["correct"] or result["failed"] < 1:
        fail(f"{workload}: injected mismatch passed the gate: {result}")
    print(f"selftest: {workload} trace {trace}: injected mismatch caught")


def check_without_sources():
    tmp_dir = os.path.join(run.BUILD, "selftest-no-sources")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir)
    shutil.copy(BENCH, tmp_dir)
    shutil.copytree(run.HERE, os.path.join(tmp_dir, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        run.WORKLOADS[0], "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_dir, capture_output=True,
                       text=True, timeout=run.RUN_TIMEOUT_S)
    shutil.rmtree(tmp_dir)
    if p.returncode == 0 or p.stdout.strip():
        fail(f"run.py without sources: exit {p.returncode}, {p.stdout!r}")
    print("selftest: run.py without sources fails without a result")


def main():
    bench = load_declared()
    check_moves(bench)
    run.build()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_metrics(bench, workload, trace)
        check_gate(workload, 0)
    check_gate(run.WORKLOADS[0], 1)
    check_without_sources()
    print("selftest: PASS")


if __name__ == "__main__":
    main()
