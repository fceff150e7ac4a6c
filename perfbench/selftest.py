#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. It runs every workload at tiny size in
both modes (--trace 0 and --trace 1), checks that each run passed its
correctness checks and that its summary line follows the output
schema (exactly the metrics BENCHMARK.json declares for the mode,
each with its declared unit, end-to-end ones never 0), repeats the
untraced runs on a second seed, checks that the training results do
not depend on the seed, and checks that the benchmark fails without
printing a result when the library sources are missing. Exits
non-zero on the first failure.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dc_fleet", "rack_wire")
SUMMARY_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def run(workload, seed, trace, cwd="."):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def summary(proc, label):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{label}: exit {proc.returncode}\n{proc.stdout}\n"
             f"{proc.stderr[-2000:]}")
    if any(line.startswith("check  FAIL") for line in lines):
        fail(f"{label}: a correctness check failed\n{proc.stdout}")
    result = json.loads(lines[-1])
    if set(result) != SUMMARY_KEYS:
        fail(f"{label}: summary keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{label}: correct={result['correct']} "
             f"failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{label}: attempted={result['attempted']}")
    return result


def check_metrics(result, declared, label):
    printed = set(result["metrics"])
    if printed != set(declared):
        fail(f"{label}: missing {sorted(set(declared) - printed)}, "
             f"undeclared {sorted(printed - set(declared))}")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            fail(f"{label}: metric {name} keys {sorted(metric)}")
        if name not in declared:
            fail(f"{label}: metric {name} is not declared")
        if metric["unit"] != declared[name]:
            fail(f"{label}: metric {name} unit {metric['unit']} != "
                 f"{declared[name]}")
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{label}: metric {name} value {value!r}")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    dre = {}

    for workload in WORKLOADS:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} trace={trace}"
            result = summary(run(workload, 1, trace), label)
            check_metrics(result, declared, label)
            if trace == 0:
                for name, metric in result["metrics"].items():
                    if metric["value"] == 0:
                        fail(f"{label}: end-to-end metric {name} is 0")
                dre[workload] = result["metrics"]["cv_dre_pct"]["value"]
            print(f"selftest: ok {label}: "
                  f"{len(result['metrics'])} metrics")

    # Training runs on campaigns from a fixed seed: --seed changes the
    # served traffic, never the trained models.
    for workload in WORKLOADS:
        label = f"{workload} seed=2"
        result = summary(run(workload, 2, 0), label)
        check_metrics(result, end_to_end, label)
        if result["metrics"]["cv_dre_pct"]["value"] != dre[workload]:
            fail(f"{label}: cv_dre_pct differs from seed 1")
        print(f"selftest: ok {label}, same cv_dre_pct as seed 1")

    # Without the library sources the benchmark must fail, printing
    # no result.
    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dc_fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("a checkout without the library sources did not fail")
    print("selftest: ok fails without the library sources")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
