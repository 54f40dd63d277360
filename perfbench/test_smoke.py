#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/test_smoke.py        # from the repository root

Runs every workload in --smoke mode (tiny inputs, short phases) with
tracing off and on, so every program step, output check and the traced
run execute in well under a minute after the build. Checks the result
line against BENCHMARK.json, and checks that the benchmark refuses to run
(non-zero exit, no result line) in a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, trace, cwd=ROOT, script=os.path.join(BENCH_DIR, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "4", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if out.returncode != 0:
                failures.append(f"{label}: exit {out.returncode}\n"
                                f"{out.stderr[-2000:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{label}: checks failed: {out.stderr[-2000:]}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{label}: metrics {sorted(got)} != "
                                f"{sorted(want)}")
            if trace == 1:
                # The budgeted workload spills; the unbudgeted one must not.
                spill = result["metrics"]["stream.spill_bytes"]["value"]
                if (spill > 0) != (workload == "ids100k-budget"):
                    failures.append(f"{label}: stream.spill_bytes {spill}")
            print(f"ok: {label} ({result['attempted']} checked)")

    # Without the repository around it the benchmark must fail fast and
    # print no result.
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with tempfile.TemporaryDirectory(
            dir=os.path.join(ROOT, ".bench_build")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run(spec["workloads"][0]["name"], 0, cwd=bare,
                  script=os.path.join(bare, "perfbench", "run.py"))
        if out.returncode == 0 or '"metrics"' in out.stdout:
            failures.append("bare directory: expected a failure without a "
                            "result line")
        else:
            print("ok: bare directory refused")

    for failure in failures:
        print("FAIL: " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
