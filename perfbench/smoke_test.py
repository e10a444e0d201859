#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py [--seconds 1]

Runs every workload in BENCHMARK.json, and cleverleaf-amr (runnable but not
gated, see README.md), briefly, untraced and traced, through perfbench/run.py
and checks that each run
  - exits 0 and ends its stdout with a result of exactly the keys correct,
    attempted, failed and metrics;
  - passes its correctness checks (correct, no failed operation, at least
    one attempted);
  - emits exactly the metrics BENCHMARK.json names for that mode, each a
    finite number with the named unit;
  - prints the provenance and workload-shape lines.
Exits 1 if any run does not.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROVENANCE_KEYS = {"workload", "seed", "nproc", "cpu_model", "build_type", "timing_source",
                   "pool_team", "app_threads", "git_commit", "source_hash", "model_hash"}
UNGATED_WORKLOADS = ("cleverleaf-amr",)
SHAPE_KEYS = {"launches_per_step", "pool_launch_share", "inline_cache_hit_share",
              "blackboard_writes_per_step", "step_samples"}


def check_run(workload, trace, seconds, expected):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    errors = []
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correctness: {result.get('correct')}, failed {result.get('failed')}; "
                      f"{proc.stderr.strip()[-400:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted {result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"missing {sorted(set(expected) - set(metrics))}, "
                      f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        if metric.get("unit") != unit:
            errors.append(f"{name}: unit {metric.get('unit')!r}, expected {unit!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r}")
    records = [json.loads(line) for line in lines[:-1] if line.startswith("{")]
    provenance = next((r["provenance"] for r in records if "provenance" in r), {})
    shape = next((r["shape"] for r in records if "shape" in r), {})
    if not PROVENANCE_KEYS <= set(provenance):
        errors.append(f"provenance lacks {sorted(PROVENANCE_KEYS - set(provenance))}")
    if not SHAPE_KEYS <= set(shape):
        errors.append(f"shape lacks {sorted(SHAPE_KEYS - set(shape))}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failed = False
    for workload in [w["name"] for w in bench["workloads"]] + list(UNGATED_WORKLOADS):
        for trace in (0, 1):
            errors = check_run(workload, trace, args.seconds, expected[trace])
            print(f"{'FAIL' if errors else 'ok  '} {workload} --trace {trace}")
            for error in errors:
                print(f"     {error}")
            failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
