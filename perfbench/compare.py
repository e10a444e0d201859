#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two of them.

    python3 perfbench/compare.py collect OUT_DIR [--seeds 10] [--first-seed 1]
                                 [--workloads a,b]
    python3 perfbench/compare.py spread RUN_DIR
    python3 perfbench/compare.py diff BASE_DIR CHANGE_DIR

`collect` runs perfbench/run.py untraced once per (workload, seed) and stores
each run's stdout as OUT_DIR/<workload>.<seed>.out. `spread` prints, per
workload and end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median) and flags a spread above the
metric's bound in BENCHMARK.json. `diff` prints each side's median and
quartiles and a verdict against the bound:

  within bound  the change's median is not worse than the base's by more
                than the bound
  worse         it is worse by more than the bound
  unresolved    either side's spread exceeds the bound, unless every run of
                the change reads better than every run of the base

Quartiles are statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_runs(directory):
    """{workload: {metric: [values]}} plus {workload: [failed counts]}."""
    values = defaultdict(lambda: defaultdict(list))
    failures = defaultdict(list)
    for path in sorted(Path(directory).glob("*.out")):
        lines = [line for line in path.read_text().splitlines() if line.startswith("{")]
        if len(lines) < 2:
            print(f"skipping {path}: no result", file=sys.stderr)
            continue
        workload = json.loads(lines[0])["provenance"]["workload"]
        result = json.loads(lines[-1])
        failures[workload].append(result["failed"])
        for name, metric in result["metrics"].items():
            values[workload][name].append(metric["value"])
    return values, failures


def summary(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = summary(values)
    return (q3 - q1) / median if median else 0.0


def collect(args):
    bench = spec()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            path = out / f"{workload}.{seed}.out"
            with path.open("w") as stdout:
                code = subprocess.run(
                    [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                     "--trace", "0"],
                    stdout=stdout, cwd=ROOT, check=False).returncode
            print(f"{workload} seed {seed}: exit {code}", file=sys.stderr)
    return 0


def show_spread(args):
    bench = spec()
    values, failures = load_runs(args.run_dir)
    steady = True
    for workload, metrics in sorted(values.items()):
        print(f"{workload}: {len(failures[workload])} runs, "
              f"{sum(failures[workload])} failed operations")
        for metric in bench["end_to_end"]:
            runs = metrics.get(metric["name"], [])
            if not runs:
                print(f"  {metric['name']:<16} missing")
                steady = False
                continue
            q1, median, q3 = summary(runs)
            s = spread(runs)
            over = s > metric["bound"]
            steady = steady and not over
            print(f"  {metric['name']:<16} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {s:.3f} (bound {metric['bound']}){'  > bound' if over else ''}")
    return 0 if steady else 1


def diff(args):
    bench = spec()
    base, base_failed = load_runs(args.base_dir)
    change, change_failed = load_runs(args.change_dir)
    worse = False
    for workload in sorted(set(base) | set(change)):
        print(f"{workload}: failed operations base {sum(base_failed[workload])}, "
              f"change {sum(change_failed[workload])}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = base[workload].get(name, []), change[workload].get(name, [])
            if not a or not b:
                print(f"  {name:<16} missing on one side")
                continue
            lower = metric["better"] == "lower"
            a_q1, a_med, a_q3 = summary(a)
            b_q1, b_med, b_q3 = summary(b)
            # Positive: the change is worse, as a share of the base median.
            worse_share = ((b_med - a_med) if lower else (a_med - b_med)) / a_med
            all_better = max(b) < min(a) if lower else min(b) > max(a)
            if max(spread(a), spread(b)) > bound and not all_better:
                verdict = "unresolved"
            elif worse_share > bound:
                verdict = "worse"
                worse = True
            else:
                verdict = "within bound"
            print(f"  {name:<16} base {a_med:<11.5g} [{a_q1:.5g}, {a_q3:.5g}]  "
                  f"change {b_med:<11.5g} [{b_q1:.5g}, {b_q3:.5g}]  "
                  f"{-worse_share:+.1%} better  {verdict} (bound {bound})")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect")
    p.add_argument("out_dir")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default="")
    p.set_defaults(func=collect)
    p = sub.add_parser("spread")
    p.add_argument("run_dir")
    p.set_defaults(func=show_spread)
    p = sub.add_parser("diff")
    p.add_argument("base_dir")
    p.add_argument("change_dir")
    p.set_defaults(func=diff)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
