#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds perfbench/ (a Release build of the library sources plus the benchmark
binary) into .bench_build/perfbench; later calls only let the build tool
confirm the binary is current. Build output goes to stderr; stdout carries the
binary's report, whose last line is the result JSON with the metrics
BENCHMARK.json lists: the end-to-end ones with --trace 0, the per-layer ones
with --trace 1. Exits non-zero, without a result, when the sources or the
toolchain are missing, the build fails, or the run outlasts --seconds by more
than SETUP_MARGIN_S.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("lulesh-sedov", "cleverleaf-amr", "adapt-storm")
# Time a run may take beyond --seconds: set-up, the traced run's extra
# measurements and the last episode or round.
SETUP_MARGIN_S = 130


def source_hash(root: Path) -> str:
    """sha256 over every file the benchmark binary is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(path.relative_to(root).as_posix().encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build(root: Path, build_dir: Path) -> Path:
    env = dict(os.environ)
    # Compiler temporaries stay inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "--build", str(build_dir), "--target", "apollo_perfbench", "-j", jobs]]
    if not (build_dir / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        # The log is shown only when a step fails.
        proc = subprocess.run(step, capture_output=True, text=True, env=env, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise subprocess.CalledProcessError(proc.returncode, step)
    return build_dir / "apollo_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no library sources under {root / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end" if args.trace == "0" else "per_layer"]]
    try:
        binary = build(root, root / ".bench_build" / "perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--metrics", ",".join(metrics), "--source-hash", source_hash(root)]
    timeout = args.seconds + SETUP_MARGIN_S
    with subprocess.Popen(command, cwd=root) as child:
        try:
            return child.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"run.py: benchmark exceeded {timeout:g} s", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
