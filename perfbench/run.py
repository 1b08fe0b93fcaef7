#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload ht_update --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ with CMake (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later calls only rebuild what
changed. The program's stdout is passed through, so its last line is the
JSON result. Full results (fingerprint, metric bases, spans) and the traced
run's per-op records go to the results/ directory beside the build.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ht_update", "ht_read", "pq_combine")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    if not (ROOT / "src" / "sim_htm" / "htm.cpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    try:
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(out), "--target", target,
                        "-j", jobs], check=True, **quiet)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    return out / target


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, env=env,
                           timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.selftest:
        test = build("perfbench_test")
        sys.exit(subprocess.run([str(test)], timeout=RUN_TIMEOUT_S).returncode)
    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    binary = build("perfbench")
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.pop("HCF_TELEMETRY_ENABLE", None)  # keep the runtime gate off
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-commit", git_commit(), "--out-dir", str(results)]
    try:
        r = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
