#!/usr/bin/env python3
"""Orchestrate benchmark sweeps into machine-readable result sets.

Runs the repo's bench binaries with --json and collects one
``BENCH_<name>.json`` (hcf-bench-v1 schema) per binary, by default at the
repository root so ``compare.py`` and CI can pick them up by glob.

Typical uses:

    tools/perflab/run.py --quick            # CI perf smoke (~1 min)
    tools/perflab/run.py                    # full paper sweep (slow)
    tools/perflab/run.py --only=fig2_hash_table --threads=1,2,4

Exit status: 0 when every selected bench produced schema-valid JSON,
1 when any bench failed or emitted invalid output, 2 on usage errors.
"""

import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SCHEMA = "hcf-bench-v1"

# Every table/figure binary speaks the common BenchOptions flags; the
# google-benchmark substrate binary only understands --quick/--json.
TABLE_BENCHES = [
    "fig2_hash_table",
    "fig3_phase_breakdown",
    "fig4_combining_stats",
    "fig5_avl_tree",
    "fig6_sharded",
    "fig7_oversub",
    "fig8_parallel_combine",
    "fig9_reclaim",
    "pq_motivation",
    "deque_two_ends",
    "list_combining",
    "stack_elimination",
    "ablation_hcf_variants",
    "ablation_trials",
]
SUBSTRATE_BENCHES = ["micro_substrate", "micro_engine"]

# The quick profile keeps total runtime around a minute on one core: a
# subset of benches, two thread counts, and short measurement windows.
QUICK_BENCHES = ["fig2_hash_table", "fig4_combining_stats", "fig6_sharded",
                 "fig7_oversub", "fig8_parallel_combine", "fig9_reclaim",
                 "micro_substrate", "micro_engine"]
QUICK_ARGS = ["--threads=1,2", "--duration-ms=50", "--warmup-ms=10"]
QUICK_WORKLOAD = {"fig2_hash_table": "40f", "fig6_sharded": "40f",
                  "fig7_oversub": "paper", "fig8_parallel_combine": "paper",
                  "fig9_reclaim": "retire-micro"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short CI-smoke sweep (subset of benches)")
    parser.add_argument("--only", default="",
                        help="comma-separated bench names to run")
    parser.add_argument("--bench-dir", default=os.path.join(REPO_ROOT, "build", "bench"),
                        help="directory containing the bench binaries")
    parser.add_argument("--out-dir", default=REPO_ROOT,
                        help="where BENCH_<name>.json files are written")
    parser.add_argument("--threads", default="",
                        help="thread counts forwarded to the benches")
    parser.add_argument("--duration-ms", default="",
                        help="measurement window forwarded to the benches")
    return parser.parse_args(argv)


def validate(path):
    """Minimal schema check on a produced result file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unexpected schema: {data.get('schema')!r}")
    results = data.get("results")
    if not isinstance(results, list) or not results:
        raise ValueError("empty results array")
    for row in results:
        for key in ("workload", "engine", "threads", "cs_work",
                    "ops", "duration_s", "ops_per_sec"):
            if key not in row:
                raise ValueError(f"row missing key {key!r}")
    return len(results)


def main(argv=None):
    args = parse_args(argv)

    benches = TABLE_BENCHES + SUBSTRATE_BENCHES
    if args.quick:
        benches = QUICK_BENCHES
    if args.only:
        selected = [b.strip() for b in args.only.split(",") if b.strip()]
        unknown = [b for b in selected if b not in TABLE_BENCHES + SUBSTRATE_BENCHES]
        if unknown:
            print(f"error: unknown bench(es): {', '.join(unknown)}", file=sys.stderr)
            return 2
        benches = selected

    if not os.path.isdir(args.bench_dir):
        print(f"error: bench dir not found: {args.bench_dir} (build first)",
              file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)

    failures = 0
    for bench in benches:
        binary = os.path.join(args.bench_dir, bench)
        if not os.path.isfile(binary):
            print(f"[perflab] SKIP {bench}: binary not built", file=sys.stderr)
            failures += 1
            continue
        out_path = os.path.join(args.out_dir, f"BENCH_{bench}.json")
        cmd = [binary, f"--json={out_path}"]
        if bench in SUBSTRATE_BENCHES:
            if args.quick:
                cmd.append("--quick")
        else:
            if args.quick:
                cmd.extend(QUICK_ARGS)
                workload = QUICK_WORKLOAD.get(bench)
                if workload:
                    cmd.append(f"--workload={workload}")
            if args.threads:
                cmd.append(f"--threads={args.threads}")
            if args.duration_ms:
                cmd.append(f"--duration-ms={args.duration_ms}")
        print(f"[perflab] RUN  {bench}: {' '.join(cmd[1:])}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"[perflab] FAIL {bench}: exit {proc.returncode}", file=sys.stderr)
            failures += 1
            continue
        try:
            rows = validate(out_path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"[perflab] FAIL {bench}: invalid output ({exc})", file=sys.stderr)
            failures += 1
            continue
        print(f"[perflab] OK   {bench}: {rows} rows -> {out_path}", flush=True)

    if failures:
        print(f"[perflab] {failures} bench(es) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
