#!/usr/bin/env python3
"""Diff two hcf-bench-v1 result sets with noise-aware thresholds.

    tools/perflab/compare.py BASELINE CURRENT [--threshold=0.25] [--min-ops=2000]
                             [--allow-cross-host]

BASELINE and CURRENT are each either a single ``BENCH_*.json`` file or a
directory containing several. Rows are matched on the key
(bench, workload, engine, threads, cs_work); throughput (``ops_per_sec``)
is the compared metric.

A row is a *regression* when current throughput falls below
``baseline * (1 - threshold)``. Rows where either side completed fewer
than ``--min-ops`` operations are skipped as noise (short CI windows on
shared machines produce wild ratios on tiny samples). Rows present on
only one side are reported but never fail the comparison — sweeps grow.

Both sides must come from alike hosts: for every bench present on both
sides, the ``host`` objects must agree on ``hardware_threads``,
``sanitizer`` and ``telemetry``. A mismatch is reported and refused
unless ``--allow-cross-host`` is given.

Exit status: 0 clean (improvements are fine), 1 at least one regression,
2 usage/schema errors or a refused cross-host comparison.
"""

import argparse
import glob
import json
import os
import sys

SCHEMA = "hcf-bench-v1"
# Host fields that change throughput enough to make a diff meaningless.
HOST_KEYS = ("hardware_threads", "sanitizer", "telemetry")


def load_result_files(path):
    """Yield parsed JSON documents from a file or a directory of BENCH_*.json."""
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "BENCH_*.json")))
        if not files:
            raise ValueError(f"no BENCH_*.json files in {path}")
    elif os.path.isfile(path):
        files = [path]
    else:
        raise ValueError(f"no such file or directory: {path}")
    for name in files:
        with open(name, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("schema") != SCHEMA:
            raise ValueError(f"{name}: unexpected schema {doc.get('schema')!r}")
        yield name, doc


def index_rows(path):
    """Return ({(bench, workload, engine, threads, cs_work): row},
    {bench: host})."""
    rows = {}
    hosts = {}
    for name, doc in load_result_files(path):
        bench = doc.get("bench", "?")
        hosts[bench] = doc.get("host") or {}
        for row in doc.get("results", []):
            try:
                key = (bench, row["workload"], row["engine"],
                       int(row["threads"]), int(row["cs_work"]))
                float(row["ops_per_sec"])
                int(row["ops"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{name}: malformed row ({exc})")
            rows[key] = row
    return rows, hosts


def host_mismatches(base_hosts, curr_hosts):
    """Yield (bench, field, baseline value, current value) per difference."""
    for bench in sorted(set(base_hosts) & set(curr_hosts)):
        for field in HOST_KEYS:
            b = base_hosts[bench].get(field)
            c = curr_hosts[bench].get(field)
            if b != c:
                yield bench, field, b, c


def fmt_key(key):
    bench, workload, engine, threads, cs_work = key
    return f"{bench}/{workload}/{engine} t={threads} w={cs_work}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline file or directory")
    parser.add_argument("current", help="current file or directory")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional throughput drop (default 0.25)")
    parser.add_argument("--min-ops", type=int, default=2000,
                        help="skip rows where either side did fewer ops")
    parser.add_argument("--allow-cross-host", action="store_true",
                        help="compare even if the host fields differ")
    args = parser.parse_args(argv)

    if not (0.0 < args.threshold < 1.0):
        print("error: --threshold must be in (0, 1)", file=sys.stderr)
        return 2

    try:
        base, base_hosts = index_rows(args.baseline)
        curr, curr_hosts = index_rows(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    mismatches = list(host_mismatches(base_hosts, curr_hosts))
    for bench, field, b, c in mismatches:
        print(f"[compare] host mismatch in {bench}: {field} {b!r} -> {c!r}")
    if mismatches and not args.allow_cross_host:
        print("error: baseline and current ran on different hosts; "
              "pass --allow-cross-host to compare anyway", file=sys.stderr)
        return 2

    regressions = []
    compared = skipped = 0
    for key in sorted(base):
        if key not in curr:
            print(f"[compare] only-in-baseline: {fmt_key(key)}")
            continue
        b, c = base[key], curr[key]
        if int(b["ops"]) < args.min_ops or int(c["ops"]) < args.min_ops:
            skipped += 1
            continue
        compared += 1
        b_tput = float(b["ops_per_sec"])
        c_tput = float(c["ops_per_sec"])
        if b_tput <= 0.0:
            continue
        ratio = c_tput / b_tput
        if ratio < 1.0 - args.threshold:
            regressions.append((key, b_tput, c_tput, ratio))
    for key in sorted(set(curr) - set(base)):
        print(f"[compare] only-in-current: {fmt_key(key)}")

    for key, b_tput, c_tput, ratio in regressions:
        print(f"[compare] REGRESSION {fmt_key(key)}: "
              f"{b_tput:.0f} -> {c_tput:.0f} ops/s ({100.0 * (ratio - 1.0):+.1f}%)")
    print(f"[compare] compared {compared} rows, skipped {skipped} below "
          f"--min-ops={args.min_ops}, threshold {100.0 * args.threshold:.0f}%: "
          f"{len(regressions)} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
