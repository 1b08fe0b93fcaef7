#!/usr/bin/env python3
"""Check every table bench's command-line contract without measuring.

For each binary in run.py's TABLE_BENCHES, ``--workload=bogus`` must exit 2
(a --workload that tags no panel is a typo, not an empty sweep) and
``--help`` must exit 0. Both exit before any measurement window starts.

    tools/perflab/workload_flag_check.py --bench-dir build/bench

Exit status: 0 when every bench honours the contract, 1 otherwise.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import TABLE_BENCHES  # noqa: E402

# Generous: a bench that ignored the flag would run its whole sweep, and
# the timeout turns that into a failure instead of a stalled suite.
TIMEOUT_S = 60


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", required=True,
                        help="directory containing the bench binaries")
    args = parser.parse_args(argv)

    failures = []
    for bench in TABLE_BENCHES:
        binary = os.path.join(args.bench_dir, bench)
        for flag, want in (("--workload=bogus", 2), ("--help", 0)):
            try:
                got = subprocess.run([binary, flag], stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL,
                                     timeout=TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as exc:
                got = f"{type(exc).__name__}"
            if got != want:
                failures.append(f"{bench} {flag}: exit {got}, want {want}")

    for line in failures:
        print(f"FAIL {line}")
    print(f"{len(TABLE_BENCHES)} bench(es), {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
