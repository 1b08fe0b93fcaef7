#!/usr/bin/env python3
"""Self-test for compare.py against the checked-in fixtures.

Exercises the three exit-code contracts:
  0 — ok/improved result sets pass,
  1 — a >threshold throughput drop is flagged as a regression,
  2 — schema mismatches, cross-host pairs and bad usage are reported as
      errors,
plus the --allow-cross-host override and the --min-ops noise floor (the tiny "noisy" row regresses by 80%
in the regressed fixture but must be skipped, so exactly one regression
is reported there).
"""

import io
import os
import sys
from contextlib import redirect_stdout, redirect_stderr

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402

FIXTURES = os.path.join(HERE, "fixtures")
BASELINE = os.path.join(FIXTURES, "baseline")
REGRESSED = os.path.join(FIXTURES, "regressed")
OK = os.path.join(FIXTURES, "ok")
BAD_SCHEMA = os.path.join(FIXTURES, "bad_schema")
# Same rows as BASELINE, from a host with fewer hardware threads and from
# a sanitizer build without telemetry.
OTHER_HOST = os.path.join(FIXTURES, "other_host")
OTHER_BUILD = os.path.join(FIXTURES, "other_build")

failures = []


def check(name, argv, want_exit, want_stdout_contains=()):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        got = compare.main(argv)
    text = out.getvalue() + err.getvalue()
    if got != want_exit:
        failures.append(f"{name}: exit {got}, want {want_exit}\n{text}")
        return
    for needle in want_stdout_contains:
        if needle not in text:
            failures.append(f"{name}: output missing {needle!r}\n{text}")


# Clean comparison: improvements and a new row, no regressions.
check("ok-vs-baseline", [BASELINE, OK], 0,
      ["0 regression(s)", "only-in-current"])

# Identity comparison is trivially clean.
check("identity", [BASELINE, BASELINE], 0, ["0 regression(s)"])

# The regressed fixture drops HCF t=1 by 60% (flagged) and the noisy row
# by 80% (skipped: under --min-ops); TLE drops only ~2% (within threshold).
check("regression-flagged", [BASELINE, REGRESSED], 1,
      ["REGRESSION", "1 regression(s)", "demo/40f/30i/30r/HCF t=1"])

# A tighter threshold also catches the small TLE drop.
check("tight-threshold", [BASELINE, REGRESSED, "--threshold=0.01"], 1,
      ["2 regression(s)"])

# Lowering the noise floor exposes the noisy row too.
check("min-ops-floor", [BASELINE, REGRESSED, "--min-ops=1"], 1,
      ["2 regression(s)", "demo/noisy/HCF"])

# Schema mismatch and missing paths are usage errors, not regressions.
check("bad-schema", [BASELINE, BAD_SCHEMA], 2, ["unexpected schema"])
check("missing-path", [BASELINE, os.path.join(FIXTURES, "nope")], 2, [])
check("bad-threshold", [BASELINE, OK, "--threshold=2.0"], 2, [])

# Cross-host pairs are refused, naming each differing field...
check("cross-host-threads", [BASELINE, OTHER_HOST], 2,
      ["hardware_threads 4 -> 1", "--allow-cross-host"])
check("cross-host-build", [BASELINE, OTHER_BUILD], 2,
      ["sanitizer 'none' -> 'thread'", "telemetry True -> False"])
# ...unless the override is given, which compares the rows as usual.
check("cross-host-allowed", [BASELINE, OTHER_HOST, "--allow-cross-host"], 0,
      ["host mismatch in demo", "0 regression(s)"])

if failures:
    print("perflab selftest FAILED:", file=sys.stderr)
    for f in failures:
        print(f"  - {f}", file=sys.stderr)
    sys.exit(1)
print(f"perflab selftest OK ({11} checks)")
