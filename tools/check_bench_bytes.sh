#!/usr/bin/env bash
# Wire-byte regression gate for the throughput sweep.
#
# Compares a freshly emitted BENCH_throughput.json (argument, or
# build/BENCH_throughput.json by default) against the committed baseline
# bench/baselines/BENCH_throughput.json. For every record present in both
# series the data and result category bytes — the two solution-set-bearing
# categories, i.e. the traffic the wire codec compresses — must not exceed
# the baseline by more than the tolerance (default 1%, override with
# AHSW_BENCH_TOLERANCE).
# A regression here means payloads grew or something started charging raw
# sizes again; re-baselining requires a deliberate commit of the new JSON.
#
# Exit codes: 0 within tolerance, 1 regression, 2 usage error.
set -uo pipefail
cd "$(dirname "$0")/.."

baseline=bench/baselines/BENCH_throughput.json
fresh="${1:-${AHSW_BUILD_DIR:-build}/BENCH_throughput.json}"

if [ ! -f "${baseline}" ]; then
  echo "error: committed baseline ${baseline} missing" >&2
  exit 2
fi
if [ ! -f "${fresh}" ]; then
  echo "error: fresh series ${fresh} missing (run bench_throughput first," >&2
  echo "or pass the JSON path as the first argument)" >&2
  exit 2
fi

python3 - "${baseline}" "${fresh}" <<'PY'
import json
import os
import sys

tolerance = float(os.environ.get("AHSW_BENCH_TOLERANCE", "0.01"))

def payload_bytes(record):
    by = record.get("traffic_by_category", {})
    return {cat: by.get(cat, {}).get("bytes", 0) for cat in ("data", "result")}

def load(path):
    with open(path) as f:
        series = json.load(f)
    return {r["bench"]: payload_bytes(r) for r in series.get("records", [])}

base = load(sys.argv[1])
fresh = load(sys.argv[2])

shared = sorted(base.keys() & fresh.keys())
if not shared:
    print("error: no common bench records between baseline and fresh series",
          file=sys.stderr)
    sys.exit(2)

failed = False
for bench in shared:
    for cat in ("data", "result"):
        b, f = base[bench][cat], fresh[bench][cat]
        limit = b * (1.0 + tolerance)
        verdict = "ok"
        if f > limit:
            verdict = "REGRESSION"
            failed = True
        print(f"{bench:34s} {cat:6s} baseline={b:9d} fresh={f:9d} {verdict}")
for bench in sorted(fresh.keys() - base.keys()):
    print(f"{bench:34s} (new record, no baseline — commit a re-baseline)")

if failed:
    print("error: wire payload bytes regressed beyond "
          f"{tolerance:.0%} of the committed baseline; if the growth is "
          "intentional, re-baseline bench/baselines/BENCH_throughput.json "
          "in the same commit", file=sys.stderr)
    sys.exit(1)
print("wire payload bytes within tolerance of the committed baseline")
PY
