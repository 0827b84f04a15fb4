#!/usr/bin/env bash
# Regression gate for a deterministic simulated bench series.
#
# Compares a freshly emitted series (argument, or build/<baseline file name>
# by default) against a committed baseline: --baseline PATH, by default
# bench/baselines/BENCH_throughput.json (the throughput sweep). The
# primitive-strategy sweep is gated against bench/baselines/
# BENCH_primitive.json, the churn availability sweep against
# bench/baselines/BENCH_churn.json, the E14-P bulk batch against
# bench/baselines/BENCH_parallel.json and the E9 scalability series against
# bench/baselines/BENCH_scalability.json the same way. Three checks:
#   - every baseline record must be present in the fresh series, so a sweep
#     that dies part way through fails instead of passing on what it wrote;
#   - the simulated counters of every record are deterministic and must
#     equal the baseline exactly: queries, messages, bytes, raw_bytes,
#     timeouts, response_ms, traffic_by_category, timeouts_by_category and
#     each phase's spans/messages/bytes/timeouts;
#   - the data and result category bytes — the two solution-set-bearing
#     categories, i.e. the traffic the wire codec compresses — must not
#     exceed the baseline by more than the tolerance (default 1%, override
#     with AHSW_BENCH_TOLERANCE).
# A failure here means the simulation changed: payloads grew, something
# started charging raw sizes again, or a plan, route or retry moved.
# Re-baselining requires a deliberate commit of the new JSON.
#
# Every series is gated the same way, whatever produced it: a
# `bench_throughput --workers N` run traces like the serial one, so its
# phases are compared too.
#
# Usage: check_bench_bytes.sh [--baseline PATH] [FRESH_JSON]
# A relative PATH or FRESH_JSON names a file under the caller's directory;
# the defaults are relative to the repo root.
# Exit codes: 0 all checks pass, 1 regression, 2 usage error.
set -uo pipefail
caller="$(pwd)"
cd "$(dirname "$0")/.."

# An argument as the caller meant it, once the script runs from the root.
from_caller() {
  case "$1" in
    /*) printf '%s' "$1" ;;
    *) printf '%s/%s' "${caller}" "$1" ;;
  esac
}

usage="usage: $0 [--baseline PATH] [FRESH_JSON]"
baseline=bench/baselines/BENCH_throughput.json
while [ $# -gt 0 ]; do
  case "$1" in
    --baseline)
      if [ $# -lt 2 ]; then
        echo "${usage}" >&2
        exit 2
      fi
      baseline="$(from_caller "$2")"
      shift 2
      ;;
    -*)
      echo "${usage}" >&2
      exit 2
      ;;
    *)
      break
      ;;
  esac
done
if [ $# -gt 1 ]; then
  echo "${usage}" >&2
  exit 2
fi

if [ $# -eq 1 ]; then
  fresh="$(from_caller "$1")"
else
  fresh="${AHSW_BUILD_DIR:-build}/$(basename "${baseline}")"
fi

if [ ! -f "${baseline}" ]; then
  echo "error: committed baseline ${baseline} missing" >&2
  exit 2
fi
if [ ! -f "${fresh}" ]; then
  echo "error: fresh series ${fresh} missing (run the bench binary first," >&2
  echo "or pass the JSON path as the first argument)" >&2
  exit 2
fi

python3 - "${baseline}" "${fresh}" <<'PY'
import json
import os
import sys

tolerance = float(os.environ.get("AHSW_BENCH_TOLERANCE", "0.01"))

# Simulated counters that must match the baseline exactly.
EXACT_FIELDS = ("queries", "messages", "bytes", "raw_bytes", "timeouts",
                "response_ms", "traffic_by_category", "timeouts_by_category")
PHASE_FIELDS = ("spans", "messages", "bytes", "timeouts")

def payload_bytes(record):
    by = record.get("traffic_by_category", {})
    return {cat: by.get(cat, {}).get("bytes", 0) for cat in ("data", "result")}

def flatten(prefix, value, view):
    if isinstance(value, dict):
        for key, inner in value.items():
            flatten(f"{prefix}.{key}", inner, view)
    else:
        view[prefix] = value

def exact_view(record):
    view = {}
    for field in EXACT_FIELDS:
        flatten(field, record.get(field), view)
    for phase in record.get("phases", []):
        for field in PHASE_FIELDS:
            view[f"phases[{phase['phase']}].{field}"] = phase.get(field)
    return view

def load(path):
    with open(path) as f:
        series = json.load(f)
    return {r["bench"]: r for r in series.get("records", [])}

base = load(sys.argv[1])
fresh = load(sys.argv[2])

missing = sorted(base.keys() - fresh.keys())
for bench in missing:
    print(f"{bench:34s} MISSING from the fresh series")

shared = sorted(base.keys() & fresh.keys())
if not shared and not missing:
    print("error: no common bench records between baseline and fresh series",
          file=sys.stderr)
    sys.exit(2)

failed = False
for bench in shared:
    for cat in ("data", "result"):
        b = payload_bytes(base[bench])[cat]
        f = payload_bytes(fresh[bench])[cat]
        limit = b * (1.0 + tolerance)
        verdict = "ok"
        if f > limit:
            verdict = "REGRESSION"
            failed = True
        print(f"{bench:34s} {cat:6s} baseline={b:9d} fresh={f:9d} {verdict}")
for bench in sorted(fresh.keys() - base.keys()):
    print(f"{bench:34s} (new record, no baseline — commit a re-baseline)")

drifted = False
for bench in shared:
    want = exact_view(base[bench])
    got = exact_view(fresh[bench])
    diffs = [k for k in sorted(want.keys() | got.keys())
             if want.get(k) != got.get(k)]
    for k in diffs:
        print(f"{bench:34s} {k}: baseline={want.get(k)} fresh={got.get(k)} "
              "DRIFT")
    if diffs:
        drifted = True
    else:
        print(f"{bench:34s} simulated counters exact")

if missing:
    print(f"error: {len(missing)} baseline record(s) missing from the fresh "
          "series; the sweep did not complete", file=sys.stderr)
if drifted:
    print("error: simulated counters differ from the committed baseline; "
          "they are deterministic, so any drift is a behaviour change — if "
          f"it is intentional, re-baseline {sys.argv[1]} in the same commit",
          file=sys.stderr)
if failed:
    print("error: wire payload bytes regressed beyond "
          f"{tolerance:.0%} of the committed baseline; if the growth is "
          f"intentional, re-baseline {sys.argv[1]} in the same commit",
          file=sys.stderr)
if failed or missing or drifted:
    sys.exit(1)
print("wire payload bytes within tolerance of the committed baseline")
print(f"simulated counters equal the committed baseline on all {len(shared)} "
      "records")
PY
