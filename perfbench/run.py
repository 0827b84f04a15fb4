#!/usr/bin/env python3
"""Build and run the repository's benchmark program.

    python3 perfbench/run.py --workload <mixed|point-zipf|publish-churn> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

`--workload all` runs the three workloads one after another; each prints
its own result line.

Run from the repository root. The first call configures and builds
perfbench/ (the repository's runtime modules plus the benchmark program)
with CMake into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls only rebuild what changed. Build output goes to standard error, so
the program's last line of standard output stays its JSON result. Traced
runs write their span file to <build dir>/traces/. See perfbench/README.md.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mixed", "point-zipf", "publish-churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; stop on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "dqp", "processor.hpp")):
        fail("repository sources not found next to perfbench/ (need src/)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench")


def run_bench(binary, args, capture=False):
    cmd = [binary] + args + ["--trace-dir", os.path.join(build_dir(), "traces")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S, 4)
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = [l for l in (stdout or "").strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest(binary):
    """Tiny-size runs: every metric of BENCHMARK.json is emitted with its
    unit, the outputs check out, and a planted wrong answer is caught."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
              "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            rc, out = run_bench(binary, [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", trace, "--size", "tiny"], capture=True)
            res = last_json(out) if rc == 0 else None
            where = "%s --trace %s" % (workload, trace)
            if res is None:
                problems.append(where + ": exit %d, no result" % rc)
                continue
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(where + ": output check failed: %r" % {
                    k: res[k] for k in ("correct", "attempted", "failed")})
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(where + ": metrics differ from BENCHMARK.json:"
                                " missing %s, unexpected %s, unit mismatch %s" % (
                                    sorted(set(wanted[trace]) - set(got)),
                                    sorted(set(got) - set(wanted[trace])),
                                    sorted(k for k in got if k in wanted[trace]
                                           and got[k] != wanted[trace][k])))
    for workload in WORKLOADS:
        rc, out = run_bench(binary, [
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", "0", "--size", "tiny", "--plant-wrong-answer"],
            capture=True)
        res = last_json(out) if rc == 0 else None
        if res is None or res["correct"] or res["failed"] < 1:
            problems.append(workload + ": planted wrong answer not caught: %r"
                            % res)
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("ok" if not problems else
                            "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main(argv):
    binary = build()
    if argv == ["--selftest"]:
        return selftest(binary)
    at = argv.index("--workload") + 1 if "--workload" in argv else -1
    if 0 < at < len(argv) and argv[at] == "all":
        return max(run_bench(binary, argv[:at] + [w] + argv[at + 1:])[0]
                   for w in WORKLOADS)
    rc, _ = run_bench(binary, argv)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
