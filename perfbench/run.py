#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the ft2 library and the benchmark driver from this source tree (into
.bench_build/ at the repo root), runs one workload and prints its result:

    python3 perfbench/run.py --workload chat-ft2 --seed 1 --seconds 20 --trace 0

The driver's '#' lines describe the host and the run; the last stdout line is
the result JSON, checked here against BENCHMARK.json (every end-to-end metric
with --trace 0, every per-layer metric with --trace 1, each with its unit).
Exits nonzero without a result line when the build fails, the driver fails,
or the result does not match BENCHMARK.json. See perfbench/README.md.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
EXE = BUILD / "ft2_perfbench"
# The driver must finish well inside the 180 s a run may take after the build.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    """Runs a build step with its output on stderr; fails the run on error."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"{what} failed (exit {proc.returncode})")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no ft2 source tree around {HERE}; nothing to build")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(BUILD), "--target", "ft2_perfbench",
               "-j", jobs], "cmake build")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(result, trace):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, wrong unit {wrong}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["chat-ft2", "rag-shared", "campaign-ft2"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    build()
    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(BUILD / f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        fail(f"driver exited with {proc.returncode} and no result")
    check_result(result, args.trace)
    if proc.returncode != 0 or result["correct"] is not True:
        # Verification failed: show what was measured, but fail the run.
        print(json.dumps(result))
        fail(f"outputs failed verification (driver exit {proc.returncode})")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
