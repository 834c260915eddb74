#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 wlbench/run.py --workload fe16_serve --seed 1 --seconds 25 --trace 0

`--workload all` runs every workload of BENCHMARK.json in turn and exits
nonzero if any of them failed a correctness gate. Trace runs also leave the
traced phase's spans in .bench_build/traces/<workload>-<seed>.json (load it
in Perfetto).

The first run configures and builds wlbench/ (the repository's src/
libraries plus the wl_e2e binary) into .bench_build/; later runs only
re-check it. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The metric names in that line are checked against
BENCHMARK.json; a mismatch, a failed build or a run past the time limit
exits nonzero without a result.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "wl_e2e", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "wl_e2e")


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def option(argv, name):
    """Value following `name` in argv, or None."""
    return argv[argv.index(name) + 1] if name in argv[:-1] else None


def run_one(binary, argv):
    if option(argv, "--trace") == "1" and "--trace-out" not in argv:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        name = f"{option(argv, '--workload')}-{option(argv, '--seed')}.json"
        argv = argv + ["--trace-out", os.path.join(traces, name)]
    try:
        proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded its time limit", file=sys.stderr)
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print(f"run.py: wl_e2e exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 2
    result = json.loads(lines[-1])
    missing = expected_metrics(option(argv, "--trace") == "1") ^ \
        set(result["metrics"])
    if missing:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"run.py: metrics differ from BENCHMARK.json: "
              f"{sorted(missing)}", file=sys.stderr)
        return 2
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main(argv):
    if not os.path.exists(os.path.join("src", "CMakeLists.txt")):
        print("run.py: run from the repository root (no src/ here)",
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if option(argv, "--workload") == "all":
        at = argv.index("--workload") + 1
        with open("BENCHMARK.json") as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        codes = [run_one(binary, argv[:at] + [name] + argv[at + 1:])
                 for name in names]
        return max(codes)
    return run_one(binary, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
