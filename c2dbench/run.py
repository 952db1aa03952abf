#!/usr/bin/env python3
"""Builds the commit->display benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 c2dbench/run.py --workload display_tcp --seed 1 --seconds 20 --trace 0
    python3 c2dbench/run.py --selftest        # checker self-tests + small runs

The benchmark binary is built with CMake under $CARGO_TARGET_DIR (default
.bench_build) in the current directory, then run with the same arguments.
Its last line of standard output is the result JSON, holding exactly the
metrics BENCHMARK.json names for the mode: `end_to_end` with --trace 0,
`per_layer` with --trace 1. A per-layer metric of a layer the workload does
not use reads 0. With --trace 1 the per-layer table goes to standard error and
the spans to .bench_traces/.
"""

import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
MANIFEST = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def build(build_root):
    """Configures and builds the c2dbench target; returns the binary path."""
    build_dir = os.path.join(build_root, "c2dbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "c2dbench", "-j", jobs],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "c2dbench")


def traced(argv):
    return "--trace" in argv[:-1] and argv[argv.index("--trace") + 1] != "0"


def to_manifest(result, argv):
    """Returns `result` holding exactly the manifest's metrics for the mode,
    or None (with the reason on stderr) when one is missing or mis-unitised.
    """
    with open(MANIFEST) as f:
        manifest = json.load(f)
    per_layer = traced(argv)
    wanted = manifest["per_layer" if per_layer else "end_to_end"]
    have = result["metrics"]
    metrics = {}
    for m in wanted:
        got = have.get(m["name"])
        if got is None and per_layer:
            print("c2dbench: %s not exercised by this workload, reads 0"
                  % m["name"], file=sys.stderr)
            got = {"value": 0, "unit": m["unit"]}
        if got is None or got["unit"] != m["unit"]:
            print("c2dbench: metric %s missing or not in %s"
                  % (m["name"], m["unit"]), file=sys.stderr)
            return None
        metrics[m["name"]] = got
    for name in sorted(set(have) - set(metrics)):
        print("c2dbench: %s not in BENCHMARK.json, left out" % name,
              file=sys.stderr)
    return dict(result, metrics=metrics)


def main(argv):
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        print("c2dbench: build failed: %s" % e, file=sys.stderr)
        return 2
    try:
        proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("c2dbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    out = proc.stdout.decode()
    if proc.returncode != 0 or "--selftest" in argv:
        sys.stdout.write(out)
        return proc.returncode
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(out)
        print("c2dbench: no result line", file=sys.stderr)
        return 4
    if os.path.exists(MANIFEST):
        result = to_manifest(result, argv)
        if result is None:
            return 6
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result.get("attempted", 0) >= 1 else 5


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
