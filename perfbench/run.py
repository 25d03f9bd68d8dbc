#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, then run it.

    python3 perfbench/run.py --workload headline --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds
the `mcd` library and the perfbench binary (Release) into the build
directory: $CARGO_TARGET_DIR if set, else .bench_build.  Build output
goes to <build dir>/build.log; stdout carries only the binary's
output, whose last line is the result JSON.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kw):
    try:
        return subprocess.run(cmd, timeout=timeout, check=False, **kw)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if run(cmd, BUILD_TIMEOUT_S, stdout=log,
                   stderr=subprocess.STDOUT).returncode != 0:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def check_benchmark_json(binary):
    """BENCHMARK.json must list exactly the binary's workloads and
    metrics, in the binary's order."""
    out = run([binary, "--list-metrics"], RUN_TIMEOUT_S,
              stdout=subprocess.PIPE, text=True)
    table = json.loads(out.stdout)
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    ok = True
    got = [w["name"] for w in bench["workloads"]]
    if got != table["workloads"]:
        print(f"FAIL BENCHMARK.json workloads {got} != {table['workloads']}")
        ok = False
    for key in ("end_to_end", "per_layer"):
        got = [{k: m[k] for k in ("name", "unit", "better")}
               for m in bench[key]]
        if got != table[key]:
            print(f"FAIL BENCHMARK.json {key} differs from the binary's "
                  "metric table")
            ok = False
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json matches the binary")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="0")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    digests = os.path.join(HERE, "digests")

    if args.self_test:
        rc = run([binary, "--self-test", "--digests", digests],
                 RUN_TIMEOUT_S).returncode
        sys.exit(0 if check_benchmark_json(binary) and rc == 0 else 1)

    if not args.workload:
        fail("--workload is required")
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--digests", digests, "--out", out_dir]
    sys.stdout.flush()
    sys.exit(run(cmd, RUN_TIMEOUT_S).returncode)


if __name__ == "__main__":
    main()
