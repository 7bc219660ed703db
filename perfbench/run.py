#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The benchmark binary is built
from source (Release) under $CARGO_TARGET_DIR, default .bench_build.
--trace 0 prints the end-to-end metrics; --trace 1 traces every other
round and prints the per-layer metrics plus the tracing overhead (the
traced rounds' end-to-end figures against the untraced rounds' of the
same process). The metric names and units come from BENCHMARK.json at
the checkout root.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_BUDGET_S = 170  # the binary's run, from the start of main
CORRECTNESS_EXIT = 3  # xjbench: a result differed from its reference


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures once, then (re)builds xjbench; returns its path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("program sources missing: no %s in the checkout" % needed)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", build_dir, "--target", "xjbench", "-j", jobs])
    return os.path.join(build_dir, "xjbench"), build_dir


def step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          universal_newlines=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-6000:])
        fail("build step failed: " + " ".join(cmd))


def run_binary(binary, args, deadline, trace_out=None):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if args.corrupt_expected:
        cmd += ["--corrupt-expected", args.corrupt_expected]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, universal_newlines=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("xjbench did not finish within %d s" % RUN_BUDGET_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode == CORRECTNESS_EXIT:
        sys.stdout.write("\n".join(lines) + "\n")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        sys.exit(1)
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("xjbench exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return result


def pick(spec_metrics, measured):
    out = {}
    for m in spec_metrics:
        if m["name"] not in measured:
            fail("xjbench did not report metric " + m["name"])
        value = measured[m["name"]]
        if value["unit"] != m["unit"]:
            fail("unit mismatch for %s: %s vs %s"
                 % (m["name"], value["unit"], m["unit"]))
        out[m["name"]] = {"value": value["value"], "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the benchmark's tests")
    parser.add_argument("--corrupt-expected", nargs="?", const="result",
                        choices=("result", "replay"),
                        help="corrupt one expected read result (default) or "
                             "the replayed final state; the run must fail")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (one of %s)" % (args.workload, names))
    binary, build_dir = build()

    deadline = time.monotonic() + RUN_BUDGET_S
    trace_out = None
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(
            trace_dir, "%s-seed%d.csv" % (args.workload, args.seed))
    final = run_binary(binary, args, deadline, trace_out)
    metrics = pick(spec["per_layer" if args.trace else "end_to_end"],
                   final["metrics"])
    print("context " + json.dumps(final["context"], sort_keys=True))
    print(json.dumps({"correct": True, "attempted": final["attempted"],
                      "failed": final["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
