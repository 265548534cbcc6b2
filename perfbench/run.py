#!/usr/bin/env python3
"""The repo benchmark: build the sov libraries and the perfbench program
from source, check the benchmark's own arithmetic, run one workload and
print its result.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload sweep|fuzz|serve|frame --seed N \
      --seconds S --trace 0|1

The build lives in .bench_build/perfbench (CMake, RelWithDebInfo, the
repository's default build type). The last line of standard output is
one JSON object: correct, attempted, failed and metrics. Any failure
(build, self-test, run, malformed result) exits non-zero without
printing a result.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build; serialized by a lock file."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no sov sources next to the benchmark (src/CMakeLists.txt)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                log.flush()
                with open(log_path, encoding="utf-8",
                          errors="replace") as fh:
                    sys.stderr.write("".join(fh.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              capture_output=True, text=True, check=False)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout[-4000:] + selftest.stderr[-2000:])
        fail("self-tests of the benchmark arithmetic failed")


def source_id():
    """Digest of every source the program is built from: the checkout
    is not a git repository, so this stands in for the commit."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return "src-" + digest.hexdigest()[:12]


def check_result(result, trace):
    """Why @p result breaks the contract of BENCHMARK.json, or None."""
    if set(result) != RESULT_KEYS:
        return "keys %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)))
    for name, metric in got.items():
        if metric.get("unit") != want[name]:
            return "%s unit %r, declared %r" % (name, metric.get("unit"),
                                                want[name])
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "%s value %r" % (name, value)
        if not trace and value == 0:
            return "%s is 0" % name
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one workload of the repo benchmark.",
        allow_abbrev=False)
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "fuzz", "serve", "frame"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    trace_out = os.path.join(
        BUILD, "trace-%s-%d.json" % (args.workload, args.seed))
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_out, "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write((exc.stdout or b"").decode(errors="replace")
                         if isinstance(exc.stdout, bytes)
                         else (exc.stdout or ""))
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("perfbench exited with code %d" % proc.returncode,
             proc.returncode if proc.returncode > 0 else 1)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(proc.stdout)
        fail("no result line")
    problem = check_result(result, args.trace)
    if problem:
        sys.stderr.write(proc.stdout)
        fail("malformed result: " + problem)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
