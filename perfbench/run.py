#!/usr/bin/env python3
"""Entry point of the hbguardd pipeline benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds hbguardd and the load generator
(perfbench/hbgbench.cpp) from source into .bench_build/ (Release), then runs
one measurement. The offered record rate and the operator-RPC rate of each
workload are read from its `why` line in BENCHMARK.json ("paced <n> rec/s",
"RPCs <n>/s"), so the file that names a workload also fixes its load.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; anything before it is
diagnostics. Exits non-zero, without a result, when the build or the run
fails.
"""
import argparse
import json
import os
import re
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def workload_load(name):
    """(offered records/s, RPCs/s) stated in the workload's BENCHMARK.json line;
    a workload without "RPCs <n>/s" sends none."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        if workload["name"] == name:
            why = workload["why"]
            rate = re.search(r"paced (\d+) rec/s", why)
            rpcs = re.search(r"RPCs (\d+)/s", why)
            if not rate:
                raise SystemExit(f"perfbench: workload {name} states no paced rate in its why line")
            return int(rate.group(1)), int(rpcs.group(1)) if rpcs else 0
    raise SystemExit(f"perfbench: unknown workload {name}")


def build(build_dir):
    """Configure once, then (re)build the two binaries; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "hbguardd", "hbgbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("build timed out")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile("BENCHMARK.json") or not os.path.isdir("perfbench"):
        log("run from the root of a checkout")
        return 2
    rate, rpc_rate = workload_load(args.workload)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        return 1

    work = os.path.join(build_dir, "work", args.workload)
    os.makedirs(work, exist_ok=True)
    command = [
        os.path.join(build_dir, "hbgbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--daemon", os.path.join(build_dir, "hbguard", "hbguardd"),
        "--work", work,
        "--rate", str(rate),
        "--rpc-rate", str(rpc_rate),
    ]
    # Own process group, so a timeout takes the spawned daemon down as well.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("run timed out")
        return 1
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log(f"hbgbench exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("hbgbench printed no result line")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
