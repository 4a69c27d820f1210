#!/usr/bin/env python3
"""Steadiness runner for the hbguardd pipeline benchmark.

Run each workload N times (one seed per run) and print, for every
end-to-end metric, its median, quartiles, sample count and quartile spread
as a share of the median, against the metric's bound in BENCHMARK.json.
A second set of runs can be compared with a first one: the second median
may not be worse than the first by more than the bound.

    python3 perfbench/steady.py run --runs 10 [--workloads churn,...]
                                    [--first-seed 1] [--out set-a.json]
    python3 perfbench/steady.py compare set-a.json set-b.json

Run from the root of a checkout; `run` calls perfbench/run.py, which
builds on first use. Raw results go to --out (default
.bench_build/steady/<timestamp>.json).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds, keep_dir=None):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"seed": seed, "ok": False, "wall_s": elapsed, "exit": done.returncode}
    result = json.loads(lines[-1])
    if keep_dir:
        # Keep the run's raw samples (verdicts.tsv, rpcs.tsv, lags.tsv).
        work = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "work", workload)
        for name in ("verdicts.tsv", "rpcs.tsv", "lags.tsv"):
            if os.path.exists(os.path.join(work, name)):
                os.makedirs(keep_dir, exist_ok=True)
                shutil.copy(os.path.join(work, name), os.path.join(keep_dir, f"{workload}-{seed}-{name}"))
    return {"seed": seed, "ok": True, "wall_s": elapsed, "result": result,
            "detail": [line for line in lines[:-1]]}


def good_runs(entries):
    """Runs that finished, checked correct and failed no operation."""
    return [e for e in entries if e["ok"] and e["result"]["correct"] and e["result"]["failed"] == 0]


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def summarize(runs, spec):
    """Print the per-workload table; returns False when a run failed or a
    spread exceeds its bound."""
    ok = True
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload, entries in runs.items():
        good = good_runs(entries)
        walls = [e["wall_s"] for e in entries]
        print(f"\n{workload}: {len(good)}/{len(entries)} runs correct, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s")
        if len(good) != len(entries):
            ok = False
        if len(good) < 4:
            continue
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3} {'spread':>7} "
              f"{'bound':>6}  verdict")
        for name, meta in bounds.items():
            values = [e["result"]["metrics"][name]["value"] for e in good]
            median, q1, q3, share = spread(values)
            if share <= meta["bound"] / 3:
                verdict = "steady"
            elif share <= meta["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                ok = False
            print(f"  {name:16} {median:12.5g} {q1:12.5g} {q3:12.5g} {len(values):3d} "
                  f"{share:7.3f} {meta['bound']:6.2f}  {verdict}")
    return ok


def compare(first, second, spec):
    ok = True
    for meta in spec["end_to_end"]:
        name, bound, better = meta["name"], meta["bound"], meta["better"]
        for workload in first:
            a = [e["result"]["metrics"][name]["value"] for e in good_runs(first[workload])]
            b = [e["result"]["metrics"][name]["value"] for e in good_runs(second.get(workload, []))]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            verdict = "ok" if change <= bound else "WORSE BEYOND BOUND"
            ok &= change <= bound
            print(f"{workload:12} {name:16} {ma:12.5g} -> {mb:12.5g}  worse by {change:+.3f} "
                  f"(bound {bound:.2f})  {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description="hbguardd benchmark steadiness runner")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--workloads", default="")
    run.add_argument("--out", default="")
    run.add_argument("--keep-samples", default="", help="directory for each run's raw samples")
    cmp = sub.add_parser("compare")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args()

    spec = load_spec()
    if args.command == "compare":
        with open(args.first) as f:
            first = json.load(f)
        with open(args.second) as f:
            second = json.load(f)
        return 0 if compare(first, second, spec) else 1

    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    runs = {}
    for name in names:
        runs[name] = []
        for i in range(args.runs):
            entry = run_once(name, args.first_seed + i, spec["run_seconds"], args.keep_samples)
            runs[name].append(entry)
            status = "ok" if entry["ok"] and entry["result"]["correct"] else "FAILED"
            print(f"{name} seed {entry['seed']}: {status} in {entry['wall_s']:.1f} s", flush=True)
    out = args.out or os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "steady",
                                   time.strftime("%Y%m%d-%H%M%S") + ".json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as f:
        json.dump(runs, f, indent=1)
    print(f"raw results: {out}")
    return 0 if summarize(runs, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
