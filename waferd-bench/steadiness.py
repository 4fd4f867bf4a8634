#!/usr/bin/env python3
"""Steadiness report for the waferd benchmark.

Runs the benchmark command from BENCHMARK.json several times per
workload, each run with its own seed, and assigns the runs alternately
to two sets A and B. For every metric it prints the median, the
quartile spread (distance between the first and third quartile as a
share of the median) over all runs, and how far set B's median moved
from set A's in the metric's worse direction, both against the
metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 waferd-bench/steadiness.py --runs 10
    python3 waferd-bench/steadiness.py --workloads gui_frames --runs 5 --seed 100
    python3 waferd-bench/steadiness.py --trace 1 --runs 4
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"run failed ({out.returncode}): {' '.join(argv)}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  warning: seed {seed} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, float("nan")
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if first == 0:
        return float("nan")
    change = (second - first) / abs(first)
    return -change if better == "higher" else change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--config", default="BENCHMARK.json")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--runs", type=int, default=10, help="runs per workload")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    args = ap.parse_args()

    cfg = json.load(open(args.config))
    seconds = args.seconds or cfg["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    specs = {m["name"]: m for m in cfg[kind]}
    names = [w["name"] for w in cfg["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    ok = True
    for workload in names:
        runs = []
        for i in range(args.runs):
            seed = args.seed + i
            runs.append(run_once(cfg["command"], workload, seed, seconds, args.trace))
            print(f"{workload} run {i + 1}/{args.runs} (seed {seed}, set {'AB'[i % 2]})",
                  file=sys.stderr)
        print(f"\n{workload}: {args.runs} runs of {seconds} s, sets A/B alternate")
        print(f"  {'metric':<34} {'median':>14} {'spread':>8} {'B vs A':>8} {'bound':>6}")
        for name in runs[0]:
            values = [r[name] for r in runs]
            med, sp = spread(values)
            a = statistics.median(values[0::2])
            b = statistics.median(values[1::2]) if len(values) > 1 else a
            spec = specs.get(name, {})
            bound = spec.get("bound")
            drift = worse_by(a, b, spec.get("better", "lower"))
            flag = ""
            if bound is not None:
                if (name != "setup_s" and not sp <= bound) or not drift <= bound:
                    flag, ok = "  OVER BOUND", False
                elif name != "setup_s" and sp > bound / 3:
                    flag = "  above bound/3"
            print(f"  {name:<34} {med:>14.4f} {sp:>8.4f} {drift:>8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.4g}" for v in values))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
