#!/usr/bin/env python3
"""Runs the benchmark the way the driver does, several seeds per workload,
and reports how well each end-to-end metric repeats.

    python3 benchmark/repeat.py [--runs 10] [--seed 100] [--workload NAME]
                                [--trace] [--record]

It reads BENCHMARK.json at the repository root (the current directory) for
the command, the workloads, the metrics and their bounds. For each workload
and end-to-end metric it prints min / median / max over the runs and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread above
a third of the metric's bound is marked `wide`, one above the bound `FAIL`.
--record stores the spreads in benchmark/NOISE.json (merged by workload). --trace prints the
per-layer medians from one traced run per seed instead.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - started
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return result, wall


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100, help="first seed; run i uses seed + i")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    noise = {}
    failed = False
    for workload in workloads:
        values = {m["name"]: [] for m in declared}
        walls = []
        for i in range(args.runs):
            result, wall = run(spec["command"], workload, args.seed + i,
                               spec["run_seconds"], int(args.trace))
            walls.append(wall)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s each")
        for metric in declared:
            name, got = metric["name"], values[metric["name"]]
            median = statistics.median(got)
            line = f"  {name:34} {min(got):12.5g} {median:12.5g} {max(got):12.5g} {metric['unit']:6}"
            if not args.trace and len(got) >= 2:
                q1, _, q3 = statistics.quantiles(got, n=4)
                spread = (q3 - q1) / median
                noise.setdefault(workload, {})[name] = round(spread, 5)
                verdict = ""
                if spread > metric["bound"] and name != "setup_s":
                    verdict, failed = "FAIL", True
                elif spread > metric["bound"] / 3:
                    verdict = "wide"
                line += f" spread {spread:7.4f} bound {metric['bound']:.2f} {verdict}"
            print(line)
    if args.record and not args.trace:
        # Workloads not run this time keep the spreads recorded before.
        try:
            with open("benchmark/NOISE.json") as f:
                noise = {**json.load(f)["spread"], **noise}
        except FileNotFoundError:
            pass
        with open("benchmark/NOISE.json", "w") as f:
            json.dump({"runs": args.runs, "run_seconds": spec["run_seconds"], "spread": noise},
                      f, indent=2)
            f.write("\n")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
