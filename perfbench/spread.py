#!/usr/bin/env python3
"""Runs the benchmark several times and reports each metric's spread.

    python3 perfbench/spread.py --workloads warm_open cold_job \
        --seeds 1 2 3 4 5 --seconds 10 [--trace 0] [--json out.json]

For every (workload, metric) it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the quartile distance as
a share of the median, next to the metric's bound in BENCHMARK.json. With
--repeat N each seed runs N times (the same inputs, so the spread is run
to run). --json writes the numbers in the format of perfbench/baseline.json.
Run it from the root of the checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)}: outputs incorrect")
    return result, wall


def machine():
    cpu = platform.processor()
    l3 = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
        out = subprocess.run(["lscpu"], capture_output=True, text=True).stdout
        for line in out.splitlines():
            if line.startswith("L3 cache:"):
                l3 = line.split(":", 1)[1].strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "l3": l3}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {"machine": machine(), "seconds": seconds, "seeds": args.seeds,
              "repeat": args.repeat, "trace": args.trace, "workloads": {}}
    for w in args.workloads:
        values, walls = {}, []
        for seed in args.seeds:
            for _ in range(args.repeat):
                result, wall = run_once(w, seed, seconds, args.trace)
                walls.append(wall)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
        rows = {}
        print(f"{w}: {len(walls)} runs, wall {min(walls):.1f}-"
              f"{max(walls):.1f} s")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], vals[0], vals[0]))
            share = (q3 - q1) / abs(med) if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "iqr_share": share}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "  OK" if share < bound / 3 else (
                    "  WIDE" if share > bound else "  near")
            print(f"  {name:34s} median {med:12.4f}  q1 {q1:12.4f}  "
                  f"q3 {q3:12.4f}  iqr/med {share:7.4f}"
                  f"{'' if bound is None else f'  bound {bound}'}{flag}")
        report["workloads"][w] = {"wall_s": walls, "metrics": rows}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
