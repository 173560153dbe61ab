#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark command from BENCHMARK.json once per seed for each
workload and prints, per end-to-end metric, the median over the runs and
the quartile spread (q3 - q1, as statistics.quantiles(values, n=4) gives
the quartiles) as a share of the median, beside the metric's bound.

    python3 perfbench/steady.py [--seeds 1-10] [--workloads engine,fleet] [--trace 0] [--json out.json] [--logs dir]

Run it from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json", default="")
    ap.add_argument("--logs", default="", help="directory to keep each run's standard error in")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    summary = {}
    ok = True
    for name in names:
        values = {m["name"]: [] for m in metrics}
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if args.logs:
                with open(f"{args.logs}/{name}-seed{seed}-trace{args.trace}.log", "w") as f:
                    f.write(proc.stderr)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                ok = False
            for m in metrics:
                values[m["name"]].append(res["metrics"][m["name"]]["value"])
            print(f"{name} seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr)
        rows = {}
        print(f"\n{name}: {len(seed_list(args.seeds))} runs")
        for m, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            rows[m] = {"median": med, "q1": q[0], "q3": q[2], "spread": spread, "bound": bounds[m], "values": vs}
            bound = bounds[m]
            mark = ""
            if bound is not None and m != "setup_s":
                mark = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "UNSTEADY")
            print(f"  {m:36s} median {med:<14.6g} spread {spread:8.4f}  bound {bound}  {mark}")
        summary[name] = rows
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
    if not ok:
        sys.exit("some run failed its output check")


if __name__ == "__main__":
    main()
