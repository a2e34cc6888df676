#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/steadiness.py [--workloads flight,restaurant]
        [--seeds 1-10] [--seconds 55] [--out FILE]

Run from the repository root. For every workload × seed it calls
perfbench/run.py with --trace 0 (the end-to-end metrics), checks that the
run passed its correctness checks, and collects the metrics of the last
output line. It prints, per workload and
metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 − Q1) / median, and
writes the same summary as JSON to --out when given; baseline.json in this
directory was produced this way.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run failed ({proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed checks")
    meta = next((json.loads(l[len("# meta "):]) for l in lines
                 if l.startswith("# meta ")), {})
    return result, meta


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "runs": len(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="flight,restaurant")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--out")
    args = ap.parse_args()

    seeds = parse_seeds(args.seeds)
    summary = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values, units, meta = {}, {}, {}
        for seed in seeds:
            result, meta = run_once(workload, seed, args.seconds)
            for name, m in result["metrics"].items():
                if m["value"] is not None:
                    values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: ok", file=sys.stderr, flush=True)
        machine = {k: meta.get(k) for k in
                   ("nproc", "simd_tier", "build_type", "l2_bytes",
                    "l3_bytes", "scale", "eta", "kappa", "tuples",
                    "attributes", "index")}
        metrics = {}
        for name, vals in values.items():
            metrics[name] = dict(summarize(vals), unit=units[name])
            s = metrics[name]
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:10s} {name:34s} median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={spread}")
        summary["workloads"][workload] = {"meta": machine, "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
