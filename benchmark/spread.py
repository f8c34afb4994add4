#!/usr/bin/env python3
"""Run every workload under several seeds and print, per end-to-end
metric, the median and the inter-quartile spread as a share of it -- the
figure the acceptance driver holds against each bound in BENCHMARK.json.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload W ...]
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

root = pathlib.Path(__file__).resolve().parent.parent
declared = json.loads((root / "BENCHMARK.json").read_text())

parser = argparse.ArgumentParser()
parser.add_argument("--runs", type=int, default=10)
parser.add_argument("--first-seed", type=int, default=1)
parser.add_argument("--workload", action="append")
args = parser.parse_args()

bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
worst = 0.0
for workload in args.workload or [w["name"] for w in declared["workloads"]]:
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = declared["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(declared["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        result = json.loads(out.stdout.splitlines()[-1]) if out.returncode == 0 else None
        if not result or not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {seed}: run failed\n{out.stderr}")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        share = (q3 - q1) / median
        if name != "setup_s":
            worst = max(worst, share / bounds[name])
        print(f"{workload:<24} {name:<16} median {median:>14.4f}  "
              f"spread {share:7.2%}  bound {bounds[name]:.0%}", flush=True)
print(f"largest spread is {worst:.2f} of its bound (aim for under 0.33)")
