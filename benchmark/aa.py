#!/usr/bin/env python3
"""A/A check: run every workload of BENCHMARK.json N times on the same code,
each time with another seed, and print per end-to-end metric and workload the
median, the quartiles and the spread (Q3 - Q1) / median against the metric's
bound, computed as the driver does (statistics.quantiles(values, n=4)).
Exits 1 if a run fails or a spread other than setup_s's is outside its bound.

    python3 benchmark/aa.py [-n 10] [--first-seed 1] [--workload NAME ...]
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

root = pathlib.Path(__file__).resolve().parent.parent
spec = json.loads((root / "BENCHMARK.json").read_text())

ap = argparse.ArgumentParser()
ap.add_argument("-n", type=int, default=10, help="runs per workload")
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("--workload", action="append", help="only these workloads")
args = ap.parse_args()

bad = False
for wl in spec["workloads"]:
    name = wl["name"]
    if args.workload and name not in args.workload:
        continue
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for i in range(args.n):
        cmd = spec["command"] + ["--workload", name, "--seed", str(args.first_seed + i),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        run = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
        last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
        try:
            out = json.loads(last)
        except ValueError:
            out = {}
        if run.returncode != 0 or not out.get("correct") or out.get("failed"):
            print(f"{name} seed {args.first_seed + i}: run failed (exit {run.returncode}): {last[:200]}")
            bad = True
            continue
        for m in values:
            values[m].append(out["metrics"][m]["value"])
        print(f"{name} seed {args.first_seed + i}: " +
              " ".join(f"{m}={v[-1]:.4g}" for m, v in values.items()), flush=True)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        verdict = "ok" if spread <= m["bound"] or m["name"] == "setup_s" else "OUTSIDE BOUND"
        if verdict != "ok":
            bad = True
        third = "" if spread <= m["bound"] / 3 else "  (above a third of the bound)"
        print(f"{name:16s} {m['name']:18s} median {med:11.4f} {m['unit']:6s} q1 {q1:11.4f} q3 {q3:11.4f} "
              f"spread {spread:6.3f} bound {m['bound']:.2f} {verdict}{third}", flush=True)
sys.exit(1 if bad else 0)
