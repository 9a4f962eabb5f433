#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each metric's median
and spread, where spread is the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median.

Run from the repository root:

    python3 e2ebench/sweep.py [--workloads scale100,served3] [--seeds 1-10]
                              [--seconds 10] [--trace 0]

Without --seconds it uses run_seconds from BENCHMARK.json. Exits non-zero
if a run fails, prints no result, or reports correct = false.
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
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--seconds", default=spec["run_seconds"])
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", args.trace]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect: {lines[-1]}")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if args.trace == "0":
                print(f"  seed {seed}: " + "  ".join(
                    f"{name} {m['value']:.4g}" for name, m in result["metrics"].items()),
                    flush=True)
        print(f"== {workload} ({len(args.seeds)} seeds)", flush=True)
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {name:34s} median {med:14.4f}  spread {spread:7.4f}  "
                  f"min {min(vs):.4f}  max {max(vs):.4f}  bound {bound}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
