#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, used to set their bounds.

    python3 perfbench/spread.py --seeds 1-10 [--out perfbench/spread.json]

Run from the checkout root. Runs `run.py --trace 0` once per seed and
workload of BENCHMARK.json, one run at a time and at its `run_seconds`,
and reports for each metric its median and the distance between the
first and third quartile as a share of the median, next to the bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import List

from run import environment

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"environment": environment(os.getcwd()),
              "seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        values = {m: [] for m in bounds}
        for seed in parse_seeds(args.seeds):
            r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                "--workload", w, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                               capture_output=True, text=True, timeout=300)
            result = json.loads(r.stdout.strip().splitlines()[-1])
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " +
                  " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()),
                  flush=True)
            ok &= result["correct"]
            for m, v in result["metrics"].items():
                values[m].append(v["value"])
        rows = {}
        for m, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            share = (q3 - q1) / med
            rows[m] = {"median": med, "iqr_share": share, "bound": bounds[m],
                       "below_third_of_bound": share < bounds[m] / 3,
                       "values": vals}
            print(f"  {w} {m}: median {med:.4g}  spread {share:.3f}  bound {bounds[m]}")
        report["workloads"][w] = rows
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
