#!/usr/bin/env python3
"""Run-to-run spread of the cllm benchmark's end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workload serve_decode]

Runs each workload untraced once per seed (seeds 1..runs) and prints,
for every end-to-end metric, the median and the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound in BENCHMARK.json. A spread above a
third of the bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    flagged = 0
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w,
                   "--seed", str(seed), "--seconds",
                   str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True)
            if out.returncode != 0:
                print(out.stdout + out.stderr)
                sys.exit("run failed: " + " ".join(cmd))
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print("== %s (%d runs)" % (w, args.runs))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med if med else float("inf")
            flag = share > m["bound"] / 3
            flagged += flag
            print("%-22s median %-12.6g spread %6.3f bound %.2f %-4s %s"
                  % (m["name"], med, share, m["bound"],
                     "HIGH" if flag else "",
                     " ".join("%.4g" % x for x in v)))
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
