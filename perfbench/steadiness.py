#!/usr/bin/env python3
"""Check that the benchmark is steady across seeds.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10

For each workload of BENCHMARK.json it runs perfbench/run.py once per
seed 1 .. runs, untraced, for the file's run_seconds. It then prints, per
end-to-end metric, the median, the quartiles and the spread
(Q3 - Q1) / median next to a third of the metric's bound, plus the count
of failed operations. It exits non-zero when any spread exceeds a third
of its bound, or a run fails or reports failed operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        attempted = failed = 0
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            if proc.returncode != 0:
                print("%s seed %d: exit %d" % (workload, seed, proc.returncode))
                steady = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            steady &= result["correct"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, result["metrics"][n]["value"]) for n in values)),
                flush=True)
        print("%s: failed %d of %d operations" % (workload, failed, attempted))
        steady &= failed == 0
        for m in bench["end_to_end"]:
            vs = values[m["name"]]
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            limit = m["bound"] / 3
            ok = spread <= limit
            steady &= ok
            print("  %-14s median %-12.6g Q1 %-12.6g Q3 %-12.6g spread %.4f "
                  "(bound/3 %.4f)%s" % (m["name"], med, q1, q3, spread, limit,
                                        "" if ok else "  TOO WIDE"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
