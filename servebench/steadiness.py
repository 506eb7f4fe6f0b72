#!/usr/bin/env python3
"""Run each workload once per seed and report each end-to-end metric's spread.

    python3 servebench/steadiness.py --seeds 1-10 [--workload NAME] [--out F]

Runs `servebench/run.py` untraced with the run length from
BENCHMARK.json, one run at a time: every workload on the first seed,
then every workload on the next. It then prints, per workload and
metric, the median, the first and third quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median and the
metric's bound. Every run's result
line is appended to F as JSON, when one is given. The exit code is
nonzero if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    out = open(args.out, "a") if args.out else None
    values = {w: {} for w in workloads}
    # seeds outer, workloads inner: a slow spell of the host lands on a
    # few runs of every workload, not on most runs of one
    for seed in args.seeds:
        for w in workloads:
            p = subprocess.run(
                ["python3", "servebench/run.py", "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.stderr.write(p.stderr)
                sys.exit("%s seed %d failed (exit %d)"
                         % (w, seed, p.returncode))
            result = json.loads(lines[-1])
            if out:
                out.write(json.dumps({"workload": w, "seed": seed,
                                      "run": json.loads(lines[0])["run"],
                                      "result": result}) + "\n")
                out.flush()
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
    for w in workloads:
        print("%s, seeds %d-%d" % (w, args.seeds[0], args.seeds[-1]))
        for m in bench["end_to_end"]:
            v = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            print("  %-22s median %-11.5g Q1 %-11.5g Q3 %-11.5g spread %.3f"
                  " (bound %.2f)" % (m["name"], med, q1, q3,
                                     (q3 - q1) / med, m["bound"]))
        sys.stdout.flush()

if __name__ == "__main__":
    main()
