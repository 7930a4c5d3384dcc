#!/usr/bin/env python3
"""Steadiness check: run the benchmark once per seed on each workload and
report, per end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Run from the root of a source checkout.  A spread at or above a third of
the bound is flagged; setup_s is reported but has no spread gate.  Raw
results are appended to .bench_out/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    os.makedirs(".bench_out", exist_ok=True)
    flagged = 0
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True)
            if r.returncode != 0:
                sys.exit("%s seed %d failed:\n%s" % (w, seed, r.stderr[-2000:]))
            res = json.loads(r.stdout.splitlines()[-1])
            with open(".bench_out/steady.jsonl", "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed,
                                    "result": res}) + "\n")
            if not res["correct"]:
                sys.exit("%s seed %d: incorrect result" % (w, seed))
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
        print("%s (%d runs)" % (w, args.runs))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            gate = m["name"] != "setup_s"
            bad = gate and spread >= m["bound"] / 3
            flagged += bad
            print("  %-18s median %14.6f %-3s spread %6.3f  bound %.2f%s"
                  % (m["name"], med, m["unit"], spread, m["bound"],
                     "  <-- above bound/3" if bad else ""))
        sys.stdout.flush()
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
