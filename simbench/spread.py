#!/usr/bin/env python3
"""Run one workload on several seeds and report each end-to-end metric's
median and spread: the distance between the first and third quartile of its
values (statistics.quantiles, n=4) as a share of their median, next to the
bound fixed in BENCHMARK.json.

Usage, from the root of a checkout:

    python3 simbench/spread.py --workload media-server --seeds 1-5
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    values = {m["name"]: [] for m in bench["end_to_end"]}
    failed = 0
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        failed += result["failed"] if result["correct"] else max(1, result["failed"])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    print(f"{'metric':16} {'median':>14} {'spread':>8} {'bound':>6} {'spread/bound':>13}")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        print(f"{m['name']:16} {med:14.6g} {spread:8.3f} {m['bound']:6.2f} {spread / m['bound']:13.2f}")
    print(f"failed runs: {failed}")


if __name__ == "__main__":
    main()
