#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly, one seed per run, and
prints for every end-to-end metric its median, quartiles, the spread
(quartile distance over the median, the share BENCHMARK.json's bounds are
set against) and the min/max ratio.

Run from the root of the checkout:

    python3 perfbench/steady.py                      # every workload, seeds 1-10
    python3 perfbench/steady.py --workloads serve-mixed --seeds 1-5
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for wl in args.workloads.split(","):
        values, shares = {}, set()
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{wl} seed {seed}: exit {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"{wl} seed {seed}: incorrect output")
            shares.add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        print(f"\n{wl}: failed share(s) {sorted(shares)}")
        print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'max/min':>8}")
        for name, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            ratio = max(vs) / min(vs)
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"{name:<18} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>7.1%} "
                  f"{bounds[name]:>6} {ratio:>8.3f}")
        print()
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
