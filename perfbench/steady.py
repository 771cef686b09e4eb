#!/usr/bin/env python3
"""Runs one benchmark workload repeatedly and reports how steady it is.

    python3 perfbench/steady.py --workload serve-cold --runs 10

Each run uses the next seed. For every metric the script prints the
median, the quartiles, the spread (interquartile distance over the
median, as statistics.quantiles(values, n=4) gives the quartiles) and the
largest deviation of one run from the median, next to the metric's bound
in BENCHMARK.json. A spread at or above a third of the bound is flagged.
Run it from the root of the checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="seed of the first run")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values, shares = {}, []
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"run with seed {seed} failed (exit {proc.returncode})")
        res = json.loads(lines[-1])
        shares.append(res["failed"] / res["attempted"])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), flush=True)
        if not res["correct"]:
            print(f"seed {seed}: INCORRECT", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'maxdev':>8} {'bound':>6}")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / abs(med) if med else float("nan")
        maxdev = max(abs(v - med) for v in vs) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and not spread < bound / 3:
            flag = "  <-- spread >= bound/3"
        print(f"{name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {maxdev:8.3f} "
              f"{'' if bound is None else bound:>6}{flag}")
    print(f"\nfailed share per run: {sorted(set(shares))}")


if __name__ == "__main__":
    main()
