#!/usr/bin/env python3
"""Steadiness check: run one workload on several seeds and report, per
metric, the median and the quartile spread (Q3 - Q1) / median.

Run from the repository root:

    python3 perfbench/steady.py --workload sweep_points --seeds 1-10

The benchmark command and run length come from BENCHMARK.json. Prints a
markdown table; --json writes the raw per-seed results as well.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--json", help="write per-seed results here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    command = bench["command"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = []
    for seed in seed_list(args.seeds):
        argv = command + ["--workload", args.workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"]
        start = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True)
        wall = time.monotonic() - start
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        host = [l for l in proc.stdout.splitlines() if l.startswith("# host")]
        print(f"seed {seed}: {wall:.1f} s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{host[0] if host else ''}", file=sys.stderr)
        results.append({"seed": seed, "result": result})

    names = list(results[0]["result"]["metrics"])
    print(f"| metric | unit | median | IQR/median | bound | n |")
    print(f"|---|---|---|---|---|---|")
    for name in names:
        vals = [r["result"]["metrics"][name]["value"] for r in results]
        unit = results[0]["result"]["metrics"][name]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"| {name} | {unit} | {med:.6g} | {spread:.4f} | {bound if bound is not None else '-'} | {len(vals)} |")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
