#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of the same build.

    python3 perfbench/steady.py [--runs N]

Run from the repository root. For each workload of `BENCHMARK.json` it
runs the benchmark (its command, untraced) 2 x N times (N = 10 unless
given), alternating set A and set B, with seeds 1..N in each set. It
prints, for every end-to-end metric, each set's median and quartiles and
the spread (quartile distance over median), and whether the two sets
agree: both spreads within the metric's bound, the two medians apart by
no more than the bound (in either direction), and the same share of
failed operations in both sets. Exits non-zero if any workload disagrees.
"""

import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output checks failed")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    args = sys.argv[1:]
    if args and (len(args) != 2 or args[0] != "--runs"):
        sys.exit("usage: steady.py [--runs N]")
    runs = int(args[1]) if args else 10
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = {"A": [], "B": []}
        for i in range(runs):
            for label in ("A", "B") if i % 2 == 0 else ("B", "A"):
                sets[label].append(run_once(spec, workload, 1 + i))
        print(f"\n## {workload} ({runs} runs per set, seeds 1..{runs})\n")
        print("| metric | unit | A median | A q1..q3 | A spread | B median | B spread "
              "| B vs A | bound | agree |")
        print("|---|---|---|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            a1, am, a3, asp = spread(a)
            _, bm, _, bsp = spread(b)
            # Signed so the table shows the direction; agreement is
            # two-sided, as two sets of the same code have no better side.
            worse = (bm - am) / am if m["better"] == "lower" else (am - bm) / am
            agree = abs(worse) <= bound and asp <= bound and bsp <= bound
            ok &= agree
            print(f"| {name} | {m['unit']} | {am:.6g} | {a1:.6g}..{a3:.6g} | {asp:.3f} "
                  f"| {bm:.6g} | {bsp:.3f} | {worse:+.3f} | {bound} | {'yes' if agree else 'NO'} |")
        shares = {k: {r['failed'] / r['attempted'] for r in v} for k, v in sets.items()}
        same = shares["A"] == shares["B"] and len(shares["A"]) == 1
        ok &= same
        print(f"\nfailed share: A {sorted(shares['A'])}, B {sorted(shares['B'])} "
              f"({'same' if same else 'DIFFERENT'})", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
