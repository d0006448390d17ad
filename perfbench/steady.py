#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics repeat within their bounds.

    python3 perfbench/steady.py --workload churn_plain [--runs 10] [--sets 2]

Runs one workload as --sets sets of --runs runs, every run with its own
seed, through perfbench/run.py. For each end-to-end metric of
BENCHMARK.json it prints each set's median and quartiles and the spread
(q3 - q1) / median, with quartiles as statistics.quantiles(values, n=4)
gives them. The sets agree when every spread is within the metric's bound
and, with two sets, the second set's median is not worse than the first's
by more than the bound. The share of failed
operations must be the same in every run. Exits 0 when the sets agree.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: run failed\n{proc.stderr}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    sets = []
    seed = args.first_seed
    for s in range(args.sets):
        results = []
        for _ in range(args.runs):
            r = run_once(args.workload, seed, seconds)
            print(f"set {s + 1} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}",
                  flush=True)
            results.append(r)
            seed += 1
        sets.append(results)

    agree = True
    shares = {r["failed"] / r["attempted"] for rs in sets for r in rs}
    if len(shares) != 1:
        print(f"failed share differs between runs: {sorted(shares)}")
        agree = False
    if not all(r["correct"] for rs in sets for r in rs):
        print("some run reported incorrect output")
        agree = False
    print(f"{'metric':16s} {'set':>3s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'spread':>7s} {'bound':>6s}")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        medians = []
        for i, rs in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in rs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            medians.append(med)
            ok = spread <= bound
            agree &= ok
            print(f"{name:16s} {i + 1:3d} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:7.3f} {bound:6.2f}{'' if ok else '  SPREAD'}")
        if len(medians) == 2:
            a, b = medians
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = worse <= bound
            agree &= ok
            print(f"{'':16s} second set worse by {worse:+.3f}"
                  f"{'' if ok else '  DRIFT'}")
    print("sets agree within bounds" if agree else "sets DISAGREE")
    sys.exit(0 if agree else 1)


if __name__ == "__main__":
    main()
