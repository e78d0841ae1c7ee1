#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload of BENCHMARK.json a given number of times, each with
another seed, and prints for every end-to-end metric the median, the first
and third quartile, the spread (Q3 - Q1) / median and the metric's bound.
The quartiles are those of statistics.quantiles(values, n=4).

    python3 e2ebench/steady.py --runs 10 --first-seed 1 --out set1.json
    python3 e2ebench/steady.py --runs 10 --first-seed 101 --out set2.json --against set1.json

With --against, it also prints how far each median moved from the other
set, in the metric's worse direction, against the bound. A spread above the
bound (setup_s excepted), a median worse by more than the bound, or a
different share of failed operations marks the line with "!!" and makes
the command exit with status 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit status {out.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--out", help="write the raw results here")
    ap.add_argument("--against", help="raw results of an earlier set to compare medians with")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        names = [n for n in a.workloads.split(",") if n]
    metrics = bench["end_to_end"]

    raw = {}
    for w in names:
        raw[w] = []
        for i in range(a.runs):
            res = run_once(bench["command"], w, a.first_seed + i, bench["run_seconds"])
            if not res["correct"]:
                raise SystemExit(f"{w} seed {a.first_seed + i}: an oracle check failed")
            raw[w].append(res)
            print(f"  {w} seed {a.first_seed + i}: " + " ".join(
                f"{m['name']}={res['metrics'][m['name']]['value']:.6g}" for m in metrics), flush=True)
    if a.out:
        with open(a.out, "w") as f:
            json.dump(raw, f)
    other = None
    if a.against:
        with open(a.against) as f:
            other = json.load(f)

    bad = False
    for w in names:
        runs = raw[w]
        share = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{w}: {len(runs)} runs, failed share {sorted(share)}")
        header = f"  {'metric':22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
        if other:
            header += f" {'worse':>8}"
        print(header)
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = spread > m["bound"] and m["name"] != "setup_s"
            line = f"  {m['name']:22} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {m['bound']:6.2f}"
            if other and w in other:
                ovals = [r["metrics"][m["name"]]["value"] for r in other[w]]
                omed = statistics.median(ovals)
                worse = (med - omed) / omed if m["better"] == "lower" else (omed - med) / omed
                flag = flag or worse > m["bound"]
                line += f" {worse:8.3f}"
                oshare = {r["failed"] / r["attempted"] for r in other[w]}
                if oshare != share:
                    print(f"  !! failed share differs from the other set: {sorted(oshare)}")
                    bad = True
            if flag:
                line += "  !!"
                bad = True
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
