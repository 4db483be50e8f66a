#!/usr/bin/env python3
"""Run one benchmark workload over several seeds and report each
end-to-end metric's spread: the distance between the first and third
quartile of its values (statistics.quantiles, n=4) as a share of their
median, next to the bound BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workload pruned-cas --runs 10 [--first-seed 1]

Run it from the repository root. It exits non-zero if a run fails or
reports incorrect results.
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
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            sys.exit(f"seed {seed}: exit {out.returncode}")
        res = json.loads(lines[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: incorrect result {res}")
        row = []
        for name, vs in values.items():
            v = res["metrics"][name]["value"]
            vs.append(v)
            row.append(f"{name}={v:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        verdict = "ok" if spread < m["bound"] / 3 else ("within bound" if spread < m["bound"] else "TOO WIDE")
        print(f"{args.workload} {m['name']}: median {med:.6g} {m['unit']}, q1 {q1:.6g}, q3 {q3:.6g}, "
              f"spread {spread:.4f} vs bound {m['bound']} ({verdict})")


if __name__ == "__main__":
    main()
