#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's median and spread (interquartile range over median, the
quartiles as statistics.quantiles(values, n=4) gives them).

Run from the root of a hicond checkout:

    python3 perfbench/spread.py --runs 10 [--workloads a,b] [--seconds S] [--first-seed N]

Every run's output is appended to perfbench/.work/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    log = open(os.path.join(HERE, ".work", "spread.jsonl"), "a")
    over = []
    for w in a.workloads.split(","):
        values = {}
        walls = []
        for seed in range(a.first_seed, a.first_seed + a.runs):
            t0 = time.time()
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(a.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(time.time() - t0)
            if p.returncode:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
                return 1
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            steal = next((l.split(":")[1].strip() for l in lines if l.startswith("host steal")), "?")
            log.write(json.dumps({"workload": w, "seed": seed, "steal": steal, "result": result,
                                 "stdout": lines[:-1]}) + "\n")
            log.flush()
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"  seed {seed}: steal {steal} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        print(f"{w}: {a.runs} runs, wall per run {statistics.median(walls):.1f} s "
              f"(max {max(walls):.1f})")
        for k, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            share = spread / bounds[k]
            if share > 1:
                over.append(f"{w} {k}")
            print(f"  {k:<14} median {med:<12.6g} spread {spread:7.2%}  "
                  f"= {share:5.2f} of bound {bounds[k]}")
    print("over their bound:", ", ".join(over) or "none")
    return 0


if __name__ == "__main__":
    sys.exit(main())
