#!/usr/bin/env python3
"""Builds hicond and the benchmark, then runs one benchmark workload.

Run from the root of a hicond checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Build output goes to $CARGO_TARGET_DIR (default .bench_build). Scratch
files go to perfbench/.work and are removed when the run ends. The last
line of standard output is the benchmark's JSON result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SECONDS = "2"


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest in (os.path.join(ROOT, "Cargo.toml"), os.path.join(HERE, "Cargo.toml")):
        # Build output goes to stderr: stdout carries only results.
        subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env,
            stdout=sys.stderr,
            check=True,
        )
    return os.path.join(target, "release")


def run_bench(bin_dir, args, capture=False):
    work = os.path.join(HERE, ".work", str(os.getpid()))
    cmd = [
        os.path.join(bin_dir, "perfbench"),
        *args,
        "--hicond",
        os.path.join(bin_dir, "hicond"),
        "--work-dir",
        work,
    ]
    try:
        return subprocess.run(cmd, cwd=ROOT, text=True, capture_output=capture, timeout=170)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def self_test(bin_dir):
    """Smoke-sized runs: every metric named in BENCHMARK.json is emitted
    with its unit, and a corrupted reply is counted as failed."""
    if subprocess.run([os.path.join(bin_dir, "perfbench"), "self-test-verify"]).returncode:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", w["name"], "--seed", "1", "--seconds", SMOKE_SECONDS,
                    "--trace", trace, "--smoke"]
            p = run_bench(bin_dir, args, capture=True)
            lines = p.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                ok = p.returncode == 0 and result["failed"] == 0 and result["correct"]
            except (IndexError, ValueError, KeyError, TypeError):
                got, ok = {}, False
            want = {m["name"]: m["unit"] for m in spec[key]}
            if got != want or not ok:
                failures += 1
                print(f"FAIL {w['name']} trace={trace}: rc={p.returncode} "
                      f"missing={sorted(set(want) - set(got))} extra={sorted(set(got) - set(want))}\n"
                      f"{p.stdout[-2000:]}{p.stderr[-2000:]}")
            else:
                print(f"ok   {w['name']} trace={trace}: {len(got)} metrics with units")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


def main():
    bin_dir = build()
    if sys.argv[1:] == ["--self-test"]:
        return self_test(bin_dir)
    return run_bench(bin_dir, sys.argv[1:]).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
