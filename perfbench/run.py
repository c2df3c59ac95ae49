#!/usr/bin/env python3
"""Builds the mcpaxos benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Rust package in this directory (`perfbench`). It is
built in release mode into `$CARGO_TARGET_DIR` (default `.bench_build`
at the repository root), then run once per workload, each workload in
its own process under an address-space cap, so a workload that runs
out of memory or crashes is reported as failed without taking the others
down. The last line of standard output is the result as one JSON object;
with `--workload all` it merges every workload's metrics under
`<workload>/<metric>` names. The exit code is 0 only if every workload
ran to completion.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["sim-batched", "sim-paper", "sim-faults", "tcp-loopback"]
# Per-workload address-space cap. A runaway deployment fails its own
# process instead of exhausting the machine.
ADDRESS_SPACE_CAP = 6 << 30
# A workload process that has not finished by then has hung.
WORKLOAD_TIMEOUT_S = 150


def build():
    """Builds the benchmark; returns the path of its executable."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
    ]
    # Cargo's progress goes to stderr: stdout must end with the result.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(ROOT, target, "release", "perfbench")


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def run_workload(exe, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its result or None."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              preexec_fn=cap_memory, timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {WORKLOAD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"{workload}: exited with code {proc.returncode}", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(f"{workload:<13} {line}")
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()

    exe = build()
    if exe is None:
        print("build failed", file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: run_workload(exe, w, args.seed, args.seconds, args.trace) for w in names}
    if args.workload != "all":
        result = results[args.workload]
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w, r in results.items():
        if r is None:
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and r["correct"]
        merged["attempted"] += r["attempted"]
        merged["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            merged["metrics"][f"{w}/{name}"] = m
    print(json.dumps(merged))
    return 0 if all(r is not None for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
