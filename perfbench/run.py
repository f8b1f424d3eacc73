#!/usr/bin/env python3
"""Build and run the pqopt service benchmark.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

A named workload prints a table of metrics and, as the last line of
standard output, one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
metrics with `--trace 1`). `all` runs every workload untraced and traced.

The script first builds the benchmark and the `pqopt` binary in release
mode (offline) into `$CARGO_TARGET_DIR`, default `.bench_build`. Without
the repository's sources next to `perfbench/` the build fails and the
script exits non-zero without printing a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["big-query", "small-stream", "hot-repeat"]


def seeds():
    with open(os.path.join(HERE, "seeds.json")) as f:
        return json.load(f)


def build():
    """Builds the benchmark and `pqopt`; returns the benchmark executable."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "perfbench", "-p", "pqopt",
    ]
    # Build output goes to stderr: standard output carries only results.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def flag(args, name, default=None):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def run_one(exe, workload, seed, seconds, trace):
    cmd = [exe, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    sys.stdout.write(out.stdout)
    sys.stdout.flush()
    lines = out.stdout.strip().splitlines()
    return out.returncode, (json.loads(lines[-1]) if lines else None)


def main(args):
    workload = flag(args, "--workload")
    if workload is None:
        sys.exit(__doc__)
    seed = int(flag(args, "--seed", seeds()["default"]))
    seconds = flag(args, "--seconds", "45")
    exe = build()
    if workload != "all":
        cmd = [exe, "run"] + args
        if "--seed" not in args:
            cmd += ["--seed", str(seed)]
        if "--seconds" not in args:
            cmd += ["--seconds", seconds]
        return subprocess.run(cmd).returncode
    code, merged = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        for trace in (0, 1):
            rc, result = run_one(exe, w, seed, seconds, trace)
            code = code or rc
            if result is None:
                merged["correct"] = False
                continue
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                merged["metrics"][f"{w}.{name}"] = m
    print(json.dumps(merged))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
