#!/usr/bin/env python3
"""Build the POLaR benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Rust package beside this file is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build). The workload then runs in its
own process under a time limit. Its report is relayed to standard output;
the last line is the JSON result, checked here against the metric names
BENCHMARK.json declares. The exit code is the workload's: non-zero on any
correctness failure, and non-zero without a result line when the build,
the run or the check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    """Metric names the result must carry, from BENCHMARK.json."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, expected):
    """Why `line` is not a valid result carrying `expected`, or None."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(result, dict) or list(result) != RESULT_KEYS:
        return f"result keys are not {RESULT_KEYS}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, wrong unit {wrong}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    spec, expected = expected_metrics(args.trace == "1")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; known: {names}")

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"workload ran past {RUN_TIMEOUT_S} s and was stopped")
    lines = out.rstrip("\n").splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(out)
        fail(f"workload exited with code {proc.returncode}")
    why = check_result(lines[-1], expected)
    if why:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(why)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
