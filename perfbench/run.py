#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <analyze|edit-exact|edit-fast> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke] [--corrupt]

Builds the `perfbench` crate (its own Cargo workspace, depending on the
repository's crates by path) into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs it once, and relays its standard output. The last
line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. The metric names and units are those of `BENCHMARK.json`; a
per-layer metric of a layer the workload never called reads 0. Exits
non-zero, printing no result, when the build or the run fails or the
metrics differ from that list. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("analyze", "edit-exact", "edit-fast")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="small inputs, for the self-test")
    ap.add_argument("--corrupt", action="store_true", help="flip one answer before the check")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    cmd += ["--smoke"] if args.smoke else []
    cmd += ["--corrupt"] if args.corrupt else []
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: run exited with {run.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        with open(SPEC) as f:
            listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        print(f"perfbench: no result line or no metric list: {e}", file=sys.stderr)
        return 1
    problem = complete(result["metrics"], {m["name"]: m["unit"] for m in listed}, args.trace)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


def complete(metrics, units, per_layer):
    """Checks `metrics` against the listed names and units, filling absent
    per-layer metrics with 0. Returns what is wrong, or None."""
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            return f"metric {name} ({m['unit']}) is not listed with that unit"
    missing = [n for n in units if n not in metrics]
    if missing and not per_layer:
        return f"end-to-end metrics not measured: {missing}"
    for name in missing:
        metrics[name] = {"value": 0, "unit": units[name]}
    return None


if __name__ == "__main__":
    sys.exit(main())
