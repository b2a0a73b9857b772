#!/usr/bin/env python3
"""Self-test of the benchmark, on small inputs.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload run.py knows it runs `perfbench/run.py --smoke` with
tracing off and on, and checks that the result line names exactly the
metrics that BENCHMARK.json lists, each with its unit, that every
end-to-end value is positive, and that no answer failed the check. It then runs each workload
with `--corrupt`, which flips one recorded answer before the check, and
checks that the failure is counted. Exits non-zero if any check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    lists = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = 0
    for w in WORKLOADS:
        for trace, listed in lists.items():
            r = run(w, trace)
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            problems = []
            if got != want:
                problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if not (r["correct"] and r["failed"] == 0 and r["attempted"] > 0):
                problems.append(f"answers failed: {r['failed']} of {r['attempted']}")
            if trace == 0:
                zero = [k for k, v in r["metrics"].items() if not v["value"] > 0]
                if zero:
                    problems.append(f"non-positive metrics: {zero}")
            print(f"{w} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
            failures += bool(problems)
        r = run(w, 0, "--corrupt")
        caught = r["failed"] > 0 and not r["correct"]
        print(f"{w} corrupted answer: {'caught' if caught else 'NOT caught'} (failed={r['failed']})")
        failures += not caught
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
