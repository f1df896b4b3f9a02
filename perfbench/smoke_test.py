#!/usr/bin/env python3
"""The benchmark's own test: every workload in smoke mode (tiny inputs),
untraced and traced. Checks that each run prints every metric of
BENCHMARK.json with its unit, that the output checks pass, and that the
environment record is present. A last run kills a tune worker with
SIGSEGV at its second task and checks that the run reports that task
as one failed operation and still prints every metric. Exits nonzero
when any run fails.

Usage: python3 perfbench/smoke_test.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec, workload, trace, extra=()):
    """One smoke run; returns (result, problems)."""
    group = "per_layer" if trace else "end_to_end"
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--trace", str(trace),
           "--smoke", *extra]
    if "--seconds" not in extra:
        cmd += ["--seconds", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        return None, [f"exit code {out.returncode}: {out.stderr[-2000:]}"]
    problems = []
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["perfbench"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append(f"output checks failed: {info['failed_checks']}")
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    want = {m["name"]: m["unit"] for m in spec[group]}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metrics differ: missing {set(want) - set(got)}, "
                        f"extra {set(got) - set(want)}")
    for name, unit in want.items():
        entry = got.get(name, {})
        if entry.get("unit") != unit or not isinstance(
                entry.get("value"), (int, float)):
            problems.append(f"{name}: {entry}")
    for key in ("nproc", "compiler", "build_type", "parallelism", "seed",
                "env_set"):
        if key not in info:
            problems.append(f"environment record lacks {key}")
    return result, problems


def report(label, problems):
    print(f"{label}: {'ok' if not problems else 'FAILED'}", flush=True)
    for p in problems:
        print(f"    {p}")
    return bool(problems)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result, problems = run(spec, workload, trace)
            if result is not None and result["failed"] != 0:
                problems.append(f"{result['failed']} operations failed")
            failures += report(f"{workload} --trace {trace}", problems)
    # One pass whose worker dies at task 1 of 2: one failed operation.
    result, problems = run(spec, "tune-gpu", 0,
                           ("--seconds", "0", "--crash-task", "1"))
    if result is not None and result["failed"] != 1:
        problems.append(f"{result['failed']} operations failed, want 1")
    failures += report("tune-gpu --crash-task 1", problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
