"""Smoke-sized self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload for one second untraced and one workload traced, and
checks that each run ends with exactly the result line BENCHMARK.json
describes: every end-to-end (or per-layer) metric by name, with its unit and
a finite value, and no failed job.  Then runs the benchmark from a directory
holding only BENCHMARK.json and perfbench/, where it must fail without
printing a result.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(args: list, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def _check(label: str, done, expected: list) -> list:
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr.strip()[-300:]}"]
    result = _last_json(done.stdout)
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"{label}: last line is not a result object"]
    problems = []
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result['attempted']!r}")
    metrics = result["metrics"]
    names = {m["name"]: m["unit"] for m in expected}
    for missing in sorted(set(names) - set(metrics)):
        problems.append(f"{label}: metric {missing} not emitted")
    for extra in sorted(set(metrics) - set(names)):
        problems.append(f"{label}: metric {extra} not in BENCHMARK.json")
    for name, unit in names.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{label}: {name} unit {entry.get('unit')!r}, expected {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r} is not a finite number")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        done = _run(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0"])
        problems += _check(f"{name} --trace 0", done, spec["end_to_end"])
    done = _run(["--workload", "fold-chain", "--seed", "7", "--seconds", "2", "--trace", "1"])
    problems += _check("fold-chain --trace 1", done, spec["per_layer"])

    bare = os.path.join(ROOT, ".perfbench-work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = _run(["--workload", "fold-chain", "--seed", "7", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or _last_json(done.stdout) is not None:
        problems.append("without src/ the benchmark must fail without printing a result")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
