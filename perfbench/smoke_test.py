"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload at the smallest input size, untraced and traced, and
checks that the last line of output is the result object, that it carries
exactly the metrics BENCHMARK.json names with their units, and that no
operation failed.  Then checks that the benchmark refuses to run, with a
non-zero exit and no result, in a directory that holds only BENCHMARK.json
and the benchmark's own files.  Takes about two minutes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS  # noqa: E402


def run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(done, expected: dict) -> list:
    problems = []
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr[-400:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"error_rate not 0: {result['failed']} failed of "
                        f"{result['attempted']}; {done.stdout[-800:]}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, "
                            f"expected {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("BENCHMARK.json workloads differ from inputs.WORKLOADS")
        return 1
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check_result(run(ROOT, workload, trace),
                                    expected[trace])
            print(f"{workload} trace {trace}: "
                  + ("ok" if not problems else "; ".join(problems)))
            failures += bool(problems)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run(bare, WORKLOADS[0], 0)
        refused = done.returncode != 0 and '"metrics"' not in done.stdout
        print("bare directory: " + ("refused" if refused else
                                    f"NOT refused (exit {done.returncode})"))
        failures += not refused
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke test " + ("passed" if failures == 0 else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
