"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json with and without tracing at tiny
sizes, and checks that the result line has the expected keys, that every
output was correct, and that it names every metric of BENCHMARK.json with
its unit and nothing else.  Then checks that the benchmark refuses to run,
printing no result, in a directory holding only BENCHMARK.json and the
benchmark's own files.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd: Path, workload: str, trace: int, *extra: str):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_result(proc, expected: dict) -> list:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    units = {name: entry.get("unit") for name, entry in metrics.items()}
    if units != expected:
        problems.append(f"metrics {sorted(set(units.items()) ^ set(expected.items()))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{name} = {value!r} is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = _check_result(_run(ROOT, workload, trace, "--tiny"), expected[trace])
            problems += [f"{workload} --trace {trace}: {p}" for p in found]
            print(f"{'FAIL' if found else 'ok'}: {workload} --trace {trace}", flush=True)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    print(f"{'ok' if refused else 'FAIL'}: refuses to run without the sources", flush=True)
    if not refused:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")

    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
