"""Run the benchmark once per seed and summarise each metric.

    python3 perfbench/repeat.py --workload deep-unit --seeds 1-10 --trace 0 \
        --out perfbench/baseline.json

For every metric it prints the median, the quartiles and the spread: the
distance between the first and the third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, the
figure each end-to-end metric's bound in BENCHMARK.json is set against.
Untraced runs also keep their host slowdown and raw (uncorrected) figures.
With ``--out`` the summary, the machine, and from the first run the
invocations that failed and the size of each reference orbit are merged
into that JSON file under "<workload> trace <t>".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 90001  # reserved for checking later claims; never run for the baseline


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _seeds(text: str) -> list:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    runs, failures, orbits = [], None, None
    for seed in args.seeds:
        command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        records = [json.loads(line) for line in proc.stderr.splitlines() if line.startswith("{")]
        speed = {k: r[k] for r in records if "slowdown" in r for k in ("slowdown", "raw")}
        runs.append({"seed": seed, **result, **speed})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} slowdown={speed.get('slowdown', 1):.3f}", flush=True)
        if failures is None:
            failures = [{"invocation": r["invocation"], "reason": r["reason"]}
                        for r in records if r.get("reason")]
            orbits = [r for r in records if "family" in r]

    summary = {}
    for name, entry in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": entry["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": spread}
        print(f"{name:32s} {median:14.6g} {entry['unit']:9s} spread {spread:.4f}")

    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data["machine"] = {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                           "python": platform.python_version()}
        data["held_out_seed"] = HELD_OUT_SEED
        data[f"{args.workload} trace {args.trace}"] = {
            "seeds": args.seeds, "seconds": seconds, "metrics": summary,
            "failed_invocations": failures, "orbit_sizes": orbits, "runs": runs,
        }
        args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
