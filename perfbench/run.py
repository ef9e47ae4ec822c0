"""Benchmark of the sdeq CLI.

    python3 perfbench/run.py --workload sampled --seed 1 --seconds 10 --trace 0

Run from a checkout that holds ``src/sdeq``; nothing needs installing.
With ``--trace 0`` one client drives ``python3 -m sdeq`` as a user would,
one subprocess at a time (a closed loop), over the workload's seeded list
of invocations.  A run measures whole passes over the list: it starts
another pass while fewer than ``--seconds`` have passed and the deadline
leaves room for one, so a run takes at least ``--seconds``.
Every report is checked against an independent Fraction reference.  It
prints the end-to-end metrics: median set-up time of a fresh interpreter
that imports ``sdeq.cli`` and builds its parser, successful invocations
per second, the share that succeeded, the time spent confirming closed
forms (``verify``; ``difftest`` on ``sampled``), report megabytes per
second and confirmed trials per second (a difftest trial or a verify
call).  Rates are per pass, medians over the passes.

On a shared host the machine's speed drifts by 10-50% over tens of seconds
to minutes (measured on a 2 vCPU Xeon VM).  The run therefore times a
yardstick first and after every second invocation: a fresh interpreter
running a fixed piece of Fraction and big-integer arithmetic that does not
touch sdeq.  The run's slowdown is the median yardstick time over
``YARDSTICK_NOMINAL_S``, and every time is divided by it (every rate
multiplied), so the metrics read as at the yardstick's nominal speed.  A
change to sdeq cannot move the yardstick, so it moves the metrics exactly
as it moves the raw times; the raw figures and the slowdown go to stderr.
Over ten seeds the correction cut the spread of ``ops_per_s`` from about
0.10 to 0.03-0.05 on ``sampled`` and from 0.09 to 0.03-0.06 on
``deep-unit``.  ``deep-nonunit`` is mostly one long big-integer
computation that tracks the yardstick less closely: within a set of ten
runs its spreads were 0.03-0.09 raw and 0.06-0.13 corrected, but over
90 minutes the median of its raw ``verify_s`` ranged over 19.9-24.5 s
with the host's load and the corrected one over 18.0-19.8 s.

Every subprocess is stopped by a deadline, so that the run ends in time
however slow the program is.  Invocations the deadline cuts short or
leaves unstarted count as failed ("cut"); the rates are taken over the
wall time actually spent, and ``verify_s`` estimates the invocations it
misses at the mean of those that finished.

With ``--trace 1`` each invocation instead runs in process under a root
span around ``sdeq.cli.run`` and is replayed through sdeq's public
functions under per-module spans (see replay.py); it prints the per-layer
metrics.  Spans are written to ``.perfbench/`` in the checkout.

Subprocesses run without ``SDE_SEED`` and ``PYTHONINTMAXSTRDIGITS`` in
their environment, and nothing here raises the interpreter's limit on
integer string conversion, so outputs past 4300 digits fail as they do
for a user; such invocations count as failed, not as wrong.  The last line
of stdout is one JSON object; per-invocation records (exit code, wall
time, report bytes, value sizes) go to stderr as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRUBBED = ("SDE_SEED", "PYTHONINTMAXSTRDIGITS")
DEADLINE_S = 165  # every subprocess is stopped by then; the longest invocation takes ~17 s
# a new pass starts only while the deadline leaves this multiple of the last pass's time
PASS_MARGIN = 2
SETUP_REPS = 21
STARTED = time.perf_counter()
# independent of sdeq; ~0.1 s on a 2 vCPU Xeon, about half of it interpreter start
YARDSTICK_JOB = """from fractions import Fraction
x = Fraction(3, 5)
for _ in range(300):
    x = Fraction(2, 3) * x + Fraction(-5, 7)
y, m = 7 ** 20000, 3 ** 40001
for _ in range(5):
    y = y * y % m
"""
YARDSTICK_NOMINAL_S = 0.1
# how each unit scales with the host's speed: times shrink, rates grow
SPEED_EXPONENT = {"s": -1, "1/s": 1, "MB/s": 1, "ratio": 0}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "verify_s": "s",
    "out_mb_per_s": "MB/s",
    "trials_per_s": "1/s",
}
PER_LAYER = {
    "closed_form.product_sweep_s": "s",
    "closed_form.case_sweep_s": "s",
    "closed_form.assembly_est_s": "s",
    "closed_form.case_point_s": "s",
    "rational.format_s": "s",
    "rational.format_digits": "count",
    "rational.parse_s": "s",
    "systems.iterate_s": "s",
    "systems.values": "count",
    "reduction.closed_ST_s": "s",
    "reduction.linear_s": "s",
    "reduction.roundtrip_s": "s",
    "forbidden.check_s": "s",
    "forbidden.terms": "count",
    "sampling.draw_s": "s",
    "sampling.accept_ratio": "ratio",
    "symmetry.residual_s": "s",
    "symmetry.group_s": "s",
    "cli.run_s": "s",
    "cli.unaccounted_s": "s",
    "cli.report_bytes": "bytes",
    "cli.peak_rss_mib": "MiB",
    "trace.overhead_frac": "ratio",
    "size.max_num_bits": "bits",
    "size.max_den_bits": "bits",
    "size.growth_order": "exponent",
}


def _remaining() -> float:
    return DEADLINE_S - (time.perf_counter() - STARTED)


def _another_pass(passes_s: list, start: float, seconds: float) -> bool:
    return not passes_s or (time.perf_counter() - start < seconds
                            and _remaining() > PASS_MARGIN * passes_s[-1])


def _log(record: dict) -> None:
    print(json.dumps(record), file=sys.stderr, flush=True)


def _python_time(code: str, env: dict) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                   capture_output=True, timeout=_remaining())
    return time.perf_counter() - start


def setup_time(env: dict) -> float:
    """Wall time of a fresh interpreter that imports sdeq.cli and builds the
    parser, doing no work."""
    return _python_time("import sdeq.cli as c; c.build_parser()", env)


def run_untraced(calls, refs, env: dict, seconds: float, setup_reps: int):
    """Closed loop over whole passes; returns per-pass records, set-up
    times and yardstick times.  Set-up is timed between invocations, spread
    over the first pass so that its median is taken across the run rather
    than one moment of it; an untimed first set-up fills the bytecode cache.
    The yardstick runs first and after every second invocation."""
    setup_time(env)
    setups, yardsticks = [], [_python_time(YARDSTICK_JOB, env)]
    every = max(1, len(calls) // setup_reps)
    passes, passes_s = [], []
    start = time.perf_counter()
    while _another_pass(passes_s, start, seconds):
        records = []
        pass_began = time.perf_counter()
        for index, call in enumerate(calls):
            if (not passes and index % every == 0 and len(setups) < setup_reps
                    and _remaining() > 10):
                setups.append(setup_time(env))
            began = time.perf_counter()
            code, out, err, cut = None, "", "", _remaining() <= 0
            if not cut:
                try:
                    proc = subprocess.run([sys.executable, "-m", "sdeq", *call.argv], env=env,
                                          cwd=ROOT, capture_output=True, text=True,
                                          timeout=_remaining())
                    code, out, err = proc.returncode, proc.stdout, proc.stderr
                except subprocess.TimeoutExpired:
                    cut = True
            wall = time.perf_counter() - began
            status, reason = "ok", None
            if cut:
                status, reason = "cut", f"stopped by the {DEADLINE_S} s deadline"
            elif "Traceback" in err:
                status, reason = "failed", err.strip().splitlines()[-1][:200]
            else:
                try:
                    reason = workloads.check(call, code, out, err, refs)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    reason = f"unreadable report: {exc!r}"
                if reason is not None:
                    status = "wrong"
            num_bits, den_bits, values = workloads.sizes_of(call, refs)
            records.append({
                "invocation": call.label(), "status": status, "reason": reason, "exit": code,
                "wall_s": wall, "bytes": len(out.encode()) if status == "ok" else 0,
                "max_num_bits": num_bits, "max_den_bits": den_bits, "values": values,
                "confirms": call.confirms, "kind": call.kind, "trials": call.trials,
            })
            if not passes:
                _log(records[-1])
            if index % 2 and _remaining() > 10:
                yardsticks.append(_python_time(YARDSTICK_JOB, env))
        passes.append(records)
        passes_s.append(time.perf_counter() - pass_began)
    return passes, setups, yardsticks


def end_to_end(records) -> dict:
    """Metrics of one pass.  A pass that the deadline cut reads as slow: the
    rates count the time spent on cut invocations, and verify_s estimates
    the confirming invocations that did not finish at the mean of those
    that did (at the deadline itself if none did)."""
    wall = sum(r["wall_s"] for r in records)
    ok = [r for r in records if r["status"] == "ok"]
    confirm = [r for r in records if r["confirms"]]
    finished = [r for r in confirm if r["status"] != "cut"]
    confirm_s = sum(r["wall_s"] for r in finished)
    trials = sum(r["trials"] or 1 for r in finished if r["status"] == "ok")
    return {
        "ops_per_s": len(ok) / wall,
        "ok_frac": len(ok) / len(records),
        "verify_s": confirm_s * len(confirm) / len(finished) if finished else float(DEADLINE_S),
        "out_mb_per_s": sum(r["bytes"] for r in ok) / wall / 1e6,
        "trials_per_s": trials / confirm_s if finished else 0.0,
    }


def workload_property(workload: str, refs) -> list:
    """Problems with the size property the workload was chosen for."""
    problems = []
    for family, (first, second) in refs.orbits.items():
        bits = max(max(reference.size(v)) for v in first + second)
        order = reference.growth_order(first, second)
        _log({"family": family, "n": len(first) - 1, "max_bits": bits, "growth_order": order})
        if workload == "deep-nonunit" and (order < 1.7 or (family == "A-ABneq1" and bits < 100000)):
            problems.append(f"{family}: {bits} bits, growth order {order:.2f}, expected quadratic")
        if workload == "deep-unit" and (order > 1.4 or bits > 20000):
            problems.append(f"{family}: {bits} bits, growth order {order:.2f}, expected linear")
    return problems


def run_traced(calls, refs, seconds: float, trace_path: Path):
    import replay

    tracer = replay.Tracer()
    passes, passes_s, sizes, failed, wrong = [], [], [], [], []
    start = time.perf_counter()
    while _another_pass(passes_s, start, seconds):
        began = time.perf_counter()
        layers, orbit_sizes, pass_failed, pass_wrong = replay.run_pass(calls, refs, tracer)
        passes_s.append(time.perf_counter() - began)
        layers["wall_s"] = passes_s[-1]
        passes.append(layers)
        sizes += orbit_sizes
        failed += pass_failed
        wrong += pass_wrong
    for label, reason in failed + wrong:
        _log({"invocation": label, "reason": reason})
    span_cost = tracer.calibrate()
    metrics = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    metrics["trace.overhead_frac"] = span_cost * metrics.pop("spans") / metrics.pop("wall_s")
    metrics["cli.peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["size.max_num_bits"] = max(s[0] for s in sizes)
    metrics["size.max_den_bits"] = max(s[1] for s in sizes)
    metrics["size.growth_order"] = statistics.median(s[2] for s in sizes)
    trace_path.parent.mkdir(exist_ok=True)
    tracer.dump(trace_path)
    return metrics, len(calls) * len(passes), len(failed) + len(wrong), not wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "sdeq" / "cli.py").is_file():
        print(f"error: no sdeq sources at {SRC / 'sdeq'}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["PYTHONPATH"] = str(SRC)
    if any(k in os.environ for k in SCRUBBED):
        # the traced run works in this process, so it needs the same environment
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(SRC))
    calls = workloads.generate(args.workload, args.seed, tiny=args.tiny)
    refs = workloads.References(calls)
    problems = [] if args.tiny else workload_property(args.workload, refs)
    for problem in problems:
        _log({"property": problem})

    if args.trace:
        trace_path = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
        values, attempted, failed, correct = run_traced(calls, refs, args.seconds, trace_path)
        units = PER_LAYER
    else:
        passes, setups, yardsticks = run_untraced(calls, refs, env, args.seconds,
                                                  3 if args.tiny else SETUP_REPS)
        raw = {"setup_s": statistics.median(setups)}
        per_pass = [end_to_end(records) for records in passes]
        raw.update({k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]})
        slowdown = statistics.median(yardsticks) / YARDSTICK_NOMINAL_S
        values = {k: v * slowdown ** SPEED_EXPONENT[END_TO_END[k]] for k, v in raw.items()}
        _log({"raw": raw, "yardsticks": len(yardsticks), "slowdown": slowdown})
        records = [r for records in passes for r in records]
        attempted = len(records)
        failed = sum(r["status"] != "ok" for r in records)
        correct = not any(r["status"] == "wrong" for r in records)
        units = END_TO_END
    result = {
        "correct": correct and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
