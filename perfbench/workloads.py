"""The benchmark's workloads: seeded lists of ``sdeq`` CLI invocations, and
the check that each invocation's report is correct.

``sampled`` is acceptance-style traffic: many small random problems
(difftest, symmetry-check, check-forbidden on inputs built to turn singular
at a known step).  ``deep-nonunit`` runs single orbits with non-integer
parameters, whose values grow by about 0.55*n^2 bits, so big-integer work
and decimal conversion dominate.  ``deep-unit`` runs the same subcommands
with unit parameters, whose values stay small, so per-index overhead and
full-sweep recomputation dominate.  The deep workloads fix their inputs
and run only iterate (JSON and CSV), solve (--sweep, and single-point on
the pure-power tags), reduce and verify; the seed orders their list.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F

import reference

WORKLOADS = ("sampled", "deep-nonunit", "deep-unit")

PARAM_FLAGS = {"A": ("a", "b"), "B": ("a", "b", "c", "d")}
IC_FLAGS = {"A": ("u0", "u1", "v0", "v1"), "B": ("x0", "x1", "x2", "y0", "y1", "y2")}
# index period of the auxiliary closed forms and restriction families
PERIOD = {"A": 2, "B": 4}

# name -> (system, params, initial conditions)
NONUNIT = {
    "A-ABneq1": ("A", (F(2, 3), F(-5, 7)), (F(3, 5), F(-2, 7), F(4, 9), F(5, 8))),
    "B-ACneq1": (
        "B",
        (F(2, 3), F(-5, 7), F(3, 5), F(4, 9)),
        (F(3, 5), F(-2, 7), F(4, 9), F(5, 8), F(-3, 4), F(7, 6)),
    ),
}
_A_UNIT_ICS = (F(3, 5), F(2, 7), F(4, 9), F(5, 8))
_B_UNIT_ICS = (F(3, 5), F(2, 7), F(4, 9), F(5, 8), F(3, 4), F(7, 6))
UNIT = {
    "A-OnesOnes": ("A", (F(1), F(1)), _A_UNIT_ICS),
    "A-NegNeg": ("A", (F(-1), F(-1)), _A_UNIT_ICS),
    "A-Aeq1Bneg1": ("A", (F(1), F(-1)), _A_UNIT_ICS),
    "B-AllOnes": ("B", (F(1), F(1), F(1), F(1)), _B_UNIT_ICS),
    "B-UnitBD": ("B", (F(1), F(1), F(-1), F(1)), _B_UNIT_ICS),
    "B-ACeq1": ("B", (F(2), F(1), F(1, 2), F(1)), _B_UNIT_ICS),
}
# residuals one symmetry-check evaluates at the CLI's defaults: 10 pairs x 2 parities x 100
RESIDUALS_PER_CHECK = 2000
# tags whose closed form is a pure power of the index
PURE_POWER = ("A-NegNeg", "A-Aeq1Bneg1", "B-UnitBD")

FULL = {
    "deep_n": {"deep-nonunit": (100, 250, 500), "deep-unit": (500, 2000)},
    "difftest": {"A": (20, 8, 100), "B": (20, 12, 60)},  # invocations, trials, n
    "symmetry": 5,  # invocations per system
    "forbidden": {"A": (8, 2000, 40), "B": (8, 1000, 15)},  # invocations, horizon, max r
}
TINY = {
    "deep_n": {"deep-nonunit": (12, 20), "deep-unit": (16, 24)},
    "difftest": {"A": (2, 2, 8), "B": (2, 4, 8)},
    "symmetry": 1,
    "forbidden": {"A": (1, 20, 3), "B": (1, 10, 2)},
}


@dataclass
class Invocation:
    """One CLI call and what its report must say."""

    kind: str  # iterate | solve | reduce | verify | difftest | symmetry-check | check-forbidden
    system: str
    argv: list
    family: str = ""
    params: tuple = ()
    ics: tuple = ()
    n: int = 0
    fmt: str = "json"
    sweep: bool = False
    trials: int = 0
    seed: int = 0
    horizon: int = 0
    expected_step: int | None = None
    expected_code: int = 0

    @property
    def confirms(self) -> bool:
        """True for invocations that confirm closed forms against iteration."""
        return self.kind in ("verify", "difftest")

    def label(self) -> str:
        extra = " --sweep" if self.sweep else ""
        extra += " --format csv" if self.fmt == "csv" else ""
        what = self.family or f"{self.system} seed={self.seed}"
        return f"{self.kind} {what} n={self.n or self.horizon}{extra}"


def _flags(system: str, params, ics) -> list:
    argv = []
    for name, value in zip(PARAM_FLAGS[system], params):
        argv += [f"--{name}", str(value)]
    for name, value in zip(IC_FLAGS[system], ics):
        argv += [f"--{name}", str(value)]
    return argv


def _orbit_calls(family: str, system: str, params, ics, n: int) -> list:
    base = dict(system=system, family=family, params=params, ics=ics, n=n)
    args = ["--system", system] + _flags(system, params, ics) + ["--n", str(n)]
    calls = [
        Invocation("iterate", argv=["iterate"] + args, **base),
        Invocation("iterate", argv=["iterate"] + args + ["--format", "csv"], fmt="csv", **base),
        Invocation("solve", argv=["solve"] + args + ["--sweep"], sweep=True, **base),
        Invocation("reduce", argv=["reduce"] + args, **base),
        Invocation("verify", argv=["verify"] + args, **base),
    ]
    if family in PURE_POWER:
        calls.append(Invocation("solve", argv=["solve"] + args, **base))
    return calls


def _symmetry_call(system: str, rng) -> Invocation:
    seed = rng.randrange(2**31)
    argv = ["symmetry-check", "--system", system, "--seed", str(seed)]
    return Invocation("symmetry-check", system, argv, seed=seed)


def _draw(rng) -> F:
    return F(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 9))


def _singular_forbidden_call(system: str, horizon: int, max_r: int, rng) -> Invocation:
    """A check-forbidden call whose input turns singular within the horizon,
    with the singular step observed by the reference iteration.

    The ratio ab (A) or ac (B) is kept off +-1, where zeros of S and T
    recur periodically: each input then has isolated zeros, and report
    sizes stay comparable from seed to seed."""
    while True:
        params = tuple(_draw(rng) for _ in PARAM_FLAGS[system])
        if abs(params[0] * params[1 if system == "A" else 2]) == 1:
            continue
        ics = tuple(_draw(rng) for _ in IC_FLAGS[system])
        m = PERIOD[system] * rng.randint(1, max_r)  # S[m] depends on S[0] at these indices
        ics = reference.singular_at(system, params, ics, m)
        if ics is None:
            continue
        step = reference.orbit(system, params, ics, m + 1)[2]
        if step is not None:
            argv = ["check-forbidden", "--system", system] + _flags(system, params, ics)
            argv += ["--horizon", str(horizon)]
            return Invocation("check-forbidden", system, argv, params=params, ics=ics,
                              horizon=horizon, expected_step=step, expected_code=3)


def _difftest_call(system: str, trials: int, n: int, rng) -> Invocation:
    seed = rng.randrange(2**31)
    argv = ["difftest", "--system", system, "--n", str(n), "--trials", str(trials),
            "--seed", str(seed)]
    return Invocation("difftest", system, argv, n=n, trials=trials, seed=seed)


def generate(workload: str, seed: int, tiny: bool = False) -> list:
    """The invocation list of ``workload`` for ``seed``, in run order."""
    sizes = TINY if tiny else FULL
    rng = random.Random(f"{workload}:{seed}")
    calls = []
    if workload == "sampled":
        for system in ("A", "B"):
            count, trials, n = sizes["difftest"][system]
            calls += [_difftest_call(system, trials, n, rng) for _ in range(count)]
            calls += [_symmetry_call(system, rng) for _ in range(sizes["symmetry"])]
            count, horizon, max_r = sizes["forbidden"][system]
            calls += [_singular_forbidden_call(system, horizon, max_r, rng) for _ in range(count)]
    elif workload in ("deep-nonunit", "deep-unit"):
        families = NONUNIT if workload == "deep-nonunit" else UNIT
        ns = sizes["deep_n"][workload]
        for family, (system, params, ics) in families.items():
            for n in ns:
                calls += _orbit_calls(family, system, params, ics, n)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# checking reports


class References:
    """Reference orbits and auxiliary sequences, computed once per family
    at the largest index any invocation needs."""

    def __init__(self, calls):
        need = {}
        for call in calls:
            if call.family:
                system, params, ics = (call.system, call.params, call.ics)
                n = max(call.n, need.get(call.family, (0,))[0])
                need[call.family] = (n, system, params, ics)
        self.orbits = {}
        self.aux = {}
        for family, (n, system, params, ics) in need.items():
            first, second, step = reference.orbit(system, params, ics, max(n, 3))
            if step is not None:
                raise RuntimeError(f"workload input {family} is singular at step {step}")
            self.orbits[family] = (first, second)
            self.aux[family] = reference.auxiliary(system, params, *reference.seeds(system, ics), n)


def _rows(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _all_same(texts, values) -> bool:
    return len(texts) == len(values) and all(map(reference.same, texts, values))


def check(call: Invocation, code: int, out: str, err: str, refs: References) -> str | None:
    """None when the report is correct, else the reason it is not.  A crash
    (a traceback) is caught by the caller and counts as a failure, not as a
    wrong result."""
    if code != call.expected_code:
        return f"exit code {code}, expected {call.expected_code}"
    if call.kind in ("iterate", "solve", "reduce"):
        return _check_values(call, out, refs)
    report = json.loads(out)
    if call.kind == "verify":
        ok = report["equal"] is True and report["checked"] == 2 * (call.n + 1)
        return None if ok else f"verify report {report['equal']}, checked {report['checked']}"
    if call.kind == "difftest":
        strata = {"A": {"general": call.trials}}.get(call.system) or {
            name: call.trials // 4 for name in ("ac-unit", "all-ones", "general", "unit-bd")
        }
        expected = (0, 2 * call.trials * (call.n + 1), strata)
        got = (report["failures"], report["comparisons"], report["strata"])
        return None if got == expected else f"difftest {got}, expected {expected}"
    if call.kind == "symmetry-check":
        ok = report["all_zero"] is True and report["checked"] == RESIDUALS_PER_CHECK
        return None if ok else "nonzero residuals or wrong count"
    if call.kind == "check-forbidden":
        got = report["predicted_singular_step"]
        return None if got == call.expected_step else f"predicted {got}, observed {call.expected_step}"
    raise ValueError(call.kind)


def _check_values(call: Invocation, out: str, refs: References) -> str | None:
    first, second = refs.orbits[call.family]
    n = call.n
    if call.kind == "reduce":
        S, T = refs.aux[call.family]
        expect = {"w": [1 / s for s in S[:n]], "z": [1 / t for t in T[:n]], "S": S[:n], "T": T[:n]}
        if call.fmt == "csv":
            header, rows = _rows(out)
            got = {name: [row[i + 1] for row in rows] for i, name in enumerate(header[1:])}
        else:
            got = json.loads(out)
        bad = [name for name in expect if not _all_same(got[name], expect[name])]
        return f"reduce differs from the linear recurrence in {bad}" if bad else None
    if call.kind == "iterate":
        indices = list(range(n + 1))
        if call.fmt == "csv":
            _, rows = _rows(out)
            got = ([r[1] for r in rows], [r[2] for r in rows], [int(r[0]) for r in rows])
        else:
            report = json.loads(out)
            got = (report["first"], report["second"], indices)
    else:  # solve
        indices = list(range(n + 1)) if call.sweep else [n]
        if call.fmt == "csv":
            _, rows = _rows(out)
            got = ([r[1] for r in rows], [r[2] for r in rows], [int(r[0]) for r in rows])
        else:
            records = json.loads(out)["records"]
            got = ([r["first"] for r in records], [r["second"] for r in records],
                   [r["n"] for r in records])
    if got[2] != indices:
        return "wrong indices"
    if not _all_same(got[0], [first[k] for k in indices]):
        return "first component differs from the reference orbit"
    if not _all_same(got[1], [second[k] for k in indices]):
        return "second component differs from the reference orbit"
    return None


def sizes_of(call: Invocation, refs: References) -> tuple[int, int, int]:
    """(largest numerator bits, largest denominator bits, values) of the
    orbit values an invocation reports or confirms."""
    if call.family not in refs.orbits:
        return 0, 0, 0
    first, second = refs.orbits[call.family]
    if call.kind == "reduce":
        S, T = refs.aux[call.family]
        values = S[: call.n] + T[: call.n]
    elif call.kind == "solve" and not call.sweep:
        values = [first[call.n], second[call.n]]
    else:
        values = first[: call.n + 1] + second[: call.n + 1]
    sizes = [reference.size(v) for v in values]
    return max(s[0] for s in sizes), max(s[1] for s in sizes), len(values)
