"""Seeded rational sampling shared by difftest, symmetry-check and the tests,
and the differential test driver.

Distribution: numerators uniform in [-9, 9], denominators uniform in
[1, 9], one draw per field of the system's input records
(``systems.SHAPES``).  Draws that violate a constraint (zero where nonzero
is required, a forbidden initial condition, a parameter predicate) are
redrawn up to a documented retry cap; the small magnitudes keep the
product formulas fast while still exercising every sign case.

``difftest`` draws admissible inputs stratum by stratum (``STRATA``) and
compares the closed forms with iteration at each; the ``difftest``
subcommand runs it (``_run_difftest``).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .rational import _lit_map
from .systems import SHAPES, Singularity, SystemAParams, SystemBParams, system_aliases

RETRY_CAP = 1000

DISTRIBUTION_NOTE = (
    "numerators uniform in [-9, 9], denominators uniform in [1, 9]; "
    "redraw on constraint violation (retry cap %d)" % RETRY_CAP
)


class RetryCapError(RuntimeError):
    """Every draw up to the retry cap violated its constraint."""


def __getattr__(name: str):
    # the restriction checks are imported on first use, so that a process
    # that only draws (symmetry-check) loads neither forbidden nor
    # closed_form; once read they are plain module attributes, which a
    # counting wrapper or a test double may replace
    if name in ("check_forbidden_a", "check_forbidden_b"):
        from . import forbidden

        globals()[name] = value = getattr(forbidden, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# every value of draw_rational, at [numerator + 9][denominator - 1], as a
# Fraction and as its (numerator, denominator) pair in lowest terms
_RATIONALS = tuple(tuple(Fraction(p, q) for q in range(1, 10)) for p in range(-9, 10))
_PAIRS = tuple(tuple((value.numerator, value.denominator) for value in row) for row in _RATIONALS)


def draw_pairs(rng: random.Random, count: int, nonzero: bool = False) -> list[tuple[int, int]]:
    """The (numerator, denominator) pairs of ``count`` values of
    Fraction(randint(-9, 9), randint(1, 9)), each redrawn while zero when
    ``nonzero``.  They are drawn as randint draws them: the numerator
    first, each by getrandbits of its range's bit length, redrawn past the
    range's end.  So the generator moves exactly as under the randint
    calls, and every seeded report keeps its bytes."""
    getrandbits = rng.getrandbits
    pairs = []
    for _ in range(count):
        for _ in range(RETRY_CAP):
            numerator = getrandbits(5)
            while numerator >= 19:
                numerator = getrandbits(5)
            denominator = getrandbits(4)
            while denominator >= 9:
                denominator = getrandbits(4)
            if numerator != 9 or not nonzero:  # index 9 is the numerator 0
                break
        else:
            raise RetryCapError("retry cap exhausted drawing a nonzero rational")
        pairs.append(_PAIRS[numerator][denominator])
    return pairs


def pair_value(pair: tuple[int, int]) -> Fraction:
    """The Fraction of a drawn pair, from the table."""
    return _RATIONALS[pair[0] + 9][pair[1] - 1]


def draw_rational(rng: random.Random) -> Fraction:
    return pair_value(draw_pairs(rng, 1)[0])


def draw_nonzero(rng: random.Random) -> Fraction:
    return pair_value(draw_pairs(rng, 1, nonzero=True)[0])


def draw_ics(rng: random.Random, system: str):
    """Every initial component nonzero, so every seed product is nonzero."""
    initial = SHAPES[system].initial
    return initial(*[draw_nonzero(rng) for _ in initial._fields])


def _draw_ac_unit(rng: random.Random) -> SystemBParams:
    a = draw_nonzero(rng)
    return SystemBParams(a, draw_rational(rng), 1 / a, draw_rational(rng))


# per system: the draws of the cases that pin some parameters
_PINNED = {
    "A": {
        "Aeq1": lambda rng: SystemAParams(1, draw_rational(rng)),
        "Beq1": lambda rng: SystemAParams(draw_rational(rng), 1),
    },
    "B": {"ACeq1": _draw_ac_unit},
}


def _draw_all(rng: random.Random, system: str):
    params = SHAPES[system].params
    return params(*[draw_rational(rng) for _ in params._fields])


def draw_params(rng: random.Random, system: str, tag: str | None = None):
    """Parameters of ``system``; with a case tag, parameters on which that
    case's formula is valid: its fixed ones, or draws redrawn until its
    predicate holds."""
    if tag is None:
        return _draw_all(rng, system)
    from .closed_form import lookup_case

    case = lookup_case(system, tag)
    if case.fixed is not None:
        return case.fixed
    pinned = _PINNED[system].get(tag)
    for _ in range(RETRY_CAP):
        params = pinned(rng) if pinned else _draw_all(rng, system)
        if case.applies(params):
            return params
    raise RetryCapError(f"retry cap exhausted drawing parameters for case {tag}")


def draw_admissible(rng: random.Random, system: str, n_max: int, tag: str | None = None):
    """(params, ics, skipped): an input whose restriction check is clean up
    to n_max, and how many draws before it were not."""
    # check_forbidden_a or _b, looked up at call time, so a substituted check
    # (a counting wrapper, a test double) is the one that runs
    name = f"check_forbidden_{system.lower()}"
    check = globals()[name] if name in globals() else __getattr__(name)
    horizon = max(0, (n_max - 1) // SHAPES[system].period)
    for skipped in range(RETRY_CAP):
        params = draw_params(rng, system, tag)
        ics = draw_ics(rng, system)
        if check(params, ics, horizon).clean:
            return params, ics, skipped
    raise RetryCapError(f"retry cap exhausted drawing admissible System {system} input")


def admissible_pair(system: str, rng: random.Random, n_max: int, tag: str | None = None):
    """(params, ics) of draw_admissible."""
    return draw_admissible(rng, system, n_max, tag)[:2]


draw_admissible_a, draw_admissible_b = system_aliases("draw_admissible_{}", admissible_pair)


# per system, the (stratum name, case tag or None) difftest trials cycle through
STRATA = {
    "A": (("general", None),),
    "B": (("general", None), ("ac-unit", "ACeq1"), ("unit-bd", "UnitBD"), ("all-ones", "AllOnes")),
}


def difftest(system: str, trials: int, n_max: int, seed: int) -> dict:
    """Sample admissible inputs, skip forbidden ones, and assert exact
    agreement of the product and case closed forms with iteration, by the
    comparison ``verify`` makes (``closed_form._compare``) at the
    auto-selected case.

    Trials cycle through the system's parameter strata (for System B the
    geometric-ratio, unit-ratio, unit-b,d and all-ones families).  The
    report is the JSON body, which cli writes after its "schema_version".
    """
    from .closed_form import _compare, _literal, auto_case

    strata = STRATA[system]
    rng = random.Random(seed)
    skipped = 0
    comparisons = 0
    failures = 0
    first_counterexample = None
    strata_counts: dict[str, int] = {}
    for trial in range(trials):
        stratum, case = strata[trial % len(strata)]
        params, ics, skipped_now = draw_admissible(rng, system, n_max, case)
        skipped += skipped_now
        strata_counts[stratum] = strata_counts.get(stratum, 0) + 1
        compared = _compare(system, auto_case(system, params), params, ics, n_max)
        inputs = {"params": _lit_map(params), "ics": _lit_map(ics)}
        if isinstance(compared, Singularity):
            # admissible inputs cannot be singular; a hit here is a finding
            failures += 1
            if first_counterexample is None:
                first_counterexample = {
                    "kind": "unexpected-singularity",
                    **inputs,
                    "step": compared.step,
                }
            continue
        orbit, routes, failed, mismatch = compared
        comparisons += len(routes) * (n_max + 1)
        failures += failed
        if mismatch is not None and first_counterexample is None:
            route, n, _ = mismatch
            closed = routes[route]
            first_counterexample = {
                "kind": "value-mismatch",
                "route": route,
                **inputs,
                "n": n,
                "closed_first": _literal(closed, 0, n),
                "closed_second": _literal(closed, 1, n),
                "iterated_first": _literal(orbit, 0, n),
                "iterated_second": _literal(orbit, 1, n),
            }
    return {
        "command": "difftest",
        "system": system,
        "trials": trials,
        "N": n_max,
        "seed": seed,
        "distribution": DISTRIBUTION_NOTE,
        "strata": {k: strata_counts[k] for k in sorted(strata_counts)},
        "skipped_draws": skipped,
        "comparisons": comparisons,
        "failures": failures,
        "first_counterexample": first_counterexample,
    }


def _run_difftest(config) -> tuple:
    """The ``difftest`` subcommand: ``difftest``; it passes where no trial
    failed."""
    report = difftest(config.system, config.trials, config.n, config.seed)
    return report["failures"] == 0, report
