"""Seeded rational sampling shared by the differential driver and tests.

Distribution: numerators uniform in [-9, 9], denominators uniform in
[1, 9], one draw per field of the system's input records
(``systems.SHAPES``).  Draws that violate a constraint (zero where nonzero
is required, a forbidden initial condition, a parameter predicate) are
redrawn up to a documented retry cap; the small magnitudes keep the
product formulas fast while still exercising every sign case.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .closed_form import lookup_case
from .forbidden import check_forbidden_a, check_forbidden_b
from .systems import SHAPES, SystemAParams, SystemBParams, system_aliases

RETRY_CAP = 1000

DISTRIBUTION_NOTE = (
    "numerators uniform in [-9, 9], denominators uniform in [1, 9]; "
    "redraw on constraint violation (retry cap %d)" % RETRY_CAP
)


class RetryCapError(RuntimeError):
    """Every draw up to the retry cap violated its constraint."""


# every value of draw_rational, at [numerator + 9][denominator - 1]
_RATIONALS = tuple(tuple(Fraction(p, q) for q in range(1, 10)) for p in range(-9, 10))


def draw_rational(rng: random.Random) -> Fraction:
    # the numerator's draw comes first, as in Fraction(numerator, denominator)
    return _RATIONALS[rng.randint(-9, 9) + 9][rng.randint(1, 9) - 1]


def draw_nonzero(rng: random.Random) -> Fraction:
    for _ in range(RETRY_CAP):
        value = draw_rational(rng)
        if value != 0:
            return value
    raise RetryCapError("retry cap exhausted drawing a nonzero rational")


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
    check = globals()[f"check_forbidden_{system.lower()}"]
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
