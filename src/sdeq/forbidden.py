"""Forbidden initial conditions and singular-step prediction.

The closed forms break down exactly where an auxiliary value S[m] or T[m]
vanishes, and the iteration denominators factor through the same values:

  System A:  a + u[n]*v[n+1] = S[n+1]/T[n],  b + v[n]*u[n+1] = T[n+1]/S[n]
  System B:  a + b*x[n]*y[n+1] = T[n+2]/S[n],  c + d*y[n]*x[n+1] = S[n+2]/T[n]

so with admissible (all-nonzero-product) initial conditions the first
vanishing auxiliary index m forces the first iteration singularity at step
m + 1 (S-side zeros break the first component for System A and the second
for System B; T-side the other one).  The checker evaluates every
restriction family by direct exact comparison for each r up to the
horizon; ``predict_vs_observe`` closes the loop against the iterator.

Zero invariant products (for System A, a zero among u0*v1, v0*u1) make the
closed forms inadmissible; they are reported as their own violations with
no predicted step.  ``predict_vs_observe`` then predicts from the invariant
map itself, which stays defined on zero products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .reduction import solve_linear_a, solve_linear_b
from .systems import (
    SystemAInitial,
    SystemAParams,
    SystemBInitial,
    SystemBParams,
    iterate_a,
    iterate_b,
)


@dataclass(frozen=True)
class Violation:
    restriction_id: str
    r: int


@dataclass(frozen=True)
class ForbiddenReport:
    violated: tuple[Violation, ...]
    predicted_singular_step: Optional[int]

    @property
    def closed_form_inadmissible(self) -> bool:
        return any(v.restriction_id.endswith("_zero") for v in self.violated)

    @property
    def clean(self) -> bool:
        return not self.violated


@dataclass(frozen=True)
class PredictVerdict:
    kind: str  # "agree-regular" | "agree-singular" | "mismatch"
    step: Optional[int] = None
    details: Optional[dict] = None


def _check(params, products, horizon: int, solve_linear, residues) -> ForbiddenReport:
    """Zero seed products by name; else the restriction families S_<residue>
    and T_<residue>, with residues naming the index classes of one period,
    evaluated from the linear recursion seeded with the reciprocal products."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    violated = [Violation(name, 0) for name, value in products if value == 0]
    if violated:
        return ForbiddenReport(tuple(violated), None)
    period = len(residues)
    seeds = (1 / value for _, value in products)
    lin = solve_linear(params, *seeds, period * horizon + period - 1)
    predicted: Optional[int] = None
    for r in range(horizon + 1):
        for offset, residue in enumerate(residues):
            m = period * r + offset
            for side, values in (("S", lin.S), ("T", lin.T)):
                if values[m] == 0:
                    violated.append(Violation(f"{side}_{residue}", r))
                    if predicted is None:
                        predicted = m + 1
    return ForbiddenReport(tuple(violated), predicted)


def check_forbidden_a(
    params: SystemAParams, ics: SystemAInitial, horizon: int
) -> ForbiddenReport:
    """Evaluate the four restriction families (S and T, even and odd
    indices) for every r <= horizon; flag zero seed products separately."""
    products = (("w0_zero", ics.v0 * ics.u1), ("z0_zero", ics.u0 * ics.v1))
    return _check(params, products, horizon, solve_linear_a, ("even", "odd"))


def check_forbidden_b(
    params: SystemBParams, ics: SystemBInitial, horizon: int
) -> ForbiddenReport:
    """Evaluate the eight mod-4 restriction families for every r <= horizon
    plus the four nonzero-product admissibility conditions."""
    products = (
        ("w0_zero", ics.x0 * ics.y1),
        ("w1_zero", ics.x1 * ics.y2),
        ("z0_zero", ics.y0 * ics.x1),
        ("z1_zero", ics.y1 * ics.x2),
    )
    residues = ("mod4_0", "mod4_1", "mod4_2", "mod4_3")
    return _check(params, products, horizon, solve_linear_b, residues)


def _invariant_map_step_a(params: SystemAParams, ics: SystemAInitial, n_max: int):
    """First singular step of System A by the invariant map
    w[n+1] = z[n]/(a + z[n]), z[n+1] = w[n]/(b + w[n]) from w[0] = v0*u1,
    z[0] = u0*v1: the denominators of u[n+2] and v[n+2] are a + z[n] and
    b + w[n], so step n + 2 is singular iff one of them vanishes."""
    a, b = params.a, params.b
    w, z = ics.v0 * ics.u1, ics.u0 * ics.v1
    for n in range(n_max - 1):
        if a + z == 0 or b + w == 0:
            return n + 2
        w, z = z / (a + z), w / (b + w)
    return None


# per system: restriction check, iterator, index period, minimum n_max
_PREDICT = {"A": (check_forbidden_a, iterate_a, 2, 1), "B": (check_forbidden_b, iterate_b, 4, 2)}


def predict_vs_observe(
    system: str,
    params,
    ics,
    n_max: int,
) -> PredictVerdict:
    """Compare the restriction-based singularity prediction with iteration.

    The restrictions need nonzero seed products.  A System A input with a
    zero seed product is predicted from the invariant map instead; System B
    rejects zero initial components outright.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if system not in _PREDICT:
        raise ValueError(f"unknown system {system!r}")
    check, iterate, period, min_n = _PREDICT[system]
    if n_max < min_n:
        raise ValueError(f"n_max must be >= {min_n} for System {system}")
    report = check(params, ics, max(0, (n_max - 1) // period))
    trajectory = iterate(params, ics, n_max)  # System B rejects zero initials
    predicted = report.predicted_singular_step
    if system == "A" and report.closed_form_inadmissible:
        predicted = _invariant_map_step_a(params, ics, n_max)
    if predicted is not None and predicted > n_max:
        predicted = None  # not reachable within the queried horizon
    observed = None if trajectory.singular is None else trajectory.singular.step
    if predicted == observed:
        if observed is None:
            return PredictVerdict("agree-regular")
        return PredictVerdict("agree-singular", observed)
    details = {
        "system": system,
        "params": params,
        "ics": ics,
        "n_max": n_max,
        "predicted": predicted,
        "observed": observed,
        "violations": report.violated,
    }
    return PredictVerdict("mismatch", None, details)
