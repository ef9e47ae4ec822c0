"""Forbidden initial conditions and singular-step prediction.

The closed forms break down exactly where an auxiliary value S[m] or T[m]
vanishes, and the iteration denominators factor through the same values:

  System A:  a + u[n]*v[n+1] = S[n+1]/T[n],  b + v[n]*u[n+1] = T[n+1]/S[n]
  System B:  a + b*x[n]*y[n+1] = T[n+2]/S[n],  c + d*y[n]*x[n+1] = S[n+2]/T[n]

so with admissible (all-nonzero-product) initial conditions the first
vanishing auxiliary index m forces the first iteration singularity at step
m + 1 (S-side zeros break the first component for System A and the second
for System B; T-side the other one).  The checker runs the linear
recursion of S and T on unreduced (numerator, denominator) pairs of ints
and tests each numerator for zero, for each r up to the horizon: the
denominators are products of the parameter denominators and the seed
numerators, so they never vanish.  ``predict_vs_observe`` closes the loop
against the iterator.

Zero invariant products (for System A, a zero among u0*v1, v0*u1) make the
closed forms inadmissible; they are reported as their own violations with
no predicted step.  ``predict_vs_observe`` then predicts from the invariant
map itself, which stays defined on zero products.
"""

from __future__ import annotations

from typing import Optional

from .systems import (
    SystemAInitial,
    SystemAParams,
    SystemBInitial,
    SystemBParams,
    _Record,
    iterate_a,
    iterate_b,
)


class Violation(_Record):
    restriction_id: str
    r: int


class ForbiddenReport(_Record):
    violated: tuple[Violation, ...]
    predicted_singular_step: Optional[int]

    @property
    def closed_form_inadmissible(self) -> bool:
        return any(v.restriction_id.endswith("_zero") for v in self.violated)

    @property
    def clean(self) -> bool:
        return not self.violated


class PredictVerdict(_Record):
    kind: str  # "agree-regular" | "agree-singular" | "mismatch"
    step: Optional[int] = None
    details: Optional[dict] = None


def _affine(c, d):
    """X -> c*X + d on unreduced (numerator, denominator) pairs."""
    scale, shift = c.numerator * d.denominator, d.numerator * c.denominator
    den = c.denominator * d.denominator
    return lambda num, x_den: (scale * num + shift * x_den, den * x_den)


def _check(products, horizon: int, rules, residues) -> ForbiddenReport:
    """Zero seed products by name; else the restriction families S_<residue>
    and T_<residue>, with residues naming the index classes of one period.

    S and T start from the reciprocals of the products, the first half
    seeding S and the second T, and follow S[n+lag] = c*T[n] + d and
    T[n+lag] = c'*S[n] + d' for ``rules`` = ((c, d), (c', d')), with lag
    the number of seeds per side; each value is an unreduced pair of ints."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    violated = [Violation(name, 0) for name, value in products if value == 0]
    if violated:
        return ForbiddenReport(tuple(violated), None)
    next_s, next_t = (_affine(c, d) for c, d in rules)
    seeds = [(value.denominator, value.numerator) for _, value in products]
    lag = len(seeds) // 2
    S, T = seeds[:lag], seeds[lag:]  # the pairs at indices m .. m + lag - 1
    period = len(residues)
    predicted: Optional[int] = None
    for m in range(period * (horizon + 1)):
        s_pair, t_pair = S.pop(0), T.pop(0)
        for side, (numerator, _) in (("S", s_pair), ("T", t_pair)):
            if numerator == 0:
                violated.append(Violation(f"{side}_{residues[m % period]}", m // period))
                if predicted is None:
                    predicted = m + 1
        S.append(next_s(*t_pair))
        T.append(next_t(*s_pair))
    return ForbiddenReport(tuple(violated), predicted)


def check_forbidden_a(
    params: SystemAParams, ics: SystemAInitial, horizon: int
) -> ForbiddenReport:
    """Evaluate the four restriction families (S and T, even and odd
    indices) for every r <= horizon; flag zero seed products separately."""
    products = (("w0_zero", ics.v0 * ics.u1), ("z0_zero", ics.u0 * ics.v1))
    return _check(products, horizon, ((params.a, 1), (params.b, 1)), ("even", "odd"))


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
    return _check(products, horizon, ((params.c, params.d), (params.a, params.b)), residues)


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
