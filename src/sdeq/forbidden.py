"""Forbidden initial conditions and singular-step prediction.

The closed forms break down exactly where an auxiliary value S[m] or T[m]
vanishes, and the iteration denominators factor through the same values.
With the rule S[n+lag] = p*T[n] + q, T[n+lag] = r*S[n] + s of a system's
``systems.SHAPES`` record, the trailing component's update at step
n + lag + 1 divides by p + q*z[n] = S[n+lag]/T[n] and the leading one's by
r + s*w[n] = T[n+lag]/S[n] (System A: a + u[n]*v[n+1] = S[n+1]/T[n]; the
System B denominators carry a further nonzero component).  So with
admissible (all-nonzero-product) initial conditions the first vanishing
auxiliary index m forces the first iteration singularity at step m + 1,
in the trailing component for an S-side zero and in the leading one for a
T-side zero.  The checker runs the linear recursion of S and T on
unreduced (numerator, denominator) pairs of ints and tests each numerator
for zero, for each r up to the horizon: the denominators are products of
the parameter denominators and the seed numerators, so they never vanish.

Zero seed products make the closed forms inadmissible; they are reported
as their own violations with no predicted step.  ``predict_vs_observe``
closes the loop against the iterator, and on zero products predicts from
the invariant map itself, which stays defined there.
"""

from __future__ import annotations

from typing import Optional

from .systems import SHAPES, _Record, carry, system_aliases


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


def check_forbidden(system: str, params, ics, horizon: int) -> ForbiddenReport:
    """Zero seed products w<n>_zero, z<n>_zero; else the restriction
    families S_<residue> and T_<residue> over the index classes of one
    period (System A: S and T, even and odd; System B: mod 4) for every
    r <= horizon.

    S and T start from the reciprocals of the seed products and follow the
    system's rule S[n+lag] = p*T[n] + q, T[n+lag] = r*S[n] + s; each value
    is an unreduced pair of ints."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    shape = SHAPES[system]
    lag, period = shape.lag, shape.period
    products = [value for _, value in shape.seed_products(ics)]
    names = [f"{side}{n}_zero" for side in "wz" for n in range(lag)]
    violated = [Violation(name, 0) for name, value in zip(names, products) if value == 0]
    if violated:
        return ForbiddenReport(tuple(violated), None)
    next_s, next_t = (_affine(c, d) for c, d in shape.rule(params))
    seeds = [(value.denominator, value.numerator) for value in products]
    S, T = seeds[:lag], seeds[lag:]  # the pairs at indices m .. m + lag - 1
    residues = ("even", "odd") if period == 2 else [f"mod{period}_{k}" for k in range(period)]
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


check_forbidden_a, check_forbidden_b = system_aliases("check_forbidden_{}", check_forbidden)


def _invariant_map_step(system: str, params, ics, n_max: int) -> Optional[int]:
    """First singular step by the invariant map w[n+lag] = z[n]/(p + q*z[n]),
    z[n+lag] = w[n]/(r + s*w[n]) from the seed products, which stays defined
    on zero products: step n + lag + 1 divides by p + q*z[n] and r + s*w[n]
    (see the module docstring), so it is singular iff one of them vanishes.
    It repeats ``systems.carry``'s recursion on purpose: a prediction that
    read the iterator's own steps would agree with a wrong step
    (test_predict_vs_observe_zero_product_sides_are_independent)."""
    shape = SHAPES[system]
    lag = shape.lag
    (p, q), (r, s) = shape.rule(params)
    products = [value for _, value in shape.seed_products(ics)]
    w, z = products[:lag], products[lag:]
    for n in range(n_max - lag):
        den_w, den_z = p + q * z[n], r + s * w[n]
        if den_w == 0 or den_z == 0:
            return n + lag + 1
        w.append(z[n] / den_w)
        z.append(w[n] / den_z)
    return None


def predict_vs_observe(
    system: str,
    params,
    ics,
    n_max: int,
) -> PredictVerdict:
    """Compare the restriction-based singularity prediction with iteration.

    The restrictions need nonzero seed products.  An input with a zero
    seed product is predicted from the invariant map instead; only lag 1
    gets there, since a longer lag refuses zero initial components.
    """
    if system not in SHAPES:
        raise ValueError(f"unknown system {system!r}")
    # the carry refuses an n_max under the lag and, at lag >= 2, zero
    # initials; its first singular step is the orbit's, with no long entry
    singular = carry(system, params, ics, n_max).singular
    shape = SHAPES[system]
    report = check_forbidden(system, params, ics, max(0, (n_max - 1) // shape.period))
    predicted = report.predicted_singular_step
    if report.closed_form_inadmissible:
        predicted = _invariant_map_step(system, params, ics, n_max)
    if predicted is not None and predicted > n_max:
        predicted = None  # not reachable within the queried horizon
    observed = None if singular is None else singular.step
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
