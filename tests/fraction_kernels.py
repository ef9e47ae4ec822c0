"""The comparison path's kernels on Fractions, kept as oracles.

``sdeq.orbit.carry`` and ``sdeq.orbit.assemble``, which forms the
divisors of the closed forms' sweeps and of the orbits of lag 2, run on
reduced (numerator, denominator) pairs of ints.  Here they run on
Fraction operators, one value at a time, as the map is written:
``tests/test_pair_kernels.py`` compares the two.  ``singular_steps``
sets the step ``check_forbidden`` predicts against the one the carry
observes, with the first singular step of ``carry`` here where the
restrictions predict none.  The kernels use only
+, * and /, so they also run on sympy symbols, which the certificates of
``tests/test_certificates.py`` iterate.
"""

from fractions import Fraction

from sdeq import orbit
from sdeq.forbidden import check_forbidden
from sdeq.orbit import Carried
from sdeq.systems import SHAPES, Singularity, Trajectory, ZeroInitialError


def fractions(pairs) -> list:
    """(numerator, denominator) pairs read as Fractions, each checked to
    be reduced with a positive denominator."""
    pairs = list(pairs)
    values = [Fraction(*pair) for pair in pairs]
    assert [value.as_integer_ratio() for value in values] == pairs
    return values


def carry(system: str, params, ics, n_max: int) -> Carried:
    """orbit.carry with Fraction values: step n + lag + 1 advances
    w[n+lag] = z[n]/(p + q*z[n]) and z[n+lag] = w[n]/(r + s*w[n])."""
    shape = SHAPES[system]
    lag = shape.lag
    if n_max < lag:
        raise ValueError(f"n_max must be >= {lag} for System {system}")
    if lag > 1 and not all(ics._astuple()):
        raise ZeroInitialError(f"System {system} initial components must all be nonzero")
    (p, q), (r, s) = shape.rule(params)
    products = [value for _, value in shape.seed_products(ics)]
    w, z = products[:lag], products[lag:]
    lead_dens, trail_dens = [], []

    def stop(singular=None):
        factors = shape.by_lead(tuple(lead_dens), tuple(trail_dens))
        return Carried(tuple(w), tuple(z), factors, singular)

    for n in range(n_max - lag):
        den_lead = r + s * w[n]
        den_trail = p + q * z[n]
        if not (den_lead and den_trail):
            k = shape.by_lead(den_lead, den_trail).index(0)
            text = shape.denominators[k].format(n, n + 1, n + lag)
            return stop(Singularity(n + lag + 1, ("first", "second")[k], text))
        lead_dens.append(den_lead)
        trail_dens.append(den_trail)
        w.append(z[n] / den_trail)
        z.append(w[n] / den_lead)
    return stop()


def invariant_map_step(system: str, params, ics, n_max: int) -> int | None:
    """The first singular step up to ``n_max`` by the invariant map of
    ``carry``, which stays defined on zero seed products: the oracle of
    ``sdeq.orbit.carry``'s singular step where ``check_forbidden`` has
    none to predict.  It repeats the recursion on Fractions on purpose: a
    prediction that read the iterator's own steps would agree with a wrong
    step (test_predict_vs_observe_zero_product_sides_are_independent)."""
    singular = carry(system, params, ics, n_max).singular
    return None if singular is None else singular.step


def singular_steps(system: str, params, ics, n_max: int) -> tuple:
    """(predicted, observed): the first singular step up to ``n_max`` that
    ``check_forbidden`` predicts, or ``invariant_map_step`` where a zero
    seed product leaves it none to predict, and the one that
    ``sdeq.orbit.carry`` observes (None for a regular orbit).  The carry
    refuses an n_max under the lag and, at lag >= 2, zero initials."""
    singular = orbit.carry(system, params, ics, n_max).singular
    report = check_forbidden(system, params, ics, max(0, (n_max - 1) // SHAPES[system].period))
    predicted = report.predicted_singular_step
    if report.closed_form_inadmissible:
        predicted = invariant_map_step(system, params, ics, n_max)
    if predicted is not None and predicted > n_max:
        predicted = None  # not reachable within the queried horizon
    return predicted, None if singular is None else singular.step


def orbit_divisors(system: str, carried: Carried) -> tuple:
    """Per component (first, second) the divisor list of the orbit: at
    lag 1 the step factors, at a longer lag the quotients w[i-2]/z[i-1]
    (leading) and z[i-2]/w[i-1] (trailing), from i = 2 on."""
    shape = SHAPES[system]
    w, z = carried.w, carried.z
    if shape.lag == 1:
        return carried.factors
    rest = range(2, len(w) + 1)
    return shape.by_lead(
        tuple(w[i - 2] / z[i - 1] for i in rest), tuple(z[i - 2] / w[i - 1] for i in rest)
    )


def assembly(system: str, S, T, first0, second0, count: int) -> tuple:
    """(starts, divisors) of orbit.assemble from Fraction S and T:
    trail[i] = trail[i-2] / (S[i-1]/T[i-2]) and
    lead[i] = lead[i-2] / (T[i-1]/S[i-2]), from trail[1] = 1/(lead[0]*S[0])
    and lead[1] = 1/(trail[0]*T[0])."""
    shape = SHAPES[system]
    lead0, trail0 = shape.by_lead(first0, second0)
    trail, lead = [trail0], [lead0]
    if count >= 1:
        trail.append(1 / lead0 / S[0])
        lead.append(1 / trail0 / T[0])
    rest = range(2, count + 1)
    divisors = [T[i - 1] / S[i - 2] for i in rest], [S[i - 1] / T[i - 2] for i in rest]
    return shape.by_lead(tuple(lead), tuple(trail)), shape.by_lead(*map(tuple, divisors))


def iterate(system: str, params, ics, n_max: int) -> Trajectory:
    """systems.iterate from the Fraction kernels: each component's entry i
    is entry i-2 divided by divisors[i-2]."""
    shape = SHAPES[system]
    carried = carry(system, params, ics, n_max)
    last = len(carried.w)
    components = []
    for values, divisors in zip(shape.split(ics._astuple()), orbit_divisors(system, carried)):
        values = list(values)
        for i in range(len(values), last + 1):
            values.append(values[i - 2] / divisors[i - 2])
        components.append(tuple(values))
    return Trajectory(shape.labels, *components, carried.singular)
