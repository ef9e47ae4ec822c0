"""Property tests of the integer sweep kernel against the exact rationals it
replaces, with numerators and denominators up to 2**64.

* ``geometric_sweep`` equals its defining formula x_k*g**m + y_k*h_m;
* ``closed_ST_sweep`` equals ``closed_ST_*`` and ``solve_linear_*``
  entry by entry, with ab = +-1 (A) or ac = +-1 (B), a unit parameter or
  a case's pinned parameters in part of the examples;
* every case route that applies, as a sweep and at a single point, gives
  the iterated orbit value for value, or, where the orbit is singular, a
  ForbiddenInputError at the singular step.  The case routes all read the
  closed-form table, so this is the check that does not rely on it.  On a
  pure-power case's pinned parameters the index reaches three periods,
  past the entries from which the sweep and the single point extend the
  orbit by its period.
"""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from fraction_kernels import fractions  # noqa: E402
from sdeq import closed_form, reduction  # noqa: E402
from sdeq.systems import (  # noqa: E402
    SystemAInitial,
    SystemAParams,
    SystemBInitial,
    SystemBParams,
    iterate_a,
    iterate_b,
)

BIG = 2**64

# small edge values mixed with long ones, so that zeros, unit products and
# cancellations all occur
rationals = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(2), F(-1, 2), F(3, 5)]),
    st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
nonzero = rationals.filter(lambda value: value != 0)

# per system: params, initial values, the partner of a in the ratio g, the
# number of seeds, the closed form per index, the linear recursion and the
# case route
SYSTEMS = {
    "A": (
        SystemAParams, SystemAInitial, "b", 2, reduction.closed_ST_a,
        reduction.solve_linear_a, closed_form.solve_a_case_sweep,
    ),
    "B": (
        SystemBParams, SystemBInitial, "c", 4, reduction.closed_ST_b,
        reduction.solve_linear_b, closed_form.solve_b_case_sweep,
    ),
}
SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _params(draw, system):
    params_type, _, partner, *_ = SYSTEMS[system]
    values = {name: draw(rationals) for name in params_type._fields}
    choice = draw(st.sampled_from(["free", "ratio", "unit", "pinned"]))
    if choice == "ratio":  # ab = +-1 (A) or ac = +-1 (B)
        values["a"] = draw(nonzero)
        values[partner] = draw(st.sampled_from([1, -1])) / values["a"]
    elif choice == "unit":  # a or its partner is 1
        values[draw(st.sampled_from(["a", partner]))] = F(1)
    elif choice == "pinned":  # the pinned parameters of a case
        pinned = [case.fixed for case in closed_form.CASES[system].values() if case.fixed]
        return draw(st.sampled_from(pinned))
    return params_type(**values)


@SETTINGS
@hypothesis.given(
    st.lists(st.tuples(rationals, rationals), min_size=1, max_size=4),
    rationals,
    st.integers(0, 13),
)
def test_kernel_equals_formula(classes, g, count):
    expected = []
    for j in range(count):
        m, k = divmod(j, len(classes))
        x, y = classes[k]
        expected.append(x * g**m + y * sum(g**i for i in range(m)))
    assert fractions(reduction.geometric_sweep(classes, g, count)) == expected


@SETTINGS
@hypothesis.given(st.sampled_from(sorted(SYSTEMS)), st.integers(0, 14), st.data())
def test_sweep_equals_closed_form_and_recursion(system, count, data):
    _, _, _, n_seeds, closed_st, solve_linear, _ = SYSTEMS[system]
    params = _params(data.draw, system)
    seeds = [data.draw(rationals) for _ in range(n_seeds)]
    S, T = map(fractions, reduction.closed_ST_sweep(system, params, seeds, count))
    assert list(zip(S, T)) == [closed_st(params, *seeds, j) for j in range(count)]
    lin = solve_linear(params, *seeds, max(count - 1, 1))
    assert (S, T) == (list(lin.S[:count]), list(lin.T[:count]))


def _outcome(route, *args):
    try:
        return route(*args)
    except closed_form.ForbiddenInputError as exc:
        return exc.index


# per system: the iterator, its smallest n and the single-point case route
ITERATION = {
    "A": (iterate_a, 1, closed_form.solve_a_case),
    "B": (iterate_b, 2, closed_form.solve_b_case),
}

# the period of each pure-power case, by its pinned parameters
PERIODS = {
    case.fixed: case.period
    for cases in closed_form.CASES.values()
    for case in cases.values()
    if case.period
}

# initial values near the forbidden sets: with small components a
# denominator a + u[n]*v[n+1] (or its System B analogue) often vanishes
# within a few steps
near_forbidden = st.one_of(
    st.sampled_from([F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2)]),
    st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 3)),
    nonzero,
)


@st.composite
def orbit_inputs(draw):
    system = draw(st.sampled_from(sorted(SYSTEMS)))
    _, initial_type, *_ = SYSTEMS[system]
    params = _params(draw, system)
    ics = initial_type(*(draw(near_forbidden) for _ in initial_type._fields))
    top = max(12, 3 * PERIODS.get(params, 0))
    return system, params, ics, draw(st.integers(ITERATION[system][1], top))


def _check_against_iteration(system, params, ics, n):
    """Every applicable case route against the iterated orbit up to n;
    returns whether the orbit is singular, and the pinned parameters of a
    pure-power case that extended a regular orbit by its period, or None."""
    iterate, _, case_point = ITERATION[system]
    case_sweep = SYSTEMS[system][-1]
    orbit = iterate(params, ics, n)
    for tag, case in closed_form.CASES[system].items():
        if not case.applies(params):
            continue
        if orbit.singular is None:
            assert case_sweep(tag, params, ics, n) == (list(orbit.first), list(orbit.second)), tag
            assert case_point(tag, params, ics, n) == (orbit.first[n], orbit.second[n]), tag
        else:
            step = orbit.singular.step
            assert _outcome(case_sweep, tag, params, ics, n) == step, tag
            assert _outcome(case_point, tag, params, ics, n) == step, tag
    extended = orbit.singular is None and n >= 2 * PERIODS.get(params, n + 1)
    return orbit.singular is not None, params if extended else None


# every pure-power case past its first two periods, on regular orbits.
# The random draws cannot be relied on for these: Hypothesis also draws the
# integer constants it finds in the loaded modules, so an unrelated
# constant added to src/ or tests/ reshuffles them
_UNIT_A = SystemAInitial(F(3, 5), F(2, 7), F(4, 9), F(5, 8))
_UNIT_B = SystemBInitial(F(3, 5), F(2, 7), F(4, 9), F(5, 8), F(3, 4), F(7, 6))
PURE_POWER_EXAMPLES = [
    ("A", SystemAParams(-1, -1), _UNIT_A, 12),
    ("A", SystemAParams(1, -1), _UNIT_A, 12),
    ("A", SystemAParams(-1, 1), _UNIT_A, 12),
    ("B", SystemBParams(1, 1, -1, 1), _UNIT_B, 24),
]
# for each system, orbits whose first and whose second component's update
# is singular first, as (inputs, the singular component): ten of each kind,
# so that the singular branch runs at least forty times whatever Hypothesis
# draws
_ONES_B = SystemBInitial(1, 1, 1, 1, 1, 1)
SINGULAR_EXAMPLES = [
    example
    for k in range(1, 11)
    for example in (
        (("A", SystemAParams(k, 1), SystemAInitial(1, 5, 7, -k), 1 + k), "first"),  # a + u0*v1
        (("A", SystemAParams(1, k), SystemAInitial(1, -k, 1, 2), 1 + k), "second"),  # b + v0*u1
        (("B", SystemBParams(k, -k, 1, 1), _ONES_B, 2 + k), "first"),  # a + b*x0*y1
        (("B", SystemBParams(1, 1, k, -k), _ONES_B, 2 + k), "second"),  # c + d*y0*x1
    )
]


def test_case_routes_equal_iteration():
    outcomes = []

    @hypothesis.settings(SETTINGS, max_examples=600)
    @hypothesis.given(orbit_inputs())
    def check(inputs):
        outcomes.append(_check_against_iteration(*inputs))

    for inputs in PURE_POWER_EXAMPLES:
        check = hypothesis.example(inputs)(check)
    for inputs, component in SINGULAR_EXAMPLES:
        system, params, ics, n = inputs
        assert ITERATION[system][0](params, ics, n).singular.component == component
        check = hypothesis.example(inputs)(check)
    check()
    singular, extended = zip(*outcomes)
    assert sum(singular) >= 40  # the singular branch is exercised too
    # and every pure-power case past its first two periods
    assert set(PERIODS) <= set(extended)
