"""Property tests of the integer zero tests against the exact rationals they
replace, with numerators and denominators up to 2**64.

* the residual kernels of ``sdeq.symmetry`` vanish on exactly the
  components where the ``Fraction`` residuals do, for every variant,
  parity and system, and raise where they raise;
* the integer restriction scan of ``sdeq.forbidden`` reports what a scan
  of ``solve_linear_*`` reports, including inputs tuned so that S[m] or
  T[m] vanishes at a chosen m, and ab = +-1 (A) or ac = +-1 (B), where
  zeros recur.
"""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from sdeq import forbidden, symmetry  # noqa: E402
from sdeq.reduction import solve_linear_a, solve_linear_b  # noqa: E402
from sdeq.systems import (  # noqa: E402
    SystemAInitial,
    SystemAParams,
    SystemBInitial,
    SystemBParams,
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

# per system: params, initial values, residual, kernel, restriction check,
# the reference linear recursion, residue names and the seed products
SYSTEMS = {
    "A": (
        SystemAParams, SystemAInitial, symmetry.slsc_residual_a, symmetry._residual_kernel_a,
        forbidden.check_forbidden_a, solve_linear_a, ("even", "odd"),
        lambda ics: (("w0_zero", ics.v0 * ics.u1), ("z0_zero", ics.u0 * ics.v1)),
    ),
    "B": (
        SystemBParams, SystemBInitial, symmetry.slsc_residual_b, symmetry._residual_kernel_b,
        forbidden.check_forbidden_b, solve_linear_b, ("mod4_0", "mod4_1", "mod4_2", "mod4_3"),
        lambda ics: (
            ("w0_zero", ics.x0 * ics.y1),
            ("w1_zero", ics.x1 * ics.y2),
            ("z0_zero", ics.y0 * ics.x1),
            ("z1_zero", ics.y1 * ics.x2),
        ),
    ),
}
SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _outcome(function, *args):
    try:
        return [value == 0 for value in function(*args)]
    except ValueError as exc:
        return str(exc)


@SETTINGS
@hypothesis.given(
    st.sampled_from(sorted(SYSTEMS)),
    st.sampled_from(symmetry.VARIANTS),
    st.integers(0, 1),
    rationals,
    rationals,
    st.data(),
)
def test_kernel_zero_pattern_matches_residual(system, variant, parity, c1, c2, data):
    params_type, initial_type, residual, kernel, *_ = SYSTEMS[system]
    params = params_type(*(data.draw(rationals) for _ in params_type._fields))
    point = tuple(data.draw(rationals) for _ in initial_type._fields)
    args = (symmetry.Characteristic(c1, c2), params, parity, point, variant)
    assert _outcome(kernel, *args) == _outcome(residual, *args)


def _reference(system, params, ics, horizon):
    """The restriction report from the Fraction recursion of solve_linear_*."""
    *_, solve_linear, residues, products = SYSTEMS[system]
    products = products(ics)
    violated = [forbidden.Violation(name, 0) for name, value in products if value == 0]
    if violated:
        return forbidden.ForbiddenReport(tuple(violated), None)
    period = len(residues)
    seeds = (1 / value for _, value in products)
    lin = solve_linear(params, *seeds, period * horizon + period - 1)
    predicted = None
    for m in range(period * (horizon + 1)):
        for side, values in (("S", lin.S), ("T", lin.T)):
            if values[m] == 0:
                violated.append(forbidden.Violation(f"{side}_{residues[m % period]}", m // period))
                predicted = m + 1 if predicted is None else predicted
    return forbidden.ForbiddenReport(tuple(violated), predicted)


# per system and seed (in solve_linear_* order): the initial value that only
# that seed's product contains, and the other factor of the product
_SEED_FACTORS = {
    "A": (("v0", "u1"), ("u0", "v1")),
    "B": (("x0", "y1"), ("y2", "x1"), ("y0", "x1"), ("x2", "y1")),
}


def _tuned(system, params, ics, m, side):
    """``ics`` with one seed moved so that S[m] (side 0) or T[m] (side 1)
    vanishes, or ``ics`` itself when no seed moves that value."""
    _, initial_type, *_, solve_linear, _, products = SYSTEMS[system]
    seeds = [value for _, value in products(ics)]
    if 0 in seeds:
        return ics
    seeds = [1 / value for value in seeds]
    for index, (moved, other) in enumerate(_SEED_FACTORS[system]):

        def value_at(seed):
            trial = seeds[:index] + [seed] + seeds[index + 1:]
            lin = solve_linear(params, *trial, max(m, len(seeds) // 2))
            return (lin.S, lin.T)[side][m]

        at_zero, slope = value_at(F(0)), value_at(F(1)) - value_at(F(0))
        if slope != 0 and at_zero != 0:
            root = -at_zero / slope  # the seed that makes the value vanish
            return initial_type(**{**ics._asdict(), moved: 1 / (root * getattr(ics, other))})
    return ics


@st.composite
def restriction_inputs(draw):
    system = draw(st.sampled_from(sorted(SYSTEMS)))
    params_type, initial_type, *_, residues, _ = SYSTEMS[system]
    values = {name: draw(rationals) for name in params_type._fields}
    partner = "b" if system == "A" else "c"
    if draw(st.booleans()):  # ab = +-1 (A) or ac = +-1 (B)
        values["a"] = draw(nonzero)
        values[partner] = draw(st.sampled_from([1, -1])) / values["a"]
    params = params_type(**values)
    ics = {name: draw(nonzero) for name in initial_type._fields}
    if draw(st.integers(0, 3)) == 0:  # a zero seed product
        ics[draw(st.sampled_from(initial_type._fields))] = 0
    ics = initial_type(**ics)
    horizon = draw(st.integers(0, 10))
    if draw(st.booleans()):
        m = draw(st.integers(0, len(residues) * (horizon + 1) - 1))
        ics = _tuned(system, params, ics, m, draw(st.integers(0, 1)))
    return system, params, ics, horizon


@SETTINGS
@hypothesis.given(restriction_inputs())
def test_integer_scan_matches_fraction_recursion(inputs):
    system, params, ics, horizon = inputs
    check = SYSTEMS[system][4]
    assert check(params, ics, horizon) == _reference(system, params, ics, horizon)
