"""The comparison path's pair kernels against their Fraction oracles.

``systems.carry`` and the one assembly kernel ``systems.assemble``, which
forms the divisors of the closed forms' sweeps and of every orbit of
lag 2 or more, run on reduced (numerator, denominator) pairs of ints;
``tests/fraction_kernels.py`` runs the same steps on Fraction
operators.  Over both systems, System A's zero components, a singular
step in each component, the pure-power cases' pinned parameters and unit
and non-unit parameters, up to n = 40, the two give the same values, read
as (numerator, positive denominator), and the same Singularity.  Each of
those cases is an explicit example (``EXAMPLES``), so that none depends on
what the draws reach.
"""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import fraction_kernels  # noqa: E402
from fraction_kernels import fractions  # noqa: E402
from sdeq import closed_form, reduction, systems  # noqa: E402
from sdeq.systems import SHAPES  # noqa: E402


def pairs(values) -> list:
    return [value.as_integer_ratio() for value in values]


def check(system: str, params, ics, n: int) -> None:
    """carry, the orbit's start values and divisor lists and the assembly
    of the closed-form sweep (where its seeds and start values are
    nonzero) equal the Fraction kernels."""
    oracle = fraction_kernels.carry(system, params, ics, n)
    carried, orbit = systems.orbit_telescoping(system, params, ics, n)
    # entries 0 and 1 of each component, as given
    assert orbit.starts == tuple(values[:2] for values in SHAPES[system].split(ics._astuple()))
    assert [list(carried.w), list(carried.z)] == [pairs(oracle.w), pairs(oracle.z)]
    assert list(map(list, carried.factors)) == list(map(pairs, oracle.factors))
    assert carried.singular == oracle.singular
    expected = fraction_kernels.orbit_divisors(system, oracle)
    assert list(map(list, orbit.divisors)) == list(map(pairs, expected))
    try:
        seeds = closed_form.seeds(system, ics)
    except closed_form.ForbiddenInputError:
        return
    S, T = reduction.closed_ST_sweep(system, params, seeds, n)
    # the assembly reads S and T up to the first zero, as closed_form._sweep does
    count = next((j for j in range(n) if not (S[j][0] and T[j][0])), n)
    starts = [values[0] for values in SHAPES[system].split(ics._astuple())]
    if not all(starts):
        return
    built = systems.assemble(system, S, T, *starts, count)
    heads, divisors = fraction_kernels.assembly(system, *map(fractions, (S, T)), *starts, count)
    assert built.starts == heads
    assert list(map(list, built.divisors)) == list(map(pairs, divisors))


A, B = SHAPES["A"], SHAPES["B"]
A_ICS = A.initial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8))
B_ICS = B.initial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8), F(-3, 4), F(7, 6))
ONES_B = B.initial(1, 1, 1, 1, 1, 1)

EXAMPLES = [
    # non-unit parameters: values of O(n) bits with common factors
    ("A", A.params(F(2, 3), F(-5, 7)), A_ICS, 40),
    ("B", B.params(F(2, 3), F(-5, 7), F(3, 5), F(4, 9)), B_ICS, 40),
    # unit parameters, and B's ac = 1 with a non-integer c
    ("A", A.params(1, 1), A_ICS, 40),
    ("B", B.params(1, 1, 1, 1), B_ICS, 40),
    ("B", B.params(2, 1, F(1, 2), 1), B_ICS, 40),
    # the pure-power cases' pinned parameters
    *(
        (system, case.fixed, A_ICS if system == "A" else B_ICS, 40)
        for system in SHAPES
        for case in closed_form.CASES[system].values()
        if case.period
    ),
    # System A's zero components: u1 = 0 zeroes every other entry of u, and
    # v0 = 0 zeroes w[0]
    ("A", A.params(F(2, 3), F(-5, 7)), A.initial(F(3, 5), 0, F(4, 9), F(5, 8)), 30),
    ("A", A.params(F(2, 3), F(-5, 7)), A.initial(F(3, 5), F(-2, 7), 0, F(5, 8)), 30),
    ("A", A.params(0, 1), A.initial(0, 0, F(4, 9), F(5, 8)), 30),
    # a singular step in each component: a + u0*v1 = 0, then b + v0*u1 = 0
    ("A", A.params(1, 1), A.initial(1, 5, 7, -1), 6),
    ("A", A.params(2, 1), A.initial(1, -1, 1, 1), 6),
    # a + b*x0*y1 = 0, then c + d*y0*x1 = 0
    ("B", B.params(1, -1, 1, -1), ONES_B, 6),
    ("B", B.params(1, 1, 1, -1), ONES_B, 6),
]

_values = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(2), F(-1, 2)]),
    st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(F, st.integers(-(2**40), 2**40), st.integers(1, 2**40)),
)


@st.composite
def _inputs(draw):
    system = draw(st.sampled_from(sorted(SHAPES)))
    shape = SHAPES[system]
    pinned = [case.fixed for case in closed_form.CASES[system].values() if case.period]
    params = draw(st.sampled_from([None, *pinned]))
    if params is None:
        params = shape.params(*(draw(_values) for _ in shape.params._fields))
    # a longer lag refuses zero initial components
    values = _values if shape.lag == 1 else _values.filter(bool)
    ics = shape.initial(*(draw(values) for _ in shape.initial._fields))
    return system, params, ics, draw(st.integers(shape.lag, 40))


def test_pair_kernels_equal_fraction_kernels():
    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_inputs())
    def run(inputs):
        check(*inputs)

    for inputs in EXAMPLES:
        run = hypothesis.example(inputs)(run)
    run()


def test_examples_cover_each_case():
    singular, zeros = set(), 0
    for system, params, ics, n in EXAMPLES:
        found = fraction_kernels.carry(system, params, ics, n).singular
        if found is not None:
            singular.add((system, found.component))
        zeros += not all(ics._astuple())
    assert singular == {(system, k) for system in SHAPES for k in ("first", "second")}
    assert zeros == 3
    tags = {closed_form.auto_case(system, params) for system, params, _, _ in EXAMPLES}
    cases = [case for cases in closed_form.CASES.values() for case in cases.items()]
    assert {tag for tag, case in cases if case.period} <= tags
    assert {"ABneq1", "OnesOnes", "ACneq1", "ACeq1", "AllOnes"} <= tags
