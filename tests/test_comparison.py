"""The comparison of closed forms with iteration, ``closed_form._mismatches``,
against the entry-by-entry oracle, which builds every entry of the orbit
and of each distinct route telescoping and compares them one by one.

``closed_form._mismatches`` reads only the start values and the divisor lists
past the first entries.  Over both systems, every difftest stratum and
the pure-power cases past two periods, the two give the same failing
indices per route and component: on clean draws, with one divisor
changed (kept nonzero), with one start value changed, and with a divisor
changed that a later divisor of its parity chain changes back.  That the
orbit's telescoping is the map itself is checked by
``tests/test_systems.py::test_literal_map_on_draws``.
"""

import random
from fractions import Fraction as F
from typing import NamedTuple

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from sdeq import closed_form, sampling  # noqa: E402
from sdeq.orbit import Telescoping, orbit_telescoping  # noqa: E402


def entry_mismatches(orbit: Telescoping, routes: dict, k: int) -> dict:
    """route -> the indices at which component k of the route's entries
    differs from the orbit's, each distinct telescoping built in full and
    compared entry by entry."""
    iterated = orbit.entries(k)
    failing = {}
    for built in dict.fromkeys(routes.values()):
        pairs = enumerate(zip(built.entries(k), iterated))
        failing[built] = [n for n, (closed, value) in pairs if closed != value]
    return {route: failing[built] for route, built in routes.items()}


def _tags(system: str) -> tuple:
    """The case tag of each difftest stratum (None: all parameters drawn)
    and of each pure-power case."""
    strata = [tag for _, tag in sampling.STRATA[system]]
    powers = [tag for tag, case in closed_form.CASES[system].items() if case.period]
    return tuple(dict.fromkeys(strata + powers))


TAGS = {system: _tags(system) for system in sampling.STRATA}
KINDS = ("clean", "divisor", "start", "undone")
SIDES = ("orbit", "product", "case")


class Corruption(NamedTuple):
    """One change to one side's telescoping: ``kind`` of KINDS, on side
    ``side`` of SIDES, component ``k``, at position ``at`` of its start
    values or divisor list (taken modulo its length), times ``factor``;
    "undone" divides the divisor ``gap`` steps of two later by it."""

    kind: str
    side: str
    k: int
    at: int
    factor: F
    gap: int

    def apply(self, built: Telescoping) -> Telescoping:
        starts = [list(values) for values in built.starts]
        divisors = [list(values) for values in built.divisors]
        if self.kind == "start":
            values = starts[self.k]
            values[self.at % len(values)] *= self.factor
        elif self.kind != "clean":
            # the divisors are reduced pairs: each changed one is written back as one
            values = divisors[self.k]
            at = self.at % len(values)
            values[at] = (F(*values[at]) * self.factor).as_integer_ratio()
            if self.kind == "undone" and at + 2 * self.gap < len(values):
                later = at + 2 * self.gap
                values[later] = (F(*values[later]) / self.factor).as_integer_ratio()
        return Telescoping(tuple(map(tuple, starts)), tuple(divisors), built.last)


nonzero = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9))
corruptions = st.builds(
    Corruption,
    st.sampled_from(KINDS),
    st.sampled_from(SIDES),
    st.integers(0, 1),
    st.integers(0, 40),
    nonzero,
    st.integers(1, 4),
)
inputs = st.sampled_from(sorted(sampling.STRATA)).flatmap(
    lambda system: st.tuples(
        st.just(system),
        st.sampled_from(TAGS[system]),
        st.integers(0, 2**16),
        st.integers(2, 30),
    )
)

CLEAN = Corruption("clean", "orbit", 0, 0, F(1), 1)
# for each system: every stratum and pure-power tag clean (a pure power
# past two periods), and each change on each side
EXAMPLES = [
    *(((system, tag, 1, 30), CLEAN) for system in TAGS for tag in TAGS[system]),
    *(
        (("A", None, 2, 12), Corruption(kind, side, k, 3, F(3, 2), 2))
        for kind in KINDS[1:]
        for side in SIDES
        for k in (0, 1)
    ),
    *(
        (("B", None, 3, 12), Corruption(kind, side, k, 3, F(-2, 5), 2))
        for kind in KINDS[1:]
        for side in SIDES
        for k in (0, 1)
    ),
    (("A", "NegNeg", 4, 12), Corruption("divisor", "case", 0, 7, F(3), 1)),
    (("A", "Aeq1Bneg1", 5, 16), Corruption("undone", "case", 1, 9, F(-3), 2)),
    (("A", "Beq1Aneg1", 6, 16), Corruption("start", "case", 1, 1, F(2), 1)),
    (("B", "UnitBD", 7, 30), Corruption("undone", "case", 0, 17, F(3), 1)),
    (("B", "UnitBD", 8, 30), Corruption("divisor", "orbit", 1, 19, F(1, 3), 1)),
]


def _compared(system, tag, seed, n, corruption):
    """(orbit, routes) of a difftest draw of ``tag``'s stratum with
    ``corruption`` applied to one side."""
    params, ics, _ = sampling.draw_admissible(random.Random(seed), system, n, tag)
    carried, orbit = orbit_telescoping(system, params, ics, n)
    assert carried.singular is None
    case = closed_form.auto_case(system, params)
    routes = closed_form.route_telescopings(system, case, params, ics, n)
    if corruption.side == "orbit":
        return corruption.apply(orbit), routes
    target = routes["product" if corruption.side == "product" else case]
    changed = corruption.apply(target)
    return orbit, {route: changed if built is target else built for route, built in routes.items()}


def test_chain_comparison_equals_entry_oracle():
    failed = set()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(inputs, corruptions)
    def check(drawn, corruption):
        orbit, routes = _compared(*drawn, corruption)
        for k in (0, 1):
            found = closed_form._mismatches(orbit, routes, k)
            assert found == entry_mismatches(orbit, routes, k)
            if any(found.values()):
                failed.add(corruption.kind)

    for drawn, corruption in EXAMPLES:
        check = hypothesis.example(drawn, corruption)(check)
    check()
    # every change is caught somewhere, a clean draw never
    assert failed == set(KINDS[1:])


def test_an_undone_divisor_fails_only_between():
    # entries at+2 .. at+2*gap of the chain divide by the changed divisor,
    # and the later ones by its change undone too
    drawn = ("A", None, 2, 12)
    orbit, routes = _compared(*drawn, Corruption("undone", "product", 0, 3, F(3, 2), 2))
    assert closed_form._mismatches(orbit, routes, 0)["product"] == [5, 7]
    assert closed_form._mismatches(orbit, routes, 1)["product"] == []
