"""Direct closed-form evaluators for both systems, case by case.

Every evaluator here is an explicit function of the parameters, the initial
conditions, and the index n alone; the forward iteration is never used,
and the test suite checks each evaluator against it.

Both systems rebuild their orbit from the auxiliary values S and T by one
telescoped product, two indices at a time (``systems.assemble``, the
one assembly kernel, which builds System B's iterated orbit too), with S
and T seeded by the reciprocals of the seed products of the system's
``systems.SHAPES`` record.  S and T come from one closed-form table
(``reduction.closed_ST_sweep``), which covers every parameter value, g =
ab or ac = 1 included.  Each enumerated case (a*b != 1, a = 1, b = 1,
a = b = 1 for A; a*c != 1, a*c = 1, all ones for B) is that table at the
case's parameters, and the product solution is the case ``Product``, so
one sweep (``_sweep``) evaluates every case.

The sign-mixed pairs and a = b = -1 for A, and the unit-b,d family for B,
are pure powers: they assemble one period and two entries, and extend
the orbit two indices at a time by the assembly's first P divisors,
repeated with the period P.  A sweep is a ``systems.Telescoping``: the
short values, validation, the S and T sweep, its zero scan and the
divisor lists, all on reduced int pairs (the scan reads numerators),
come first and raise every error, and then each component's long
entries are built on their own, as Fractions or as the printed literals,
so the CLI can print the two in two processes, or compare the two
starts and the divisor lists with the orbit's (``route_telescopings``)
and build none.
``CASES`` holds, per system, each tag's predicate.  Each evaluator is
one function keyed by the system ("A" or "B"); ``system_aliases``
generates its per-system names (``solve_a_case`` is
``case_point("A", ...)``).

A vanishing auxiliary value means the requested index lies beyond a
forbidden initial condition; evaluators raise ForbiddenInputError
identifying the first index at which the closed form breaks down.  Where
S and T vanish at one index, the error names the auxiliary that the
orbit's first component divides by there (S for System A's u, T for
System B's x), the component whose update the iteration finds singular.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .rational import format_rational
from .reduction import closed_ST_sweep
from .systems import SHAPES, SystemAParams, SystemBParams, Telescoping, _Record, assemble
from .systems import system_aliases


class ForbiddenInputError(ValueError):
    """The closed form is undefined at (or before) the reported index."""

    def __init__(self, index: int, detail: str):
        self.index = index
        self.detail = detail
        super().__init__(f"forbidden input: {detail} (breaks closed form at index {index})")


class CaseParamError(ValueError):
    """The requested case tag is inconsistent with the parameters."""


def seeds(system: str, ics) -> tuple[Fraction, ...]:
    """S[0..lag-1], then T[0..lag-1]: the reciprocals of the seed products
    (System A: S[0] = 1/(v0*u1), T[0] = 1/(u0*v1))."""
    products = SHAPES[system].seed_products(ics)
    for name, value in products:
        if value == 0:
            raise ForbiddenInputError(0, f"{name} = 0, auxiliary seeds undefined")
    return tuple(1 / value for _, value in products)


seeds_a, seeds_b = system_aliases("seeds_{}", seeds)


# ---------------------------------------------------------------------------
# case tables: per system, tag -> predicate


class Case(_Record):
    """One enumerated parameter case.

    Every case is evaluated by the one sweep of its system's closed-form
    table; the case only says where that is valid.  ``applies`` is its
    predicate and ``fixed`` holds the parameters of a case that admits
    exactly one choice of them.  A pure-power case also has the period of
    its auxiliary sequences (see _sweep) and the ``detail`` its forbidden
    inputs report.
    """

    applies: Callable
    detail: str = ""
    period: int = 0
    fixed: SystemAParams | SystemBParams | None = None


def _pinned(fixed, **route) -> Case:
    return Case(lambda params: params == fixed, fixed=fixed, **route)


_RESIDUE_4 = {"detail": "vanishing residue-4 denominator", "period": 4}
_RESIDUE_8 = {"detail": "vanishing residue-8 denominator", "period": 8}

# per system, the tags in --case order: each comes after every tag whose
# parameter set contains its own, so auto_case takes the last one that holds
CASES = {
    "A": {
        "Product": Case(lambda params: True),
        "ABneq1": Case(lambda params: params.a * params.b != 1),
        "Aeq1": Case(lambda params: params.a == 1 and params.b != 1),
        "Beq1": Case(lambda params: params.b == 1 and params.a != 1),
        "Aeq1Bneg1": _pinned(SystemAParams(1, -1), **_RESIDUE_4),
        "Beq1Aneg1": _pinned(SystemAParams(-1, 1), **_RESIDUE_4),
        "OnesOnes": _pinned(SystemAParams(1, 1)),
        "NegNeg": _pinned(SystemAParams(-1, -1), detail="u0*v1 = 1 or v0*u1 = 1", period=2),
    },
    "B": {
        "Product": Case(lambda params: True),
        "ACneq1": Case(lambda params: params.a * params.c != 1),
        "ACeq1": Case(lambda params: params.a * params.c == 1),
        "UnitBD": _pinned(SystemBParams(1, 1, -1, 1), **_RESIDUE_8),
        "AllOnes": _pinned(SystemBParams(1, 1, 1, 1)),
    },
}

CASE_TAGS_A, CASE_TAGS_B = tuple(CASES["A"]), tuple(CASES["B"])


def lookup_case(system: str, tag: str) -> Case:
    """The table entry of a case tag; CaseParamError for an unknown tag."""
    try:
        return CASES[system][tag]
    except KeyError:
        raise CaseParamError(f"unknown System {system} case tag: {tag!r}") from None


def auto_case(system: str, params) -> str:
    """The most specific case tag whose predicate holds for ``params``."""
    cases = CASES[system]
    return next(tag for tag in reversed(cases) if cases[tag].applies(params))


auto_case_a, auto_case_b = system_aliases("auto_case_{}", auto_case)


def _validated(system: str, tag: str, params, n_max: int) -> Case:
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    case = lookup_case(system, tag)
    if not case.applies(params):
        values = ", ".join(
            f"{name}={format_rational(value)}" for name, value in params._asdict().items()
        )
        raise CaseParamError(f"case {tag} is inconsistent with {values}")
    return case


# ---------------------------------------------------------------------------
# the one case sweep: systems.assemble over the closed-form sweep of S and
# T.  A zero S[j] or T[j] makes every trajectory index >= j+1 forbidden.
#
# At a pure-power case's pinned parameters the auxiliary recursion is
# exactly periodic with the case's period P: a = 1, b = -1 give
# S[n+2] = 2 - S[n], so S[n+4] = S[n] (tests/test_certificates.py
# certifies every case).  So the assembly's divisor at i, which reads
# S[i-1] and T[i-2], depends only on i mod P: the assembly of entries
# 0..P+1 gives every divisor, and _extend repeats them.  A zero S or T
# repeats a zero among indices 0..P-1, which the scan of S and T up to
# index P finds, so the first forbidden index is the full sweep's.

def _extend(period: int, built: Telescoping, last: int) -> Telescoping:
    """``built`` extended to entry ``last`` by the first ``period`` entries
    of each of its divisor lists, repeated."""
    divisors = tuple([steps[j % period] for j in range(last - 1)] for steps in built.divisors)
    return Telescoping(built.starts, divisors, last)


def _sweep(case: Case, system: str, params, ics, n_max: int) -> Telescoping:
    """How entries 0..n_max of ``case`` are built (a Telescoping): by
    the assembly, or for a pure-power case, which assembles entries
    0..P+1 at most, by its period extension.  Every error is raised here,
    before a long entry is built.  A zero initial value (lag 1) or seed
    product is reported before a pure-power case can give the error its
    own detail; where S and T vanish at one index, the auxiliary of the
    first component's update is named."""
    shape, period = SHAPES[system], case.period
    # only lag-1 iteration admits zero components (a longer lag refuses
    # them), so only there must the closed forms name the zero
    if shape.lag == 1:
        for name, value in ics._asdict().items():
            if value == 0:
                raise ForbiddenInputError(0, f"{name} = 0, closed forms undefined")
    count = min(n_max, period + 1) if period else n_max
    sb, tb = closed_ST_sweep(system, params, seeds(system, ics), count)
    auxiliary = {"S": sb, "T": tb}
    for j in range(count):
        for name in shape.by_lead("T", "S"):
            if auxiliary[name][j][0] == 0:
                raise ForbiddenInputError(j + 1, case.detail or f"auxiliary {name}[{j}] = 0")
    first0, second0 = (values[0] for values in shape.split(ics._astuple()))
    built = assemble(system, sb, tb, first0, second0, count)
    return _extend(period, built, n_max) if count < n_max else built


def case_telescoping(system: str, tag: str, params, ics, n_max: int) -> Telescoping:
    """How entries 0..n_max of case ``tag`` are built (a Telescoping);
    every error of the case sweep is raised here."""
    return _sweep(_validated(system, tag, params, n_max), system, params, ics, n_max)


def case_sweep(system: str, tag: str, params, ics, n_max: int):
    """Entries 0..n_max of case ``tag``, as (first, second)."""
    built = case_telescoping(system, tag, params, ics, n_max)
    return built.entries(0), built.entries(1)


def product_sweep(system: str, params, ics, n_max: int) -> tuple[list[Fraction], list[Fraction]]:
    """General product solution: the telescoped assembly over auxiliary
    values taken from the closed form (not from recursion), the sweep of
    the case ``Product``."""
    return case_sweep(system, "Product", params, ics, n_max)


def case_point(system: str, tag: str, params, ics, n: int) -> tuple[Fraction, Fraction]:
    """Entry n of case ``tag``: entry[k] * rho_k**m for n = k + m*period
    past the first two periods of a pure-power case, with rho_k =
    entry[k+period] / entry[k], else entry n of the sweep."""
    case = _validated(system, tag, params, n)
    period = case.period
    if not period or n < 2 * period:
        built = _sweep(case, system, params, ics, n)
        return built.entries(0)[n], built.entries(1)[n]
    m, k = divmod(n, period)
    built = _sweep(case, system, params, ics, 2 * period - 1)
    sweep = map(built.entries, (0, 1))
    first, second = (values[k] * (values[k + period] / values[k]) ** m for values in sweep)
    return first, second


def route_telescopings(system: str, tag: str, params, ics, n_max: int) -> dict:
    """The routes that ``verify`` and ``difftest`` compare with iteration
    (``cli._compare``), "product" and case ``tag``, over entries 0..n_max,
    as telescopings from one sweep of the table: the product sweep, which
    runs before the tag is checked.  A pure-power case extends the sweep's
    first two entries by the sweep's first P divisors, repeated with its
    period P; any other tag is the product's telescoping itself."""
    product = case_telescoping(system, "Product", params, ics, n_max)
    period = _validated(system, tag, params, n_max).period
    own = product
    if period and period + 1 < n_max:
        own = _extend(period, product, n_max)
    return {"product": product, tag: own}


solve_a_product_sweep, solve_b_product_sweep = system_aliases(
    "solve_{}_product_sweep", product_sweep
)
solve_a_case_sweep, solve_b_case_sweep = system_aliases("solve_{}_case_sweep", case_sweep)
solve_a_case, solve_b_case = system_aliases("solve_{}_case", case_point)
