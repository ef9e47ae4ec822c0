"""Direct closed-form evaluators for both systems, case by case.

Every evaluator here is an explicit function of the parameters, the initial
conditions, and the index n alone; the forward iteration is never used,
and the test suite checks each evaluator against it.

Both systems rebuild their orbit from the auxiliary values S and T by one
telescoped product, two indices at a time (``reduction.assemble``), with S
and T seeded by the reciprocals of the seed products of the system's
``systems.SHAPES`` record.  S and T come from one closed-form table
(``reduction.closed_ST_sweep``), which covers every parameter value, g =
ab or ac = 1 included.  Each enumerated case (a*b != 1, a = 1, b = 1,
a = b = 1 for A; a*c != 1, a*c = 1, all ones for B) is that table at the
case's parameters, so every case route is the product route; a System B
case only reports T before S when both vanish at one index.

The sign-mixed pairs and a = b = -1 for A, and the unit-b,d family for B,
are pure powers: they assemble two periods and extend the orbit two
indices at a time by a factor that repeats with the period, so every
sweep comes with the step factors that built it.  ``CASES`` holds, per
system, each tag's predicate.  Each evaluator is one function keyed by
the system ("A" or "B"); ``system_aliases`` generates its per-system
names (``solve_a_case`` is ``case_point("A", ...)``).

A vanishing auxiliary value means the requested index lies beyond a
forbidden initial condition; evaluators raise ForbiddenInputError
identifying the first index at which the closed form breaks down.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Any, Callable, NamedTuple

from .rational import format_rational
from .reduction import assemble, assembly_ratios, closed_ST_sweep
from .systems import SHAPES, SystemAParams, SystemBParams, system_aliases


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


class Case(NamedTuple):
    """One enumerated parameter case.

    Every case is evaluated by its system's product route; the case only
    says where that is valid.  ``applies`` is its predicate and ``fixed``
    holds the parameters of a case that admits exactly one choice of them.
    A pure-power case also has the period of its auxiliary sequences (see
    _periodic_sweep) and the ``detail`` its forbidden inputs report.
    """

    applies: Callable[[Any], bool]
    detail: str = ""
    period: int = 0
    fixed: Any = None


def _pinned(fixed, **route) -> Case:
    return Case(lambda params: params == fixed, fixed=fixed, **route)


_RESIDUE_4 = {"detail": "vanishing residue-4 denominator", "period": 4}
_RESIDUE_8 = {"detail": "vanishing residue-8 denominator", "period": 8}

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


# most specific first; the scan order makes auto selection deterministic
# (Product always applies to A; ACeq1/ACneq1 partition the B parameters)
_AUTO_ORDER = {
    "A": ("OnesOnes", "NegNeg", "Aeq1Bneg1", "Beq1Aneg1", "Aeq1", "Beq1", "ABneq1", "Product"),
    "B": ("AllOnes", "UnitBD", "ACeq1", "ACneq1"),
}


def auto_case(system: str, params) -> str:
    """The most specific case tag whose predicate holds for ``params``."""
    return next(tag for tag in _AUTO_ORDER[system] if CASES[system][tag].applies(params))


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
# the product route: reduction.assemble over the closed-form sweep of S and
# T.  A zero S[j] or T[j] makes every trajectory index >= j+1 forbidden.

# per system: whether a zero initial value leaves every route undefined
# (System A; System B reports its zero seed product), and which of S and T
# a case route reports first when both vanish at one index
_ROUTE_RULES = {"A": (True, "ST"), "B": (False, "TS")}


def _sweep(system: str, params, ics, seeds, n_max: int, ties: str = "ST"):
    """Orbit entries 0..n_max, as (first, second, ratios), from the
    closed-form sweep of S and T at ``seeds``, with ratios the step factors
    the assembly multiplied by (``reduction.assembly_ratios``); ``ties``
    names the sequence reported first when S and T vanish at the same
    index."""
    sb, tb = closed_ST_sweep(system, params, seeds, n_max)
    auxiliary = {"S": sb, "T": tb}
    for j in range(n_max):
        for name in ties:
            if auxiliary[name][j] == 0:
                raise ForbiddenInputError(j + 1, f"auxiliary {name}[{j}] = 0")
    first0, second0 = (values[0] for values in SHAPES[system].split(ics._astuple()))
    first, second = assemble(system, sb, tb, first0, second0, n_max)
    return first, second, assembly_ratios(system, sb, tb)


def _route(system: str, params, ics, ties: str = "ST"):
    """route(m) assembles entries 0..m, with their step ratios (see
    _sweep).  A zero initial value (System A) or seed product is reported
    here, before a pure-power case could give the error its own detail."""
    if _ROUTE_RULES[system][0]:
        for name, value in ics._asdict().items():
            if value == 0:
                raise ForbiddenInputError(0, f"{name} = 0, closed forms undefined")
    return partial(_sweep, system, params, ics, seeds(system, ics), ties=ties)


def product_sweep(system: str, params, ics, n_max: int) -> tuple[list[Fraction], list[Fraction]]:
    """General product solution: the telescoped assembly over auxiliary
    values taken from the closed form (not from recursion)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    first, second, _ = _route(system, params, ics)(n_max)
    return first, second


solve_a_product_sweep, solve_b_product_sweep = system_aliases(
    "solve_{}_product_sweep", product_sweep
)


# ---------------------------------------------------------------------------
# pure-power cases: two periods of the product route, then one step factor
# per residue class, the one case evaluator apart from the product route
#
# At a pure-power case's pinned parameters the auxiliary recursion is
# exactly periodic with the case's period P: a = 1, b = -1 give
# S[n+2] = 2 - S[n], so S[n+4] = S[n] (tests/test_certificates.py
# certifies every case).  So the assembly's two-step factor
# entry[i]/entry[i-2] (i >= 2) depends only on i mod P, and each entry
# past the first two periods is the entry two back times that factor, as
# in the assembly.  A zero S or T repeats a zero among indices 0..P-1,
# which the assembly of the first two periods scans, so the first
# forbidden index is the full sweep's.


def _periodic_sweep(case: Case, route, n_max: int):
    """Entries 0..n_max of ``route(n_max)``, the case's route, as (first,
    second, step ratios); a pure-power case takes at most two periods from
    it and builds each later entry n as entry n-2 times f[n mod P], f read
    from those periods, and its step ratios are ratio(i) = f[i mod P]."""
    period = case.period
    if not period:
        return route(n_max)
    try:
        first, second, _ = route(min(n_max, 2 * period - 1))
    except ForbiddenInputError as exc:
        raise ForbiddenInputError(exc.index, case.detail) from None
    ratios = []
    for values in (first, second):
        factors = {i % period: values[i] / values[i - 2] for i in range(2, len(values))}
        for n in range(len(values), n_max + 1):
            values.append(values[n - 2] * factors[n % period])
        ratios.append(lambda i, factors=factors: factors[i % period])
    return first, second, tuple(ratios)


def case_routes(system: str, tag: str, params, product, n_max: int) -> dict:
    """The routes ``verify`` and ``difftest`` compare with iteration, "product"
    and case ``tag``, both read from ``product``, the product sweep of 0..n_max."""
    case = _validated(system, tag, params, n_max)
    first, second, _ = _periodic_sweep(
        case, lambda m: (*(values[: m + 1] for values in product), None), n_max
    )
    return {"product": product, tag: (first, second)}


def _solve_index(case: Case, route, n: int) -> tuple[Fraction, Fraction]:
    """Entry n alone: entry[k] * rho_k**m for n = k + m*period past the
    first two periods of a pure-power case, with rho_k = entry[k+period] /
    entry[k], else entry n of the sweep."""
    period = case.period
    if not period or n < 2 * period:
        first, second, _ = _periodic_sweep(case, route, n)
        return first[n], second[n]
    m, k = divmod(n, period)
    sweep = _periodic_sweep(case, route, 2 * period - 1)[:2]
    first, second = (values[k] * (values[k + period] / values[k]) ** m for values in sweep)
    return first, second


# ---------------------------------------------------------------------------
# case routes


def _case_route(system: str, tag: str, params, ics, n_max: int):
    """The validated case and its route; route(m) assembles entries 0..m."""
    case = _validated(system, tag, params, n_max)
    return case, _route(system, params, ics, _ROUTE_RULES[system][1])


def case_sweep(system: str, tag: str, params, ics, n_max: int):
    """Entries 0..n_max of case ``tag``, as (first, second)."""
    first, second, _ = case_sweep_ratios(system, tag, params, ics, n_max)
    return first, second


def case_sweep_ratios(system: str, tag: str, params, ics, n_max: int):
    """case_sweep, with the step ratios that built its entries: (first,
    second, ratios), ratios as from ``reduction.assembly_ratios`` or, for a
    pure-power case, the periodic factors of its extension (see
    _periodic_sweep)."""
    return _periodic_sweep(*_case_route(system, tag, params, ics, n_max), n_max)


def case_point(system: str, tag: str, params, ics, n: int) -> tuple[Fraction, Fraction]:
    """Entry n of case ``tag``; see _solve_index."""
    return _solve_index(*_case_route(system, tag, params, ics, n), n)


solve_a_case_sweep, solve_b_case_sweep = system_aliases("solve_{}_case_sweep", case_sweep)
solve_a_case, solve_b_case = system_aliases("solve_{}_case", case_point)
