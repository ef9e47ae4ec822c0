"""Direct closed-form evaluators for both systems, case by case.

Every evaluator here is an explicit function of the parameters, the initial
conditions, and the index n alone; the forward iteration is never used,
and the test suite checks each evaluator against it.

Both systems rebuild their orbit from the auxiliary values S and T by one
telescoped product, two indices at a time (``orbit.assemble``, the one
assembly kernel, which builds System B's iterated orbit too), with S and
T seeded by the reciprocals of the seed products of the system's
``systems.SHAPES`` record.  S and T come from one closed-form table
(``_closed_table``, swept on int pairs by ``closed_ST_sweep``), which
covers every parameter value, g = ab or ac = 1 included;
``reduction.closed_ST`` evaluates it one index at a time.  Each
enumerated case (a*b != 1, a = 1, b = 1, a = b = 1 for A; a*c != 1,
a*c = 1, all ones for B) is that table at the case's parameters, and the
product solution is the case ``Product``, so one sweep
(``case_telescoping``) evaluates every case.

The sign-mixed pairs and a = b = -1 for A, and the unit-b,d family for B,
are pure powers: they assemble one period and two entries, and extend
the orbit two indices at a time by the assembly's first P divisors,
repeated with the period P.  A sweep is an ``orbit.Telescoping``: the
short values, validation, the S and T sweep, its zero scan and the
divisor lists, all on reduced int pairs (the scan reads numerators),
come first and raise every error, and then each component's long
entries are built on their own, as Fractions or as the printed literals,
so the CLI can print the two in two processes, or compare the two
starts and the divisor lists with the orbit's (``route_telescopings``,
``_compare``) and build none.  The ``solve`` and ``verify`` subcommands
run here (``_run_solve``, ``_run_verify``).
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
from math import gcd

from .orbit import Telescoping, assemble, orbit_telescoping
from .rational import _Literal, _lit_map, format_rational, rat
from .systems import SHAPES, Singularity, SystemAParams, SystemBParams, _Record, _Singular
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
    its auxiliary sequences (see case_telescoping) and the ``detail`` its
    forbidden inputs report.
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
# the closed form of S and T


def _closed_table(system: str, params, seeds):
    """The closed form of the system's recursion, as (g, S classes,
    T classes) split by residue mod 2*lag: for k < lag, with g = p*r and
    h = sum_{i<m} g^i,

        S[2*lag*m + k]       = g^m S[k]          + (p*s + q) h
        S[2*lag*m + lag + k] = g^m (p*T[k] + q)  + (p*s + q) h

    and T mirrors S with (p, q, S) <-> (r, s, T).  So System A
    (g = ab) splits by parity and System B (g = ac) by residue mod 4.
    """
    shape = SHAPES[system]
    (p, q), (r, s) = shape.rule(params)
    start = [rat(value) for value in seeds]
    head_s, head_t = start[: shape.lag], start[shape.lag :]
    shift_s, shift_t = p * s + q, r * q + s
    s_values = head_s + [p * t + q for t in head_t]
    t_values = head_t + [r * x + s for x in head_s]
    return (
        p * r,
        tuple((x, shift_s) for x in s_values),
        tuple((x, shift_t) for x in t_values),
    )


def closed_ST_sweep(system: str, params, seeds, count: int):
    """Entries 0..count-1 of S and T from the system's closed form, as
    reduced pairs, with seeds = (S[0..lag-1], T[0..lag-1]); every
    closed-form route reads this."""
    g, s_classes, t_classes = _closed_table(system, params, seeds)
    return geometric_sweep(s_classes, g, count), geometric_sweep(t_classes, g, count)


def geometric_sweep(classes, g: Fraction, count: int) -> list[tuple[int, int]]:
    """Entries 0..count-1 of a table with w = len(classes) residue classes:
    entry m*w + k is x_k*g**m + y_k*h_m for (x_k, y_k) = classes[k], with
    h_m = sum_{i<m} g**i, as reduced (numerator, denominator) pairs.

    With g = P/Q the sweep carries P**m, Q**m and H_m = Q**m*h_m as ints
    (H_{m+1} = Q*(H_m + P**m)), so each entry is num/den with
    den = xd*yd*Q**m, whose primes all divide the short xd*yd*Q.  So gcds
    with a short operand reduce it, not a gcd of two long ints:
    c = gcd(gcd(num, xd*yd*Q), den) divides both while it is not 1, which
    takes one gcd where no prime of xd*yd*Q divides num.
    """
    P, Q = g.numerator, g.denominator
    terms = []
    for x, y in classes:
        den = x.denominator * y.denominator
        terms.append((x.numerator * y.denominator, y.numerator * x.denominator, den, den * Q))
    power, scale, inner = 1, 1, 0
    values = []
    for start in range(0, count, len(terms)):
        for x_num, y_num, den, short in terms[: count - start]:
            num, den = x_num * power + y_num * inner, den * scale
            common = gcd(num, short)
            while common != 1 and (common := gcd(common, den)) != 1:
                num, den = num // common, den // common
                common = gcd(num, short)
            values.append((num, den))
        inner = Q * (inner + power)
        power *= P
        scale *= Q
    return values


# ---------------------------------------------------------------------------
# the one case sweep: orbit.assemble over the closed-form sweep of S and
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


def case_telescoping(system: str, tag: str, params, ics, n_max: int) -> Telescoping:
    """How entries 0..n_max of case ``tag`` are built (a Telescoping): by
    the assembly, or for a pure-power case, which assembles entries
    0..P+1 at most, by its period extension.  Every error is raised here,
    before a long entry is built.  A zero initial value (lag 1) or seed
    product is reported before a pure-power case can give the error its
    own detail; where S and T vanish at one index, the auxiliary of the
    first component's update is named."""
    case = _validated(system, tag, params, n_max)
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
    period = _validated(system, tag, params, n).period
    if not period or n < 2 * period:
        built = case_telescoping(system, tag, params, ics, n)
        return built.entries(0)[n], built.entries(1)[n]
    m, k = divmod(n, period)
    built = case_telescoping(system, tag, params, ics, 2 * period - 1)
    sweep = map(built.entries, (0, 1))
    first, second = (values[k] * (values[k + period] / values[k]) ** m for values in sweep)
    return first, second


def route_telescopings(system: str, tag: str, params, ics, n_max: int) -> dict:
    """The routes that ``verify`` and ``difftest`` compare with iteration
    (``_compare``), "product" and case ``tag``, over entries 0..n_max,
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


# ---------------------------------------------------------------------------
# the comparison with iteration, and the solve and verify subcommands


def _compare(system: str, tag: str, params, ics, n: int):
    """The one comparison of closed forms with iteration over entries 0..n:
    the orbit's Singularity, or (orbit, routes, failures, first) with the
    telescopings of the orbit and of case ``tag``'s routes
    (route_telescopings).  A failure is an index where either component
    differs, counted once per route; ``first`` is the first
    (route, n, component) in sorted route order, or None.  The comparison
    reads the short starts and divisor lists (``_mismatches``), so a
    passing run builds no entry."""
    carried, orbit = orbit_telescoping(system, params, ics, n)
    if carried.singular is not None:
        return carried.singular
    routes = route_telescopings(system, tag, params, ics, n)
    failing = [_mismatches(orbit, routes, k) for k in (0, 1)]
    failures, first = 0, None
    for route in sorted(routes):
        indices = [found[route] for found in failing]
        either = set(indices[0]).union(indices[1])
        failures += len(either)
        if either and first is None:
            at = min(either)
            first = (route, at, 0 if at in indices[0] else 1)
    return orbit, routes, failures, first


def _mismatches(orbit: Telescoping, routes: dict, k: int) -> dict:
    """route -> the indices at which component k of the route's entries
    differs from the orbit's, read from the start values and divisor
    lists (Telescoping.mismatches), so a passing comparison builds no
    entry; each distinct telescoping is compared once."""
    failing = {built: orbit.mismatches(built, k) for built in dict.fromkeys(routes.values())}
    return {route: failing[built] for route, built in routes.items()}


def _literal(built: Telescoping, k: int, n: int) -> str:
    """Entry n of component k of ``built``, built up to n only."""
    return format_rational(Telescoping(built.starts, built.divisors, n).entries(k)[n])


def _run_solve(config) -> tuple:
    """The ``solve`` subcommand: the sweep of case --case, printed by
    ``printing.both``, or its entry --n alone; it always passes."""
    system, params, ics = config.system, config.params, config.ics
    tag = config.case
    if config.sweep:
        from .printing import both

        built = case_telescoping(system, tag, params, ics, config.n)
        firsts, seconds = both(built)
        indices = range(config.n + 1)
    else:
        point = case_point(system, tag, params, ics, config.n)
        firsts, seconds = ([format_rational(value)] for value in point)
        indices = [config.n]
    if config.format == "csv":
        columns = [map(str, indices), firsts, seconds, [tag] * len(indices)]
        return True, (["n", "first", "second", "case"], columns)
    records = [
        {"n": n, "first": _Literal(f), "second": _Literal(s), "case": tag}
        for n, f, s in zip(indices, firsts, seconds)
    ]
    return True, {
        "command": "solve",
        "system": system,
        "case": tag,
        "params": _lit_map(params),
        "ics": _lit_map(ics),
        "records": records,
    }


def _run_verify(config) -> tuple:
    """The ``verify`` subcommand: ``_compare`` at case --case; it passes
    where every route equals the orbit."""
    compared = _compare(config.system, config.case, config.params, config.ics, config.n)
    if isinstance(compared, Singularity):
        raise _Singular(compared)
    orbit, routes, _, first = compared
    first_mismatch = None
    if first is not None:
        route, n, k = first
        first_mismatch = {
            "route": route,
            "n": n,
            "component": ("first", "second")[k],
            "closed_form": _literal(routes[route], k, n),
            "iterated": _literal(orbit, k, n),
        }
    return first_mismatch is None, {
        "command": "verify",
        "system": config.system,
        "case": config.case,
        "N": config.n,
        "checked": len(routes) * (config.n + 1),
        "equal": first_mismatch is None,
        "first_mismatch": first_mismatch,
    }


solve_a_product_sweep, solve_b_product_sweep = system_aliases(
    "solve_{}_product_sweep", product_sweep
)
solve_a_case_sweep, solve_b_case_sweep = system_aliases("solve_{}_case_sweep", case_sweep)
solve_a_case, solve_b_case = system_aliases("solve_{}_case", case_point)
