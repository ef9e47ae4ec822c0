"""Direct closed-form evaluators for both systems, case by case.

Every evaluator here is an explicit function of the parameters, the initial
conditions, and the index n alone; the forward iteration is never used.
Each one is checkable against the forward iterator, and the test suite does
exactly that over seeded random inputs.

Both systems rebuild their orbit from the auxiliary values S and T by one
telescoped product, two indices at a time: u[n+2] = u[n]*T[n]/S[n+1] and
v[n+2] = v[n]*S[n]/T[n+1] for System A (S[0] = 1/(v0*u1), T[0] =
1/(u0*v1)), and the same with y in the role of u and x in that of v for
System B (S seeded as 1/(x0*y1), 1/(x1*y2) and T as 1/(y0*x1), 1/(y1*x2)).
The product routes take S and T from the auxiliary closed forms; the
enumerated parameter cases substitute them as simplified braces: a*b != 1
(a = 1 and b = 1 are its special values) and a = b = 1 for A, a*c != 1
and a*c = 1 (all ones is a special value) for B.  The sign-mixed pairs
and a = b = -1 for A, and the unit-b,d family for B, collapse to pure
powers split by residue mod 4, 2 and 8.  ``CASES`` holds, per system, each
tag's predicate and route.

A vanishing auxiliary value means the requested index lies beyond a
forbidden initial condition; evaluators raise ForbiddenInputError
identifying the first index at which the closed form breaks down.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional

from .rational import ONE, format_rational
from .reduction import closed_ST_a, closed_ST_b
from .systems import SystemAInitial, SystemAParams, SystemBInitial, SystemBParams


class ForbiddenInputError(ValueError):
    """The closed form is undefined at (or before) the reported index."""

    def __init__(self, index: int, detail: str):
        self.index = index
        self.detail = detail
        super().__init__(f"forbidden input: {detail} (breaks closed form at index {index})")


class CaseParamError(ValueError):
    """The requested case tag is inconsistent with the parameters."""


def seeds_a(ics: SystemAInitial) -> tuple[Fraction, Fraction]:
    """S[0] = 1/(v0*u1) and T[0] = 1/(u0*v1)."""
    w0 = ics.v0 * ics.u1
    z0 = ics.u0 * ics.v1
    if w0 == 0:
        raise ForbiddenInputError(0, "v0*u1 = 0, auxiliary seed S[0] undefined")
    if z0 == 0:
        raise ForbiddenInputError(0, "u0*v1 = 0, auxiliary seed T[0] undefined")
    return 1 / w0, 1 / z0


def seeds_b(ics: SystemBInitial) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """S[0], S[1] = 1/(x0*y1), 1/(x1*y2) and T[0], T[1] = 1/(y0*x1), 1/(y1*x2)."""
    pairs = (
        ("x0*y1", ics.x0 * ics.y1),
        ("x1*y2", ics.x1 * ics.y2),
        ("y0*x1", ics.y0 * ics.x1),
        ("y1*x2", ics.y1 * ics.x2),
    )
    for name, value in pairs:
        if value == 0:
            raise ForbiddenInputError(0, f"{name} = 0, auxiliary seeds undefined")
    return 1 / pairs[0][1], 1 / pairs[1][1], 1 / pairs[2][1], 1 / pairs[3][1]


# ---------------------------------------------------------------------------
# case tables: per system, tag -> predicate and evaluation route


class Case(NamedTuple):
    """One enumerated parameter case.

    The route is a point formula with its index period (the pure-power
    cases), braces fed to the shared assembly, or, with neither, the
    product sweep.  ``fixed`` holds the parameters of a case that admits
    exactly one choice of them.
    """

    applies: Callable[[Any], bool]
    braces: Optional[Callable] = None
    point: Optional[Callable] = None
    period: int = 0
    fixed: Any = None


def _pinned(fixed, **route) -> Case:
    return Case(lambda params: params == fixed, fixed=fixed, **route)


def lookup_case(system: str, tag: str) -> Case:
    """The table entry of a case tag; CaseParamError for an unknown tag."""
    try:
        return CASES[system][tag]
    except KeyError:
        raise CaseParamError(f"unknown System {system} case tag: {tag!r}") from None


def case_a_applies(tag: str, params: SystemAParams) -> bool:
    return lookup_case("A", tag).applies(params)


def case_b_applies(tag: str, params: SystemBParams) -> bool:
    return lookup_case("B", tag).applies(params)


# most specific first; the scan order makes auto selection deterministic
# (Product always applies to A; ACeq1/ACneq1 partition the B parameters)
_AUTO_ORDER = {
    "A": ("OnesOnes", "NegNeg", "Aeq1Bneg1", "Beq1Aneg1", "Aeq1", "Beq1", "ABneq1", "Product"),
    "B": ("AllOnes", "UnitBD", "ACeq1", "ACneq1"),
}


def auto_case(system: str, params) -> str:
    """The most specific case tag whose predicate holds for ``params``."""
    return next(tag for tag in _AUTO_ORDER[system] if CASES[system][tag].applies(params))


def auto_case_a(params: SystemAParams) -> str:
    return auto_case("A", params)


def auto_case_b(params: SystemBParams) -> str:
    return auto_case("B", params)


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
# shared assembly: the telescoped recurrence over auxiliary braces
#
# Both systems rebuild their orbit two indices at a time from the
# auxiliary values (first, second = u, v for System A and y, x for B):
#
#   first[m+2]  = first[m]  * Tb[m] / Sb[m+1]
#   second[m+2] = second[m] * Sb[m] / Tb[m+1]
#
# where Sb/Tb are S/T up to a nonzero scaling that is the same for Sb[j]
# and Tb[j+1] (and for Tb[j] and Sb[j+1]), so it cancels in every ratio;
# only the start values first[1] = cf/Sb[0] and second[1] = cs/Tb[0] carry
# it.  Each step multiplies one big value by a small ratio, so assembly
# costs about what one step of iteration costs.  A zero brace at
# auxiliary index j makes every trajectory index >= j+1 forbidden.


def _assemble(
    f0: Fraction,
    s0: Fraction,
    cf: Fraction,
    cs: Fraction,
    sb: list[Fraction],
    tb: list[Fraction],
    n_max: int,
    ties: str = "ST",
) -> tuple[list[Fraction], list[Fraction]]:
    """Orbit entries 0..n_max from braces 0..n_max-1; ``ties`` names the
    brace reported first when S and T vanish at the same index."""
    braces = {"S": sb, "T": tb}
    for j in range(n_max):
        for name in ties:
            if braces[name][j] == 0:
                raise ForbiddenInputError(j + 1, f"auxiliary {name}[{j}] = 0")
    first = [f0]
    second = [s0]
    if n_max >= 1:
        first.append(cf / sb[0])
        second.append(cs / tb[0])
    for m in range(n_max - 1):
        first.append(first[m] * (tb[m] / sb[m + 1]))
        second.append(second[m] * (sb[m] / tb[m + 1]))
    return first, second


def _assemble_b(
    ics: SystemBInitial, sb: list[Fraction], tb: list[Fraction], n_max: int, ties: str
) -> tuple[list[Fraction], list[Fraction]]:
    # y plays the first role and x the second in the shared assembly
    ys, xs = _assemble(ics.y0, ics.x0, 1 / ics.x0, 1 / ics.y0, sb, tb, n_max, ties)
    return xs, ys


def _unzip(pairs) -> tuple[list[Fraction], list[Fraction]]:
    firsts: list[Fraction] = []
    seconds: list[Fraction] = []
    for first, second in pairs:
        firsts.append(first)
        seconds.append(second)
    return firsts, seconds


# ---------------------------------------------------------------------------
# pure-power cases: point formulas, no assembly


def _point_sweep(case: Case, ics, n_max: int) -> tuple[list[Fraction], list[Fraction]]:
    """Every exponent of a point formula is affine in n // period, so each
    residue class k is a geometric sequence: past the first two periods,
    entry[n] = entry[n - period] * (entry[k + period] / entry[k]).  The
    first two periods raise the sweep's first ForbiddenInputError (see
    _solve_index) and, when they do not, hold no zero entry."""
    period = case.period
    sweep = _unzip(case.point(ics, n) for n in range(min(n_max + 1, 2 * period)))
    if n_max >= 2 * period:
        for values in sweep:
            ratios = [values[k + period] / values[k] for k in range(period)]
            for n in range(2 * period, n_max + 1):
                values.append(values[n - period] * ratios[n % period])
    return sweep


def _solve_index(case, sweep, tag: str, params, ics, n: int) -> tuple[Fraction, Fraction]:
    """Index n alone: the point formula of a pure-power case, else entry n
    of the sweep.  Every factor of a point formula enters with a positive
    exponent within the first two periods, so scanning those indices raises
    the same first ForbiddenInputError as the sweep."""
    if case.point is None:
        first, second = sweep(tag, params, ics, n)
        return first[n], second[n]
    for k in range(min(n, 2 * case.period)):
        case.point(ics, k)
    return case.point(ics, n)


# ---------------------------------------------------------------------------
# System A


def _require_nonzero_ics_a(ics: SystemAInitial) -> None:
    for name in ("u0", "u1", "v0", "v1"):
        if getattr(ics, name) == 0:
            raise ForbiddenInputError(0, f"{name} = 0, closed forms undefined")


def solve_a_product_sweep(
    params: SystemAParams, ics: SystemAInitial, n_max: int
) -> tuple[list[Fraction], list[Fraction]]:
    """General product solution: the telescoped assembly over auxiliary
    values taken from the closed form (not from recursion)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _require_nonzero_ics_a(ics)
    s_seed, t_seed = seeds_a(ics)
    sb, tb = _unzip(closed_ST_a(params, s_seed, t_seed, j) for j in range(n_max))
    return _assemble(ics.u0, ics.v0, 1 / ics.v0, 1 / ics.u0, sb, tb, n_max)


def solve_a_product(
    params: SystemAParams, ics: SystemAInitial, n: int
) -> tuple[Fraction, Fraction]:
    us, vs = solve_a_product_sweep(params, ics, n)
    return us[n], vs[n]


def _braces_ab_general(params: SystemAParams, ics: SystemAInitial):
    """Scaled auxiliary braces for the a*b != 1 product solution.

    Even/odd S and T values, cleared of geometric-series denominators:
    the scalings cancel inside the assembled ratios up to the constants
    u1*(1-ab), v1*(1-ab) on the odd branches.
    """
    a, b = params.a, params.b
    ab = a * b
    p = ics.u0 * ics.v1
    q = ics.v0 * ics.u1
    ku = 1 - ab - p * (1 + b)
    kv = 1 - ab - q * (1 + a)

    def sb(j: int) -> Fraction:
        r, parity = divmod(j, 2)
        if parity == 0:
            return ab**r * kv + q * (1 + a)
        return a * ab**r * ku + p * (1 + a)

    def tb(j: int) -> Fraction:
        r, parity = divmod(j, 2)
        if parity == 0:
            return ab**r * ku + p * (1 + b)
        return b * ab**r * kv + q * (1 + b)

    return sb, tb, ics.u1 * (1 - ab), ics.v1 * (1 - ab)


def _braces_ones(params: SystemAParams, ics: SystemAInitial):
    """a = b = 1: auxiliary values grow linearly."""
    p = ics.u0 * ics.v1
    q = ics.v0 * ics.u1

    def sb(j: int) -> Fraction:
        r, parity = divmod(j, 2)
        return 1 + 2 * r * q if parity == 0 else 1 + (2 * r + 1) * p

    def tb(j: int) -> Fraction:
        r, parity = divmod(j, 2)
        return 1 + 2 * r * p if parity == 0 else 1 + (2 * r + 1) * q

    return sb, tb, ics.u1, ics.v1


def _negneg_point(ics: SystemAInitial, n: int) -> tuple[Fraction, Fraction]:
    """a = b = -1: the auxiliary pair is constant per parity class, so the
    solution collapses to pure powers."""
    p = ics.u0 * ics.v1
    q = ics.v0 * ics.u1
    m, parity = divmod(n, 2)
    try:
        if parity == 0:
            u_val = ics.u0 / (p - 1) ** m
            v_val = ics.v0 / (q - 1) ** m
        else:
            u_val = ics.u1 * (q - 1) ** m
            v_val = ics.v1 * (p - 1) ** m
    except ZeroDivisionError:
        raise ForbiddenInputError(n, "u0*v1 = 1 or v0*u1 = 1") from None
    if u_val == 0 or v_val == 0:
        raise ForbiddenInputError(n, "u0*v1 = 1 or v0*u1 = 1")
    return u_val, v_val


def _a1_bneg1_point(ics: SystemAInitial, n: int) -> tuple[Fraction, Fraction]:
    """a = 1, b = -1: residue-4 power formulas.

    The odd-u branch at residue 3 carries both the leading u1 and an
    alternating sign (-1)^m; the v branches at residues 2 and 3 are
    negated.  All of it is oracle-checked in the tests.
    """
    u0, u1, v0, v1 = ics.u0, ics.u1, ics.v0, ics.v1
    p = u0 * v1
    q = v0 * u1
    m, residue = divmod(n, 4)
    sign = ONE if m % 2 == 0 else -ONE
    try:
        if residue == 0:
            u_val = u0 / (1 - p * p) ** m
            v_val = v0 * (1 - 2 * q) ** m / (1 - q) ** (2 * m)
        elif residue == 1:
            u_val = u1 * (1 - q) ** (2 * m) / (1 - 2 * q) ** m
            v_val = v1 * (1 - p * p) ** m
        elif residue == 2:
            u_val = u0 / ((1 + p) * (1 - p * p) ** m)
            v_val = -v0 * (1 - 2 * q) ** m / (1 - q) ** (2 * m + 1)
        else:
            u_val = u1 * sign * (q - 1) ** (2 * m + 1) / (2 * q - 1) ** (m + 1)
            v_val = -v1 * (1 + p) * (1 - p * p) ** m
    except ZeroDivisionError:
        raise ForbiddenInputError(n, "vanishing residue-4 denominator") from None
    if u_val == 0 or v_val == 0:
        raise ForbiddenInputError(n, "vanishing residue-4 numerator")
    return u_val, v_val


def _b1_aneg1_point(ics: SystemAInitial, n: int) -> tuple[Fraction, Fraction]:
    """b = 1, a = -1: the mirror of the a = 1, b = -1 family under the
    simultaneous swap u <-> v, a <-> b."""
    mirrored = SystemAInitial(ics.v0, ics.v1, ics.u0, ics.u1)
    v_val, u_val = _a1_bneg1_point(mirrored, n)
    return u_val, v_val


CASES_A = {
    "Product": Case(lambda params: True),
    "ABneq1": Case(lambda params: params.a * params.b != 1, braces=_braces_ab_general),
    # a = 1 and b = 1 are the general braces at that value; their scales
    # u1*(1 - ab), v1*(1 - ab) stay nonzero because ab != 1
    "Aeq1": Case(lambda params: params.a == 1 and params.b != 1, braces=_braces_ab_general),
    "Beq1": Case(lambda params: params.b == 1 and params.a != 1, braces=_braces_ab_general),
    "Aeq1Bneg1": _pinned(SystemAParams(1, -1), point=_a1_bneg1_point, period=4),
    "Beq1Aneg1": _pinned(SystemAParams(-1, 1), point=_b1_aneg1_point, period=4),
    "OnesOnes": _pinned(SystemAParams(1, 1), braces=_braces_ones),
    "NegNeg": _pinned(SystemAParams(-1, -1), point=_negneg_point, period=2),
}

CASE_TAGS_A = tuple(CASES_A)


def _check_case_a(tag: str, params: SystemAParams, ics: SystemAInitial, n_max: int) -> Case:
    case = _validated("A", tag, params, n_max)
    _require_nonzero_ics_a(ics)
    return case


def solve_a_case_sweep(
    tag: str, params: SystemAParams, ics: SystemAInitial, n_max: int
) -> tuple[list[Fraction], list[Fraction]]:
    case = _check_case_a(tag, params, ics, n_max)
    if case.point is not None:
        return _point_sweep(case, ics, n_max)
    if case.braces is None:
        return solve_a_product_sweep(params, ics, n_max)
    sb_fn, tb_fn, cu, cv = case.braces(params, ics)
    sb = [sb_fn(j) for j in range(n_max)]
    tb = [tb_fn(j) for j in range(n_max)]
    return _assemble(ics.u0, ics.v0, cu, cv, sb, tb, n_max)


def solve_a_case(
    tag: str, params: SystemAParams, ics: SystemAInitial, n: int
) -> tuple[Fraction, Fraction]:
    case = _check_case_a(tag, params, ics, n)
    return _solve_index(case, solve_a_case_sweep, tag, params, ics, n)


# ---------------------------------------------------------------------------
# System B


def solve_b_product_sweep(
    params: SystemBParams, ics: SystemBInitial, n_max: int
) -> tuple[list[Fraction], list[Fraction]]:
    """General product solution for System B: the telescoped assembly over
    auxiliary values taken from the mod-4 closed form."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    s0, s1, t0, t1 = seeds_b(ics)
    sb, tb = _unzip(closed_ST_b(params, s0, s1, t0, t1, j) for j in range(n_max))
    return _assemble_b(ics, sb, tb, n_max, ties="ST")


def solve_b_product(
    params: SystemBParams, ics: SystemBInitial, n: int
) -> tuple[Fraction, Fraction]:
    xs, ys = solve_b_product_sweep(params, ics, n)
    return xs[n], ys[n]


def _braces_b_ac_general(params: SystemBParams, ics: SystemBInitial):
    """a*c != 1 braces with the geometric sums expanded in closed form and
    cleared of their denominator 1 - a*c, which joins the brace scale."""
    a, b, c, d = params.a, params.b, params.c, params.d
    ac = a * c
    p = ics.x0 * ics.y1
    q = ics.y0 * ics.x1
    s = ics.x1 * ics.y2
    t = ics.y1 * ics.x2
    dbc = d + b * c
    bad = b + a * d

    def sb(j: int) -> Fraction:
        r, residue = divmod(j, 4)
        if residue == 0:
            return ac**r * (1 - ac - p * dbc) + p * dbc
        if residue == 1:
            return ac**r * (1 - ac - s * dbc) + s * dbc
        seed = q if residue == 2 else t
        return ac**r * (c - a * c * c - seed * (a * c * d + b * c)) + seed * dbc

    def tb(j: int) -> Fraction:
        r, residue = divmod(j, 4)
        if residue == 0:
            return ac**r * (1 - ac - q * bad) + q * bad
        if residue == 1:
            return ac**r * (1 - ac - t * bad) + t * bad
        seed = p if residue == 2 else s
        return ac**r * (a - a * a * c - seed * (a * b * c + a * d)) + seed * bad

    return sb, tb, 1 - ac


def _braces_b_ac_unit(params: SystemBParams, ics: SystemBInitial):
    """a*c = 1 braces: the geometric sums degenerate to linear terms."""
    a, b, c, d = params.a, params.b, params.c, params.d
    p = ics.x0 * ics.y1
    q = ics.y0 * ics.x1
    s = ics.x1 * ics.y2
    t = ics.y1 * ics.x2

    def sb(j: int) -> Fraction:
        r, residue = divmod(j, 4)
        if residue == 0:
            return 1 + p * (d + b * c) * r
        if residue == 1:
            return 1 + s * (d + b * c) * r
        seed = q if residue == 2 else t
        return c + seed * (d * (r + 1) + b * c * r)

    def tb(j: int) -> Fraction:
        r, residue = divmod(j, 4)
        if residue == 0:
            return 1 + q * (b + a * d) * r
        if residue == 1:
            return 1 + t * (b + a * d) * r
        seed = p if residue == 2 else s
        return a + seed * (b * (r + 1) + a * d * r)

    return sb, tb, ONE


def _unit_bd_point(ics: SystemBInitial, n: int) -> tuple[Fraction, Fraction]:
    """a = b = d = 1, c = -1: residue-8 power formulas.

    The auxiliary strands become 2-periodic up to sign, so each residue
    class collapses to powers of the four seed products.
    """
    x0, x1, x2 = ics.x0, ics.x1, ics.x2
    y0, y1, y2 = ics.y0, ics.y1, ics.y2
    p = x0 * y1
    q = y0 * x1
    s = x1 * y2
    t = y1 * x2
    m, residue = divmod(n, 8)
    try:
        if residue == 0:
            x_val = (
                (x2 * y2) ** (2 * m) / (x0 ** (2 * m - 1) * y0 ** (2 * m))
                * (1 - q) ** (2 * m)
                / ((1 + s) ** m * (s - 1) ** m * (2 * t - 1) ** m)
            )
            y_val = (
                (x2 * y2) ** (2 * m) / (x0 ** (2 * m) * y0 ** (2 * m - 1))
                * (1 + p) ** m * (2 * q - 1) ** m * (p - 1) ** m
                / (1 - t) ** (2 * m)
            )
        elif residue == 1:
            x_val = (
                x1 * (x0 * y0) ** (2 * m) / (x2 * y2) ** (2 * m)
                * (1 - t) ** (2 * m)
                / ((1 + p) ** m * (2 * q - 1) ** m * (p - 1) ** m)
            )
            y_val = (
                y1 * (x0 * y0) ** (2 * m) / (x2 * y2) ** (2 * m)
                * (1 + s) ** m * (s - 1) ** m * (2 * t - 1) ** m
                / (1 - q) ** (2 * m)
            )
        elif residue == 2:
            x_val = (
                x2 ** (2 * m + 1) * y2 ** (2 * m) / (x0 * y0) ** (2 * m)
                * (1 - q) ** (2 * m)
                / ((1 + s) ** m * (s - 1) ** m * (2 * t - 1) ** m)
            )
            y_val = (
                x2 ** (2 * m) * y2 ** (2 * m + 1) / (x0 * y0) ** (2 * m)
                * (1 + p) ** m * (2 * q - 1) ** m * (p - 1) ** m
                / (1 - t) ** (2 * m)
            )
        elif residue == 3:
            x_val = (
                y1 * x0 ** (2 * m + 1) * y0 ** (2 * m) / (x2 ** (2 * m) * y2 ** (2 * m + 1))
                * (1 - t) ** (2 * m)
                / ((1 + p) ** (m + 1) * (2 * q - 1) ** m * (p - 1) ** m)
            )
            y_val = (
                x1 * x0 ** (2 * m) * y0 ** (2 * m + 1) / (x2 ** (2 * m + 1) * y2 ** (2 * m))
                * (1 + s) ** m * (s - 1) ** m * (2 * t - 1) ** m
                / (q - 1) ** (2 * m + 1)
            )
        elif residue == 4:
            x_val = (
                (x2 * y2) ** (2 * m + 1) * (q - 1) ** (2 * m + 1)
                / (
                    x0 ** (2 * m) * y0 ** (2 * m + 1)
                    * (1 + s) ** (m + 1) * (s - 1) ** m * (2 * t - 1) ** m
                )
            )
            y_val = (
                (x2 * y2) ** (2 * m + 1)
                * (1 + p) ** (m + 1) * (2 * q - 1) ** m * (p - 1) ** m
                / (x0 ** (2 * m + 1) * y0 ** (2 * m) * (t - 1) ** (2 * m + 1))
            )
        elif residue == 5:
            x_val = (
                x1 * (x0 * y0) ** (2 * m + 1) * (t - 1) ** (2 * m + 1)
                / (
                    (x2 * y2) ** (2 * m + 1)
                    * (1 + p) ** (m + 1) * (2 * q - 1) ** (m + 1) * (p - 1) ** m
                )
            )
            y_val = (
                y1 * (x0 * y0) ** (2 * m + 1)
                * (1 + s) ** (m + 1) * (s - 1) ** m * (2 * t - 1) ** m
                / ((x2 * y2) ** (2 * m + 1) * (1 - q) ** (2 * m + 1))
            )
        elif residue == 6:
            x_val = (
                x2 ** (2 * m + 2) * y2 ** (2 * m + 1) * (1 - q) ** (2 * m + 1)
                / (
                    x0 ** (2 * m + 1) * y0 ** (2 * m + 1)
                    * (1 + s) ** (m + 1) * (s - 1) ** m * (2 * t - 1) ** (m + 1)
                )
            )
            y_val = (
                x2 ** (2 * m + 1) * y2 ** (2 * m + 2)
                * (1 + p) ** (m + 1) * (2 * q - 1) ** (m + 1) * (p - 1) ** m
                / (x0 ** (2 * m + 1) * y0 ** (2 * m + 1) * (1 - t) ** (2 * m + 1))
            )
        else:
            x_val = (
                y1 * x0 ** (2 * m + 2) * y0 ** (2 * m + 1) * (1 - t) ** (2 * m + 1)
                / (
                    x2 ** (2 * m + 1) * y2 ** (2 * m + 2)
                    * (1 + p) ** (m + 1) * (2 * q - 1) ** (m + 1) * (p - 1) ** (m + 1)
                )
            )
            y_val = (
                x1 * x0 ** (2 * m + 1) * y0 ** (2 * m + 2)
                * (1 + s) ** (m + 1) * (s - 1) ** m * (2 * t - 1) ** (m + 1)
                / (x2 ** (2 * m + 2) * y2 ** (2 * m + 1) * (1 - q) ** (2 * m + 2))
            )
    except ZeroDivisionError:
        raise ForbiddenInputError(n, "vanishing residue-8 denominator") from None
    if x_val == 0 or y_val == 0:
        raise ForbiddenInputError(n, "vanishing residue-8 numerator")
    return x_val, y_val


CASES_B = {
    "Product": Case(lambda params: True),
    "ACneq1": Case(lambda params: params.a * params.c != 1, braces=_braces_b_ac_general),
    "ACeq1": Case(lambda params: params.a * params.c == 1, braces=_braces_b_ac_unit),
    "UnitBD": _pinned(SystemBParams(1, 1, -1, 1), point=_unit_bd_point, period=8),
    # all ones is the a*c = 1 braces at a = b = c = d = 1
    "AllOnes": _pinned(SystemBParams(1, 1, 1, 1), braces=_braces_b_ac_unit),
}

CASE_TAGS_B = tuple(CASES_B)

CASES = {"A": CASES_A, "B": CASES_B}


def _check_case_b(
    tag: str, params: SystemBParams, ics: SystemBInitial, n_max: int
) -> tuple[Case, tuple[Fraction, Fraction, Fraction, Fraction]]:
    case = _validated("B", tag, params, n_max)
    return case, seeds_b(ics)  # rejects zero seed products up front


def solve_b_case_sweep(
    tag: str, params: SystemBParams, ics: SystemBInitial, n_max: int
) -> tuple[list[Fraction], list[Fraction]]:
    case, (s0, s1, t0, t1) = _check_case_b(tag, params, ics, n_max)
    if case.point is not None:
        return _point_sweep(case, ics, n_max)
    if case.braces is None:
        # the product sweep's auxiliary values; only the tie order differs
        sb, tb = _unzip(closed_ST_b(params, s0, s1, t0, t1, j) for j in range(n_max))
    else:
        sb_fn, tb_fn, odd_factor = case.braces(params, ics)
        # brace j is odd_factor * seed * S[j] with seeds (p, s, q, t) for S
        # and (q, t, p, s) for T; dividing that scale out leaves S[j], T[j]
        s_unscale = [seed / odd_factor for seed in (s0, s1, t0, t1)]
        t_unscale = [seed / odd_factor for seed in (t0, t1, s0, s1)]
        sb = [sb_fn(j) * s_unscale[j % 4] for j in range(n_max)]
        tb = [tb_fn(j) * t_unscale[j % 4] for j in range(n_max)]
    return _assemble_b(ics, sb, tb, n_max, ties="TS")


def solve_b_case(
    tag: str, params: SystemBParams, ics: SystemBInitial, n: int
) -> tuple[Fraction, Fraction]:
    case = _check_case_b(tag, params, ics, n)[0]
    return _solve_index(case, solve_b_case_sweep, tag, params, ics, n)
