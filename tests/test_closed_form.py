import itertools
import random
from fractions import Fraction as F

import pytest

from fraction_kernels import fractions
from sdeq.closed_form import (
    CASES,
    CaseParamError,
    ForbiddenInputError,
    auto_case_a,
    auto_case_b,
    case_sweep,
    closed_ST_sweep,
    product_sweep,
    seeds,
    seeds_a,
    seeds_b,
    solve_a_case,
    solve_a_case_sweep,
    solve_a_product_sweep,
    solve_b_case,
    solve_b_case_sweep,
    solve_b_product_sweep,
)
from sdeq.sampling import draw_admissible_a, draw_admissible_b
from sdeq.systems import (
    SHAPES,
    SystemAInitial,
    SystemAParams,
    SystemBInitial,
    SystemBParams,
    iterate,
    iterate_a,
    iterate_b,
)

ONES_A = SystemAInitial(1, 1, 1, 1)
ONES_B = SystemBInitial(1, 1, 1, 1, 1, 1)


# the auto-selection oracle: each system's tags, most specific first
# (Product always applies to A; ACeq1 and ACneq1 partition the B parameters)
AUTO_ORDER = {
    "A": ("OnesOnes", "NegNeg", "Aeq1Bneg1", "Beq1Aneg1", "Aeq1", "Beq1", "ABneq1", "Product"),
    "B": ("AllOnes", "UnitBD", "ACeq1", "ACneq1"),
}
GRID = (-2, -1, F(-1, 2), 0, F(1, 2), 1, F(3, 2), 2)


def _assert_auto_case_on_grid(system, auto_case):
    """auto_case picks the first tag of AUTO_ORDER whose predicate holds,
    at every parameter tuple over GRID and at each case's fixed record."""
    cases, params = CASES[system], SHAPES[system].params
    grid = [params(*values) for values in itertools.product(GRID, repeat=len(params._fields))]
    fixed = [case.fixed for case in cases.values() if case.fixed is not None]
    for point in grid + fixed:
        expected = next(tag for tag in AUTO_ORDER[system] if cases[tag].applies(point))
        assert auto_case(point) == expected, point


def _product_entry(system, params, ics, n):
    """Entry n of the product route, from the keyed sweep."""
    first, second = product_sweep(system, params, ics, n)
    return first[n], second[n]


def test_seeds():
    assert seeds_a(SystemAInitial(1, 2, 1, F(-1, 2))) == (F(1, 2), -2)
    assert seeds_b(ONES_B) == (1, 1, 1, 1)
    with pytest.raises(ForbiddenInputError):
        seeds_a(SystemAInitial(1, 1, 1, 0))
    with pytest.raises(ForbiddenInputError):
        seeds_b(SystemBInitial(1, 1, 1, 1, 0, 1))


# every seed product, zeroed by an initial value that no earlier product
# holds: (system, the zero initial value, the product reported)
@pytest.mark.parametrize(
    "system, zero, product",
    [
        ("A", "v0", "v0*u1"), ("A", "u0", "u0*v1"),
        ("B", "x0", "x0*y1"), ("B", "y2", "x1*y2"), ("B", "y0", "y0*x1"), ("B", "x2", "y1*x2"),
    ],
)
def test_zero_seed_product_detail(system, zero, product):
    initial, seeds = (SystemAInitial, seeds_a) if system == "A" else (SystemBInitial, seeds_b)
    ics = initial(**{name: 0 if name == zero else 1 for name in initial._fields})
    with pytest.raises(ForbiddenInputError) as info:
        seeds(ics)
    assert (info.value.index, info.value.detail) == (
        0, f"{product} = 0, auxiliary seeds undefined"
    )


def test_product_a_examples():
    assert _product_entry("A", SystemAParams(1, 1), ONES_A, 2) == (F(1, 2), F(1, 2))
    assert _product_entry("A", SystemAParams(3, -2), SystemAInitial(2, 3, 5, 7), 0) == (2, 5)
    assert _product_entry("A", SystemAParams(3, -2), SystemAInitial(2, 3, 5, 7), 1) == (3, 7)
    assert _product_entry("A", SystemAParams(2, 1), ONES_A, 2)[0] == F(1, 3)


def test_product_a_equals_iteration():
    rng = random.Random(101)
    for _ in range(40):
        params, ics = draw_admissible_a(rng, 30)
        t = iterate_a(params, ics, 30)
        us, vs = solve_a_product_sweep(params, ics, 30)
        assert us == list(t.first)
        assert vs == list(t.second)


def test_case_a_examples():
    u2, _ = solve_a_case("ABneq1", SystemAParams(2, 1), ONES_A, 2)
    assert u2 == F(1, 3)
    u4, v4 = solve_a_case("Aeq1Bneg1", SystemAParams(1, -1), SystemAInitial(1, 2, 1, 2), 4)
    assert (u4, v4) == (F(-1, 3), -3)
    u2, v2 = solve_a_case("NegNeg", SystemAParams(-1, -1), SystemAInitial(1, 2, 1, 3), 2)
    assert (u2, v2) == (F(1, 2), 1)


def test_case_a_initial_indices_unchanged():
    cases = {
        "Product": SystemAParams(2, F(1, 2)),
        "ABneq1": SystemAParams(2, 3),
        "Aeq1": SystemAParams(1, 3),
        "Beq1": SystemAParams(3, 1),
        "Aeq1Bneg1": SystemAParams(1, -1),
        "Beq1Aneg1": SystemAParams(-1, 1),
        "OnesOnes": SystemAParams(1, 1),
        "NegNeg": SystemAParams(-1, -1),
    }
    ics = SystemAInitial(F(2, 3), F(-5, 7), F(3), F(-1, 2))
    for tag, params in cases.items():
        assert solve_a_case(tag, params, ics, 0) == (ics.u0, ics.v0)
        assert solve_a_case(tag, params, ics, 1) == (ics.u1, ics.v1)


def test_case_a_against_oracle_per_tag():
    rng = random.Random(102)
    for tag in CASES["A"]:
        for _ in range(12):
            params, ics = draw_admissible_a(rng, 30, tag)
            t = iterate_a(params, ics, 30)
            us, vs = solve_a_case_sweep(tag, params, ics, 30)
            assert us == list(t.first), (tag, params, ics)
            assert vs == list(t.second), (tag, params, ics)


def test_case_a_overlap_consistency():
    # on a = 1 (b generic) the unit-a formulas must equal the generic
    # a*b != 1 formulas exactly, and likewise for b = 1
    rng = random.Random(103)
    for _ in range(15):
        params, ics = draw_admissible_a(rng, 24, "Aeq1")
        assert solve_a_case_sweep("Aeq1", params, ics, 24) == solve_a_case_sweep(
            "ABneq1", params, ics, 24
        )
        params, ics = draw_admissible_a(rng, 24, "Beq1")
        assert solve_a_case_sweep("Beq1", params, ics, 24) == solve_a_case_sweep(
            "ABneq1", params, ics, 24
        )


def test_case_a_sign_pattern_mod4():
    # the odd-u branch at residue 3 alternates sign with the block index m:
    # u[4m+3] * (2*q-1)^(m+1) / (u1 * (q-1)^(2m+1)) == (-1)^m, q = v0*u1
    params = SystemAParams(1, -1)
    ics = SystemAInitial(1, 2, 1, 2)
    q = ics.v0 * ics.u1
    t = iterate_a(params, ics, 24)
    assert t.singular is None
    for m in range(5):
        u = t.first[4 * m + 3]
        ratio = u * (2 * q - 1) ** (m + 1) / (ics.u1 * (q - 1) ** (2 * m + 1))
        assert ratio == (-1) ** m


def test_auto_case_a():
    assert auto_case_a(SystemAParams(1, 1)) == "OnesOnes"
    assert auto_case_a(SystemAParams(-1, -1)) == "NegNeg"
    assert auto_case_a(SystemAParams(1, -1)) == "Aeq1Bneg1"
    assert auto_case_a(SystemAParams(-1, 1)) == "Beq1Aneg1"
    assert auto_case_a(SystemAParams(1, 5)) == "Aeq1"
    assert auto_case_a(SystemAParams(5, 1)) == "Beq1"
    assert auto_case_a(SystemAParams(2, 3)) == "ABneq1"
    assert auto_case_a(SystemAParams(2, F(1, 2))) == "Product"  # a*b = 1, no special form
    assert tuple(CASES["A"]) == (
        "Product", "ABneq1", "Aeq1", "Beq1", "Aeq1Bneg1", "Beq1Aneg1", "OnesOnes", "NegNeg"
    )
    _assert_auto_case_on_grid("A", auto_case_a)


def test_case_a_tag_param_mismatch():
    with pytest.raises(CaseParamError):
        solve_a_case("OnesOnes", SystemAParams(2, 1), ONES_A, 3)
    with pytest.raises(CaseParamError):
        solve_a_case("ABneq1", SystemAParams(2, F(1, 2)), ONES_A, 3)
    with pytest.raises(CaseParamError):
        solve_a_case("nope", SystemAParams(1, 1), ONES_A, 1)


def test_case_a_forbidden_input():
    # T[2] = T0 + 2 = 0 for u0*v1 = -1/2, so the closed form breaks at
    # index 3 (where iteration is singular as well)
    params = SystemAParams(1, 1)
    ics = SystemAInitial(1, 1, 1, F(-1, 2))
    us, vs = solve_a_case_sweep("OnesOnes", params, ics, 2)
    t = iterate_a(params, ics, 2)
    assert us == list(t.first) and vs == list(t.second)
    with pytest.raises(ForbiddenInputError) as info:
        solve_a_case_sweep("OnesOnes", params, ics, 5)
    assert info.value.index == 3
    with pytest.raises(ForbiddenInputError):
        _product_entry("A", params, ics, 5)
    with pytest.raises(ForbiddenInputError):
        _product_entry("A", params, SystemAInitial(0, 1, 1, 1), 3)


def test_product_b_examples():
    params = SystemBParams(1, 1, 1, 1)
    assert _product_entry("B", params, ONES_B, 3)[0] == F(1, 2)
    assert _product_entry("B", params, ONES_B, 5)[0] == F(1, 3)
    ics = SystemBInitial(2, 3, 5, 7, F(1, 2), F(-2, 3))
    for n in range(3):
        xs, ys = _product_entry("B", SystemBParams(4, -1, 2, 3), ics, n)
        assert xs == (ics.x0, ics.x1, ics.x2)[n]
        assert ys == (ics.y0, ics.y1, ics.y2)[n]


def test_product_b_equals_iteration():
    rng = random.Random(104)
    for _ in range(25):
        params, ics = draw_admissible_b(rng, 25)
        t = iterate_b(params, ics, 25)
        xs, ys = solve_b_product_sweep(params, ics, 25)
        assert xs == list(t.first)
        assert ys == list(t.second)


def test_case_b_examples():
    assert solve_b_case("AllOnes", SystemBParams(1, 1, 1, 1), ONES_B, 4)[0] == 1
    assert solve_b_case("ACeq1", SystemBParams(1, 0, 1, 0), ONES_B, 4)[0] == 1
    assert solve_b_case("ACneq1", SystemBParams(2, 1, 1, 1), ONES_B, 3)[0] == F(1, 3)


def test_case_b_initial_indices_unchanged():
    cases = {
        "Product": SystemBParams(2, -1, 3, F(1, 5)),
        "ACneq1": SystemBParams(2, -1, 3, F(1, 5)),
        "ACeq1": SystemBParams(2, -1, F(1, 2), F(1, 5)),
        "UnitBD": SystemBParams(1, 1, -1, 1),
        "AllOnes": SystemBParams(1, 1, 1, 1),
    }
    ics = SystemBInitial(F(2, 3), F(-5, 7), 3, F(-1, 2), F(4, 9), -2)
    for tag, params in cases.items():
        for n in range(3):
            x, y = solve_b_case(tag, params, ics, n)
            assert x == (ics.x0, ics.x1, ics.x2)[n]
            assert y == (ics.y0, ics.y1, ics.y2)[n]


def test_case_b_against_oracle_per_tag():
    rng = random.Random(105)
    for tag in CASES["B"]:
        for _ in range(10):
            params, ics = draw_admissible_b(rng, 28, tag)
            t = iterate_b(params, ics, 28)
            xs, ys = solve_b_case_sweep(tag, params, ics, 28)
            assert xs == list(t.first), (tag, params, ics)
            assert ys == list(t.second), (tag, params, ics)


def test_case_b_unit_bd_cross_check():
    # the unit-b,d family sits inside a*c != 1, so its residue-8 extension
    # must reproduce the generic geometric-ratio products exactly
    rng = random.Random(106)
    for _ in range(10):
        params, ics = draw_admissible_b(rng, 30, "UnitBD")
        assert solve_b_case_sweep("UnitBD", params, ics, 30) == solve_b_case_sweep(
            "ACneq1", params, ics, 30
        )


def test_case_b_product_routes_agree():
    # the Product tag assembles the product sweep's auxiliary values; only
    # the order in which a forbidden report names S and T differs
    rng = random.Random(107)
    for _ in range(15):
        params, ics = draw_admissible_b(rng, 25)
        assert solve_b_case_sweep("Product", params, ics, 25) == solve_b_product_sweep(
            params, ics, 25
        )


def test_auto_case_b():
    assert auto_case_b(SystemBParams(1, 1, 1, 1)) == "AllOnes"
    assert auto_case_b(SystemBParams(1, 1, -1, 1)) == "UnitBD"
    assert auto_case_b(SystemBParams(2, 5, F(1, 2), 7)) == "ACeq1"
    assert auto_case_b(SystemBParams(2, 5, 3, 7)) == "ACneq1"
    assert tuple(CASES["B"]) == ("Product", "ACneq1", "ACeq1", "UnitBD", "AllOnes")
    _assert_auto_case_on_grid("B", auto_case_b)


def test_case_b_tag_param_mismatch():
    with pytest.raises(CaseParamError):
        solve_b_case("AllOnes", SystemBParams(2, 1, 1, 1), ONES_B, 3)
    with pytest.raises(CaseParamError):
        solve_b_case("ACeq1", SystemBParams(2, 1, 1, 1), ONES_B, 3)
    with pytest.raises(CaseParamError):
        solve_b_case("UnitBD", SystemBParams(1, 1, -1, 2), ONES_B, 3)


def test_case_b_forbidden_input():
    # S[4] = S0*(a*c) + (d + b*c) = -2 + 2 = 0 for x0*y1 = -1/2 with all
    # parameters 1; the closed forms break at index 5
    params = SystemBParams(1, 1, 1, 1)
    ics = SystemBInitial(1, 1, 1, 1, F(-1, 2), 1)
    t = iterate_b(params, ics, 4)
    xs, ys = solve_b_case_sweep("AllOnes", params, ics, 4)
    assert xs == list(t.first) and ys == list(t.second)
    for evaluate in (
        lambda: solve_b_case_sweep("AllOnes", params, ics, 8),
        lambda: solve_b_product_sweep(params, ics, 8),
        lambda: solve_b_case_sweep("ACeq1", params, ics, 8),
    ):
        with pytest.raises(ForbiddenInputError) as info:
            evaluate()
        assert info.value.index == 5


# ---------------------------------------------------------------------------
# telescoped assembly kernel

DEEP_A_ICS = SystemAInitial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8))
DEEP_B_ICS = SystemBInitial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8), F(-3, 4), F(7, 6))
# DEEP_B_ICS is singular at step 8 under all-ones parameters
ALL_ONES_B_ICS = SystemBInitial(F(3, 5), F(2, 7), F(4, 9), F(5, 8), F(3, 4), F(7, 6))

# every tag with parameters as far from unit as the tag allows
DEEP_A_PARAMS = {
    "Product": SystemAParams(F(2, 3), F(-5, 7)),
    "ABneq1": SystemAParams(F(2, 3), F(-5, 7)),
    "Aeq1": SystemAParams(1, F(-5, 7)),
    "Beq1": SystemAParams(F(2, 3), 1),
    "Aeq1Bneg1": SystemAParams(1, -1),
    "Beq1Aneg1": SystemAParams(-1, 1),
    "OnesOnes": SystemAParams(1, 1),
    "NegNeg": SystemAParams(-1, -1),
}
DEEP_B_PARAMS = {
    "Product": SystemBParams(F(2, 3), F(-5, 7), F(3, 5), F(4, 9)),
    "ACneq1": SystemBParams(F(2, 3), F(-5, 7), F(3, 5), F(4, 9)),
    "ACeq1": SystemBParams(F(2, 3), F(-5, 7), F(3, 2), F(4, 9)),
    "UnitBD": SystemBParams(1, 1, -1, 1),
    "AllOnes": SystemBParams(1, 1, 1, 1),
}


def test_kernel_equals_iteration_deep():
    n = 300
    for tag, params in DEEP_A_PARAMS.items():
        t = iterate_a(params, DEEP_A_ICS, n)
        assert t.singular is None
        expect = (list(t.first), list(t.second))
        assert solve_a_case_sweep(tag, params, DEEP_A_ICS, n) == expect, tag
        if tag == "ABneq1":
            assert solve_a_product_sweep(params, DEEP_A_ICS, n) == expect
            assert t.first[n].numerator.bit_length() > 40_000  # really deep
    for tag, params in DEEP_B_PARAMS.items():
        ics = ALL_ONES_B_ICS if tag == "AllOnes" else DEEP_B_ICS
        t = iterate_b(params, ics, n)
        assert t.singular is None
        expect = (list(t.first), list(t.second))
        assert solve_b_case_sweep(tag, params, ics, n) == expect, tag
        if tag == "ACneq1":
            assert solve_b_product_sweep(params, ics, n) == expect


# (system, route, params, ics, index, detail): "sweep" is the product sweep,
# any other route the case sweep of that tag.  Where S and T vanish at the
# same index every route names the auxiliary of the first component's
# update: S for System A, T for System B (see test_one_tie_rule).
FORBIDDEN_BRACES = [
    ("A", "sweep", ("1", "2"), ("-2", "-1", "-2", "1/2"), 2, "auxiliary S[1] = 0"),
    ("A", "sweep", ("-1/2", "-1"), ("-1/3", "1/3", "-1", "1"), 5, "auxiliary S[4] = 0"),
    ("A", "sweep", ("1/2", "2"), ("1/2", "-1/3", "1/2", "-3/4"), 9, "auxiliary S[8] = 0"),
    ("A", "ABneq1", ("4", "-1/2"), ("4", "-2/3", "1/2", "4/3"), 7, "auxiliary T[6] = 0"),
    ("A", "Aeq1", ("1", "3"), ("3/2", "1/2", "-3", "4/3"), 3, "auxiliary S[2] = 0"),
    ("A", "Beq1", ("-1/2", "1"), ("-1/4", "2/3", "-1", "1"), 5, "auxiliary T[4] = 0"),
    ("A", "OnesOnes", ("1", "1"), ("-1/4", "1/3", "3/4", "1/2"), 9, "auxiliary T[8] = 0"),
    # S[3] = T[3] = 0
    ("A", "sweep", ("3/2", "-2/3"), ("4", "1/2", "2", "1/4"), 4, "auxiliary S[3] = 0"),
    ("A", "ABneq1", ("3/2", "-2/3"), ("4", "1/2", "2", "1/4"), 4, "auxiliary S[3] = 0"),
    # S[6] = T[6] = 0
    ("A", "OnesOnes", ("1", "1"), ("1/2", "-2/3", "1/4", "-1/3"), 7, "auxiliary S[6] = 0"),
    ("B", "sweep", ("1", "-2", "1", "3"), ("1", "3/4", "-3", "1/4", "1/3", "-1/3"),
     6, "auxiliary T[5] = 0"),
    ("B", "sweep", ("-3", "1", "-1", "-2"), ("-1", "2", "-3/4", "-3", "-3/4", "-1/2"),
     9, "auxiliary S[8] = 0"),
    ("B", "Product", ("1", "1", "2", "-1/3"), ("-2/3", "-1", "-3/2", "-1/4", "4/3", "2"),
     10, "auxiliary T[9] = 0"),
    ("B", "ACneq1", ("1/2", "2", "-1", "1"), ("4", "-2", "-1", "1/2", "4", "4/3"),
     11, "auxiliary S[10] = 0"),
    ("B", "ACneq1", ("-3/4", "1", "2/3", "-1"), ("-1", "-1/2", "1/2", "2", "-3/4", "-1"),
     3, "auxiliary T[2] = 0"),
    ("B", "ACeq1", ("3/2", "-1", "2/3", "1/2"), ("3", "-4/3", "-4", "2/3", "-1", "2"),
     6, "auxiliary T[5] = 0"),
    ("B", "AllOnes", ("1", "1", "1", "1"), ("1/2", "3", "-4/3", "-3/4", "-1/2", "-2"),
     9, "auxiliary S[8] = 0"),
    # S[4] = T[4] = 0
    ("B", "sweep", ("1", "1", "3", "-2"), ("-3", "3/4", "-3", "4", "1", "-1"),
     5, "auxiliary T[4] = 0"),
    ("B", "Product", ("1", "1", "3", "-2"), ("-3", "3/4", "-3", "4", "1", "-1"),
     5, "auxiliary T[4] = 0"),
    ("B", "ACneq1", ("1", "1", "3", "-2"), ("-3", "3/4", "-3", "4", "1", "-1"),
     5, "auxiliary T[4] = 0"),
    # S[5] = T[5] = 0
    ("B", "sweep", ("-1/2", "2", "-2", "3"), ("-4/3", "-1/2", "1", "1/2", "-2", "-2"),
     6, "auxiliary T[5] = 0"),
    ("B", "ACeq1", ("-1/2", "2", "-2", "3"), ("-4/3", "-1/2", "1", "1/2", "-2", "-2"),
     6, "auxiliary T[5] = 0"),
]


@pytest.mark.parametrize("system, route, params, ics, index, detail", FORBIDDEN_BRACES)
def test_kernel_forbidden_braces(system, route, params, ics, index, detail):
    if system == "A":
        params, ics = SystemAParams(*params), SystemAInitial(*ics)
        iterate, product, case = iterate_a, solve_a_product_sweep, solve_a_case_sweep
    else:
        params, ics = SystemBParams(*params), SystemBInitial(*ics)
        iterate, product, case = iterate_b, solve_b_product_sweep, solve_b_case_sweep

    def evaluate(n_max):
        if route == "sweep":
            return product(params, ics, n_max)
        return case(route, params, ics, n_max)

    # S or T at j = index - 1 matters only once n_max reaches index
    t = iterate(params, ics, index - 1)
    assert evaluate(index - 1) == (list(t.first), list(t.second))
    for n_max in (index, index + 5):
        with pytest.raises(ForbiddenInputError) as info:
            evaluate(n_max)
        assert (info.value.index, info.value.detail) == (index, detail)


def _tie_inputs():
    """(system, params, ics, index) of each input of FORBIDDEN_BRACES at
    which S and T both vanish at index - 1, once."""
    ties = {}
    for system, _, params, ics, index, _ in FORBIDDEN_BRACES:
        shape = SHAPES[system]
        params, ics = shape.params(*params), shape.initial(*ics)
        S, T = map(fractions, closed_ST_sweep(system, params, seeds(system, ics), index))
        if S[index - 1] == T[index - 1] == 0:
            ties[system, params, ics, index] = None
    return list(ties)


TIE_INPUTS = _tie_inputs()


def test_tie_inputs_cover_both_systems():
    assert [system for system, *_ in TIE_INPUTS] == ["A", "A", "B", "B"]


@pytest.mark.parametrize("system, params, ics, index", TIE_INPUTS)
def test_one_tie_rule(system, params, ics, index):
    # the product sweep is the Product case's sweep, and both name the
    # auxiliary the iteration's singular component divides by: S for the
    # trailing component, T for the leading one
    singular = iterate(system, params, ics, index).singular
    assert singular.step == index
    trailing = SHAPES[system].by_lead("first", "second")[1]
    name = "S" if singular.component == trailing else "T"
    with pytest.raises(ForbiddenInputError) as product:
        product_sweep(system, params, ics, index)
    with pytest.raises(ForbiddenInputError) as case:
        case_sweep(system, "Product", params, ics, index)
    for info in (product, case):
        assert (info.value.index, info.value.detail) == (index, f"auxiliary {name}[{index - 1}] = 0")


PURE_POWER = {
    "A": {"NegNeg": (-1, -1), "Aeq1Bneg1": (1, -1), "Beq1Aneg1": (-1, 1)},
    "B": {"UnitBD": (1, 1, -1, 1)},
}

def _pure_power_inputs(system, tag, ics):
    """Params, ics, single-point and sweep evaluators of a pure-power tag."""
    if system == "A":
        params, ics = SystemAParams(*PURE_POWER["A"][tag]), SystemAInitial(*ics)
        return params, ics, solve_a_case, solve_a_case_sweep
    params, ics = SystemBParams(*PURE_POWER["B"][tag]), SystemBInitial(*ics)
    return params, ics, solve_b_case, solve_b_case_sweep


def _outcome(evaluate):
    try:
        return evaluate()
    except ForbiddenInputError as exc:
        return exc.index, exc.detail


def _value_or_index(evaluate):
    try:
        return evaluate()
    except ForbiddenInputError as exc:
        return exc.index


def test_pure_power_point_matches_sweep():
    # small components hit the vanishing factors (p, q, s, t in {0, +-1, 1/2});
    # the pure-power sweep extends each residue class past two periods by
    # its ratio, so it is compared with the Product tag's full assembly at
    # every index up to 67, more than eight periods, and so is the single
    # point at each listed n
    rng = random.Random(108)
    values = [F(k, d) for k in (-2, -1, 1, 2) for d in (1, 2)]
    raised = 0
    for _ in range(50):
        for system, tags in PURE_POWER.items():
            for tag in tags:
                components = 4 if system == "A" else 6
                params, ics, point, sweep = _pure_power_inputs(
                    system, tag, (rng.choice(values) for _ in range(components))
                )
                full = _value_or_index(lambda: sweep("Product", params, ics, 67))
                assert _value_or_index(lambda: sweep(tag, params, ics, 67)) == full
                for n in (0, 1, 2, 3, 5, 8, 13, 21, 40, 67):
                    full = _value_or_index(lambda: sweep("Product", params, ics, n))
                    if isinstance(full, int):
                        raised += 1
                    else:
                        full = full[0][n], full[1][n]
                    assert _value_or_index(lambda: point(tag, params, ics, n)) == full
    assert raised > 50  # the forbidden branch is exercised too


# one forbidden input per pure-power tag: (system, tag, ics, index, detail)
FORBIDDEN_PURE_POWER = [
    ("A", "NegNeg", ("3", "2/3", "3/2", "2/3"), 2, "u0*v1 = 1 or v0*u1 = 1"),
    ("A", "Aeq1Bneg1", ("1", "1", "2/3", "1"), 4, "vanishing residue-4 denominator"),
    ("A", "Beq1Aneg1", ("-1", "1/3", "-2/3", "-1/2"), 3, "vanishing residue-4 denominator"),
    ("B", "UnitBD", ("-1", "3/2", "-1/3", "-2/3", "-1", "-1"), 7,
     "vanishing residue-8 denominator"),
]


@pytest.mark.parametrize("system, tag, ics, index, detail", FORBIDDEN_PURE_POWER)
def test_pure_power_forbidden_detail(system, tag, ics, index, detail):
    params, ics, point, sweep = _pure_power_inputs(system, tag, ics)
    sweep(tag, params, ics, index - 1)
    point(tag, params, ics, index - 1)
    # 40 lies past two periods of every tag, where the residue classes extend
    for n in (index, 40):
        assert _outcome(lambda: sweep(tag, params, ics, n)) == (index, detail)
        assert _outcome(lambda: point(tag, params, ics, n)) == (index, detail)
