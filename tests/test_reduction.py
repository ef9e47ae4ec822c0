import random
from fractions import Fraction as F

import pytest

from sdeq.reduction import (
    InvariantSeq,
    LinearSeq,
    ZeroDivisorError,
    ZeroInvariantError,
    closed_ST_a,
    closed_ST_b,
    invariants_a,
    invariants_b,
    linearize,
    reconstruct_a,
    reconstruct_b,
    solve_linear_a,
    solve_linear_b,
)
from sdeq.sampling import draw_admissible_a, draw_admissible_b, draw_rational
from sdeq.systems import (
    SystemAInitial,
    SystemAParams,
    SystemBInitial,
    SystemBParams,
    Trajectory,
    iterate_a,
    iterate_b,
)


def test_invariants_a_all_ones():
    t = iterate_a(SystemAParams(1, 1), SystemAInitial(1, 1, 1, 1), 4)
    inv = invariants_a(t)
    assert list(inv.w) == [1, F(1, 2), F(1, 3), F(1, 4)]
    assert list(inv.z) == [1, F(1, 2), F(1, 3), F(1, 4)]


def test_invariants_a_zero_component():
    t = iterate_a(SystemAParams(1, 1), SystemAInitial(0, 0, 1, 1), 5)
    inv = invariants_a(t)
    assert all(value == 0 for value in inv.z)  # z[n] = u[n]*v[n+1]
    with pytest.raises(ZeroInvariantError) as info:
        linearize(inv)
    assert info.value.index == 0


def test_invariants_a_rejects_singular():
    t = iterate_a(SystemAParams(1, 1), SystemAInitial(1, 5, 7, -1), 2)
    with pytest.raises(ValueError):
        invariants_a(t)


def test_invariants_a_rejects_a_one_entry_trajectory():
    t = iterate_a(SystemAParams(1, 1), SystemAInitial(1, 1, 1, 1), 1)
    with pytest.raises(ValueError, match="need at least 2 entries"):
        invariants_a(Trajectory(t.labels, t.first[:1], t.second[:1]))


def test_invariants_a_recurrence_identity():
    rng = random.Random(21)
    for _ in range(30):
        params, ics = draw_admissible_a(rng, 20)
        inv = invariants_a(iterate_a(params, ics, 20))
        for n in range(len(inv.w) - 1):
            assert inv.w[n + 1] * (params.a + inv.z[n]) == inv.z[n]
            assert inv.z[n + 1] * (params.b + inv.w[n]) == inv.w[n]


def test_invariants_b_all_ones():
    t = iterate_b(SystemBParams(1, 1, 1, 1), SystemBInitial(1, 1, 1, 1, 1, 1), 5)
    inv = invariants_b(t)
    assert list(inv.w) == [1, 1, F(1, 2), F(1, 2), F(1, 3)]
    assert list(inv.z) == [1, 1, F(1, 2), F(1, 2), F(1, 3)]


def test_invariants_b_fixed_point():
    t = iterate_b(SystemBParams(1, 0, 1, 0), SystemBInitial(1, 1, 1, 1, 1, 1), 6)
    inv = invariants_b(t)
    assert all(value == 1 for value in inv.w)
    assert all(value == 1 for value in inv.z)


def test_invariants_b_recurrence_identity():
    rng = random.Random(22)
    for _ in range(20):
        params, ics = draw_admissible_b(rng, 18)
        inv = invariants_b(iterate_b(params, ics, 18))
        for n in range(len(inv.w) - 2):
            assert inv.w[n + 2] * (params.c + params.d * inv.z[n]) == inv.z[n]
            assert inv.z[n + 2] * (params.a + params.b * inv.w[n]) == inv.w[n]


def test_linearize_examples():
    lin = linearize(InvariantSeq((F(1), F(1, 2), F(1, 3)), (F(1), F(1), F(1))))
    assert list(lin.S) == [1, 2, 3]
    assert list(lin.T) == [1, 1, 1]
    with pytest.raises(ZeroInvariantError) as info:
        linearize(InvariantSeq((F(1),), (F(0),)))
    assert info.value.sequence == "z" and info.value.index == 0


def test_solve_linear_a_examples():
    lin = solve_linear_a(SystemAParams(1, 1), 1, 1, 4)
    assert list(lin.S) == [1, 2, 3, 4, 5]
    assert list(lin.T) == [1, 2, 3, 4, 5]
    lin = solve_linear_a(SystemAParams(2, 1), 1, 1, 2)
    assert list(lin.S) == [1, 3, 5]
    assert list(lin.T) == [1, 2, 4]
    lin = solve_linear_a(SystemAParams(0, 0), 7, -3, 3)
    assert list(lin.S) == [7, 1, 1, 1]
    assert list(lin.T) == [-3, 1, 1, 1]


def test_closed_ST_a_examples():
    assert closed_ST_a(SystemAParams(2, 1), 1, 1, 2) == (5, 4)
    assert closed_ST_a(SystemAParams(3, 7), F(2, 5), F(-1, 3), 0) == (F(2, 5), F(-1, 3))
    assert closed_ST_a(SystemAParams(1, 1), 1, 1, 5) == (6, 6)


def test_closed_ST_a_refuses_a_third_seed():
    with pytest.raises(TypeError, match="System A takes 2 seeds"):
        closed_ST_a(SystemAParams(1, 1), 1, 1, 1, 3)


def test_closed_ST_a_equals_recursion():
    rng = random.Random(31)
    for _ in range(40):
        params = SystemAParams(draw_rational(rng), draw_rational(rng))
        s0, t0 = draw_rational(rng), draw_rational(rng)
        lin = solve_linear_a(params, s0, t0, 60)
        for n in range(61):
            assert closed_ST_a(params, s0, t0, n) == (lin.S[n], lin.T[n])


def test_solve_linear_b_examples():
    lin = solve_linear_b(SystemBParams(1, 1, 1, 1), 1, 1, 1, 1, 4)
    assert list(lin.S) == [1, 1, 2, 2, 3]
    assert list(lin.T) == [1, 1, 2, 2, 3]
    lin = solve_linear_b(SystemBParams(0, 5, 0, 7), 2, 3, 4, 6, 3)
    assert list(lin.S) == [2, 3, 7, 7]
    assert list(lin.T) == [4, 6, 5, 5]
    lin = solve_linear_b(SystemBParams(2, 0, 1, 0), 1, 1, 1, 1, 4)
    assert list(lin.S) == [1, 1, 1, 1, 2]
    assert list(lin.T) == [1, 1, 2, 2, 2]


def test_closed_ST_b_examples():
    assert closed_ST_b(SystemBParams(1, 1, 1, 1), 1, 1, 1, 1, 4) == (3, 3)
    assert closed_ST_b(SystemBParams(2, 0, 1, 0), 1, 1, 1, 1, 4) == (2, 2)
    params = SystemBParams(3, -2, F(1, 2), 5)
    assert closed_ST_b(params, F(2), F(-1), F(4), F(1, 3), 0) == (2, 4)
    assert closed_ST_b(params, F(2), F(-1), F(4), F(1, 3), 1) == (-1, F(1, 3))


def test_closed_ST_b_equals_recursion():
    rng = random.Random(32)
    for _ in range(30):
        params = SystemBParams(*(draw_rational(rng) for _ in range(4)))
        seeds = [draw_rational(rng) for _ in range(4)]
        lin = solve_linear_b(params, *seeds, 60)
        for n in range(61):
            assert closed_ST_b(params, *seeds, n) == (lin.S[n], lin.T[n])


def test_reconstruct_a_all_ones():
    lin = solve_linear_a(SystemAParams(1, 1), 1, 1, 3)
    t = reconstruct_a(lin, 1, 1)
    oracle = iterate_a(SystemAParams(1, 1), SystemAInitial(1, 1, 1, 1), 4)
    assert t.first == oracle.first
    assert t.second == oracle.second


def test_reconstruct_a_constant_fixed_point():
    lin = solve_linear_a(SystemAParams(0, 0), 1, 1, 4)  # S = T = all ones
    t = reconstruct_a(lin, 1, 1)
    assert all(value == 1 for value in t.first)
    assert all(value == 1 for value in t.second)


# (reconstruct, S, T, first0, second0, the (what, index) reported, or None
# when the pair rebuilds without a zero divisor); per index, S is reported
# before T, and at index 0 both before the first and then the second start
ZERO_DIVISORS = [
    pytest.param(reconstruct_a, (0, 1), (1, 1), 1, 1, ("S", 0), id="S0"),
    pytest.param(reconstruct_a, (0, 1), (0, 1), 1, 1, ("S", 0), id="S0-and-T0"),
    pytest.param(reconstruct_a, (1, 2, 3), (1, 1, 0), 1, 1, ("T", 2), id="later-T"),
    pytest.param(reconstruct_a, (1, 0, 2), (1, 0, 2), 1, 1, ("S", 1), id="tie-reports-S"),
    pytest.param(reconstruct_a, (1, 2), (1, 2), 0, 0, ("u", 0), id="u0-and-v0"),
    pytest.param(reconstruct_a, (1, 0), (1, 1), 0, 1, ("u", 0), id="u0-before-later-S"),
    pytest.param(reconstruct_a, (1, 2), (0, 2), 0, 0, ("T", 0), id="T0-before-u0"),
    pytest.param(reconstruct_b, (1, 2), (3, 4), 0, 0, ("x", 0), id="x0-and-y0"),
    pytest.param(reconstruct_b, (1, 2), (3, 4), 2, 0, ("y", 0), id="y0"),
    pytest.param(reconstruct_a, (), (), 0, 0, None, id="empty"),
]


@pytest.mark.parametrize("reconstruct, S, T, first0, second0, error", ZERO_DIVISORS)
def test_reconstruct_a_zero_divisor(reconstruct, S, T, first0, second0, error):
    lin = LinearSeq(tuple(map(F, S)), tuple(map(F, T)))
    if error is None:
        t = reconstruct(lin, first0, second0)
        assert (t.labels, t.first, t.second) == (("u", "v"), (first0,), (second0,))
        return
    with pytest.raises(ZeroDivisorError) as info:
        reconstruct(lin, first0, second0)
    assert (info.value.what, info.value.index) == error



def test_reconstruct_defining_identity():
    rng = random.Random(33)
    params, ics = draw_admissible_a(rng, 15)
    t = iterate_a(params, ics, 15)
    lin = linearize(invariants_a(t))
    rebuilt = reconstruct_a(lin, ics.u0, ics.v0)
    for n in range(len(lin.S)):
        assert rebuilt.second[n] * rebuilt.first[n + 1] * lin.S[n] == 1


def test_round_trip_a():
    rng = random.Random(34)
    for _ in range(40):
        params, ics = draw_admissible_a(rng, 25)
        t = iterate_a(params, ics, 25)
        rebuilt = reconstruct_a(linearize(invariants_a(t)), ics.u0, ics.v0)
        assert rebuilt.first == t.first
        assert rebuilt.second == t.second


def test_round_trip_b():
    rng = random.Random(35)
    for _ in range(25):
        params, ics = draw_admissible_b(rng, 20)
        t = iterate_b(params, ics, 20)
        rebuilt = reconstruct_b(linearize(invariants_b(t)), ics.x0, ics.y0)
        assert rebuilt.first == t.first
        assert rebuilt.second == t.second
