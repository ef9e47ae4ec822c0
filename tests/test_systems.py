import random
from fractions import Fraction as F

import pytest

from sdeq.sampling import draw_admissible_a, draw_admissible_b
from sdeq.systems import (
    SHAPES,
    Singularity,
    SystemAInitial,
    SystemAParams,
    SystemBInitial,
    SystemBParams,
    Trajectory,
    ZeroInitialError,
    iterate,
    iterate_a,
    iterate_b,
    orbit,
    shift_back,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # only the property test needs hypothesis
    given = None

ONES_A = SystemAInitial(1, 1, 1, 1)
ONES_B = SystemBInitial(1, 1, 1, 1, 1, 1)


def test_iterate_a_all_ones():
    t = iterate_a(SystemAParams(1, 1), ONES_A, 4)
    assert list(t.first) == [1, 1, F(1, 2), F(2, 3), F(3, 8)]
    assert list(t.second) == [1, 1, F(1, 2), F(2, 3), F(3, 8)]
    assert t.singular is None
    assert t.labels == ("u", "v")
    assert t.origin == 0


def test_iterate_a_zero_u_fixed_point():
    t = iterate_a(SystemAParams(1, 1), SystemAInitial(0, 0, 1, 1), 6)
    assert all(value == 0 for value in t.first)
    assert all(value == 1 for value in t.second)
    assert t.singular is None


def test_iterate_a_forced_singularity():
    # a + u0*v1 = 1 - 1 = 0 at the first update, any u1, v0
    t = iterate_a(SystemAParams(1, 1), SystemAInitial(1, 5, 7, -1), 2)
    assert t.singular is not None
    assert t.singular.step == 2
    assert t.singular.component == "first"
    assert "a + u0*v1" in t.singular.denominator_expression
    assert len(t.first) == 2 and len(t.second) == 2


def test_iterate_a_requires_n_at_least_1():
    with pytest.raises(ValueError):
        iterate_a(SystemAParams(1, 1), ONES_A, 0)


def test_iterate_b_all_ones():
    t = iterate_b(SystemBParams(1, 1, 1, 1), ONES_B, 5)
    assert list(t.first) == [1, 1, 1, F(1, 2), 1, F(1, 3)]
    assert list(t.second) == [1, 1, 1, F(1, 2), 1, F(1, 3)]
    assert t.singular is None


def test_iterate_b_hand_values():
    t = iterate_b(SystemBParams(1, 1, 1, 1), SystemBInitial(1, 2, 1, 1, 1, 2), 3)
    assert t.first[3] == F(1, 4)  # x0*y1/(y2*(1 + x0*y1))
    assert t.second[3] == F(2, 3)


def test_iterate_b_forced_singularity():
    # a + b*x0*y1 = 1 - 1 = 0
    t = iterate_b(SystemBParams(1, -1, 1, -1), ONES_B, 3)
    assert t.singular is not None
    assert t.singular.step == 3
    assert t.singular.component == "first"
    assert len(t.first) == 3


def test_iterate_b_rejects_zero_initials():
    with pytest.raises(ZeroInitialError):
        iterate_b(SystemBParams(1, 1, 1, 1), SystemBInitial(1, 0, 1, 1, 1, 1), 4)
    with pytest.raises(ValueError):
        iterate_b(SystemBParams(1, 1, 1, 1), ONES_B, 1)


def test_determinism():
    rng = random.Random(5)
    for _ in range(20):
        params, ics = draw_admissible_a(rng, 20)
        assert iterate_a(params, ics, 20) == iterate_a(params, ics, 20)


def test_recurrence_residual_zero():
    rng = random.Random(11)
    for _ in range(40):
        params, ics = draw_admissible_a(rng, 25)
        t = iterate_a(params, ics, 25)
        u, v = t.first, t.second
        for n in range(len(u) - 2):
            assert u[n + 2] * (params.a + u[n] * v[n + 1]) - u[n] == 0
            assert v[n + 2] * (params.b + v[n] * u[n + 1]) - v[n] == 0
    for _ in range(20):
        params, ics = draw_admissible_b(rng, 20)
        t = iterate_b(params, ics, 20)
        x, y = t.first, t.second
        for n in range(len(x) - 3):
            assert x[n + 3] * y[n + 2] * (params.a + params.b * x[n] * y[n + 1]) == x[n] * y[n + 1]
            assert y[n + 3] * x[n + 2] * (params.c + params.d * y[n] * x[n + 1]) == y[n] * x[n + 1]


def test_time_reversibility_desk_check():
    # every entry is reproduced exactly by recomputing it from its
    # predecessors, anywhere along the orbit
    rng = random.Random(13)
    params, ics = draw_admissible_a(rng, 30)
    t = iterate_a(params, ics, 30)
    for n in range(28):
        shifted = iterate_a(
            params,
            SystemAInitial(t.first[n], t.first[n + 1], t.second[n], t.second[n + 1]),
            2,
        )
        assert shifted.first[2] == t.first[n + 2]
        assert shifted.second[2] == t.second[n + 2]


def test_shift_back_relabels():
    t = iterate_a(SystemAParams(1, 1), ONES_A, 2)
    shifted = shift_back(t, 1)
    assert shifted.labels == ("x", "y")
    assert shifted.origin == -1
    assert shifted.first == t.first  # values untouched
    assert shifted.label_of(0) == -1 and shifted.label_of(2) == 1


def test_shift_back_singular_step_label():
    t = iterate_a(SystemAParams(1, 1), SystemAInitial(1, 5, 7, -1), 2)
    shifted = shift_back(t, 1)
    assert shifted.singular.step == t.singular.step  # array position kept
    assert shifted.label_of(shifted.singular.step) == t.singular.step - 1


def test_shift_back_composition():
    t = iterate_b(SystemBParams(1, 1, 1, 1), ONES_B, 4)
    twice = shift_back(shift_back(t, 1), 1)
    assert twice == shift_back(t, 2)
    assert twice.origin == -2
    with pytest.raises(ValueError):
        shift_back(t, 3)


def _literal_map(system, params, ics, n_max):
    """The systems' equations as written, in plain Fraction arithmetic:
    every denominator is formed from the entries it names."""
    if system == "A":
        a, b = params.a, params.b
        u, v = [ics.u0, ics.u1], [ics.v0, ics.v1]
        for n in range(n_max - 1):
            if a + u[n] * v[n + 1] == 0:
                sing = Singularity(n + 2, "first", f"a + u{n}*v{n + 1} = 0")
                return Trajectory(("u", "v"), tuple(u), tuple(v), sing)
            if b + v[n] * u[n + 1] == 0:
                sing = Singularity(n + 2, "second", f"b + v{n}*u{n + 1} = 0")
                return Trajectory(("u", "v"), tuple(u), tuple(v), sing)
            u.append(u[n] / (a + u[n] * v[n + 1]))
            v.append(v[n] / (b + v[n] * u[n + 1]))
        return Trajectory(("u", "v"), tuple(u), tuple(v))
    a, b, c, d = params.a, params.b, params.c, params.d
    x, y = [ics.x0, ics.x1, ics.x2], [ics.y0, ics.y1, ics.y2]
    for n in range(n_max - 2):
        if y[n + 2] * (a + b * x[n] * y[n + 1]) == 0:
            sing = Singularity(n + 3, "first", f"y{n + 2}*(a + b*x{n}*y{n + 1}) = 0")
            return Trajectory(("x", "y"), tuple(x), tuple(y), sing)
        if x[n + 2] * (c + d * y[n] * x[n + 1]) == 0:
            sing = Singularity(n + 3, "second", f"x{n + 2}*(c + d*y{n}*x{n + 1}) = 0")
            return Trajectory(("x", "y"), tuple(x), tuple(y), sing)
        x.append(x[n] * y[n + 1] / (y[n + 2] * (a + b * x[n] * y[n + 1])))
        y.append(y[n] * x[n + 1] / (x[n + 2] * (c + d * y[n] * x[n + 1])))
    return Trajectory(("x", "y"), tuple(x), tuple(y))


def _assert_literal(system, params, ics, n_max):
    """iterate equals the literal map, singularity included, and the
    products the iteration carried are lead[n]*trail[n+1] and
    trail[n]*lead[n+1] of that orbit; returns the orbit."""
    expected = _literal_map(system, params, ics, n_max)
    assert iterate(system, params, ics, n_max) == expected
    carried = orbit(system, params, ics, n_max)
    lead, trail = SHAPES[system].by_lead(expected.first, expected.second)
    assert carried.w == tuple(lead[n] * trail[n + 1] for n in range(len(lead) - 1))
    assert carried.z == tuple(trail[n] * lead[n + 1] for n in range(len(lead) - 1))
    return expected


def _singular_at(system, params, ics, n_max, step, component):
    trajectory = _assert_literal(system, params, ics, n_max)
    assert (trajectory.singular.step, trajectory.singular.component) == (step, component)


def test_literal_map_forced_singularities():
    # at the first update: a + u0*v1 = 0, then b + v0*u1 = 0
    _singular_at("A", SystemAParams(1, 1), SystemAInitial(1, 5, 7, -1), 6, 2, "first")
    _singular_at("A", SystemAParams(2, 1), SystemAInitial(1, -1, 1, 1), 6, 2, "second")
    # one update later: u1*v2 and v1*u2 do not depend on a and b respectively
    ics = SystemAInitial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8))
    z1 = ics.u1 * ics.v0 / (3 + ics.v0 * ics.u1)
    _singular_at("A", SystemAParams(-z1, 3), ics, 6, 3, "first")
    w1 = ics.v1 * ics.u0 / (2 + ics.u0 * ics.v1)
    _singular_at("A", SystemAParams(2, -w1), ics, 6, 3, "second")
    # a + b*x0*y1 = 0, then c + d*y0*x1 = 0
    _singular_at("B", SystemBParams(1, -1, 1, -1), ONES_B, 6, 3, "first")
    _singular_at("B", SystemBParams(1, 1, 1, -1), ONES_B, 6, 3, "second")
    # two updates later: x2*y3 does not depend on a and b, y2*x3 not on c and d
    ics = SystemBInitial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8), F(-3, 4), F(7, 6))
    w2 = ics.y0 * ics.x1 / (3 + ics.y0 * ics.x1)
    _singular_at("B", SystemBParams(-w2, 1, 3, 1), ics, 8, 5, "first")
    z2 = ics.x0 * ics.y1 / (2 + ics.x0 * ics.y1)
    _singular_at("B", SystemBParams(2, 1, -z2, 1), ics, 8, 5, "second")


@pytest.mark.parametrize(
    "system, params, ics",
    [
        (
            "A",
            SystemAParams(F(2, 3), F(-5, 7)),
            SystemAInitial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8)),
        ),
        (
            "B",
            SystemBParams(F(2, 3), F(-5, 7), F(3, 5), F(4, 9)),
            SystemBInitial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8), F(-3, 4), F(7, 6)),
        ),
    ],
)
def test_literal_map_deep_nonunit(system, params, ics):
    # non-integer parameters: values grow by about 0.55*n^2 bits
    assert _assert_literal(system, params, ics, 150).singular is None


if given is not None:
    # small values, often 0 and +-1, so that zero components and vanishing
    # denominators occur, mixed with long ones
    _values = st.one_of(
        st.sampled_from([F(0), F(1), F(-1), F(2), F(-1, 2)]),
        st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
        st.builds(F, st.integers(-(2**40), 2**40), st.integers(1, 2**40)),
    )

    @st.composite
    def _inputs(draw):
        system = draw(st.sampled_from("AB"))
        if system == "A":  # zero components allowed
            params = SystemAParams(*(draw(_values) for _ in "ab"))
            ics = SystemAInitial(*(draw(_values) for _ in range(4)))
        else:  # System B refuses zero initial components
            params = SystemBParams(*(draw(_values) for _ in "abcd"))
            ics = SystemBInitial(*(draw(_values.filter(bool)) for _ in range(6)))
        return system, params, ics, draw(st.integers(2, 14))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_inputs())
    def test_literal_map_on_draws(inputs):
        _assert_literal(*inputs)
