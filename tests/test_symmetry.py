import random
from fractions import Fraction as F

import pytest

from sdeq.reduction import invariants_a, invariants_b
from sdeq.sampling import draw_admissible_a, draw_admissible_b, draw_nonzero, draw_rational
from sdeq.symmetry import (
    Characteristic,
    GroupAction,
    group_transform,
    residual,
    residual_kernel,
    slsc_residual_a,
    slsc_residual_b,
)
from sdeq.systems import (
    SHAPES,
    SystemAInitial,
    SystemAParams,
    SystemBInitial,
    SystemBParams,
    iterate_a,
    iterate_b,
)


def test_dataclass_validation():
    with pytest.raises(ValueError):
        GroupAction("X3", 2)
    with pytest.raises(ValueError):
        GroupAction("X1", 0)


def test_residual_a_examples():
    assert slsc_residual_a(Characteristic(1, 0), SystemAParams(1, 1), 0, (1, 2, 3, 4)) == (0, 0)
    assert slsc_residual_a(Characteristic(0, 0), SystemAParams(2, 3), 1, (5, 6, 7, 8)) == (0, 0)


def test_residual_a_frozen_negative_control():
    # ignoring the parity alternation breaks the identity whenever the
    # alternating weight is present
    r1, r2 = slsc_residual_a(
        Characteristic(0, 1), SystemAParams(1, 1), 0, (1, 1, 1, 1), variant="frozen"
    )
    assert (r1, r2) == (F(1, 2), F(1, 2))


def test_residual_a_identity_by_sampling():
    rng = random.Random(202)
    for _ in range(50):
        ch = Characteristic(draw_rational(rng), draw_rational(rng))
        params = SystemAParams(draw_rational(rng), draw_rational(rng))
        for parity in (0, 1):
            point = None
            while point is None:
                candidate = tuple(draw_nonzero(rng) for _ in range(4))
                if (
                    params.a + candidate[0] * candidate[3] != 0
                    and params.b + candidate[2] * candidate[1] != 0
                ):
                    point = candidate
            assert slsc_residual_a(ch, params, parity, point) == (0, 0)


def test_residual_a_zero_denominator_rejected():
    with pytest.raises(ValueError):
        slsc_residual_a(Characteristic(1, 1), SystemAParams(1, 1), 0, (1, 2, 3, -1))


@pytest.mark.parametrize("system, other", [("A", "B"), ("B", "A")])
def test_residual_rejects_point_of_other_system(system, other):
    # a point of the wrong length is refused, not cut into components
    params = SHAPES[system].params(*(1 for _ in SHAPES[system].params._fields))
    point = tuple(range(1, len(SHAPES[other].initial._fields) + 1))
    for function in (residual, residual_kernel):
        with pytest.raises(ValueError, match=f"System {system} point has"):
            function(system, Characteristic(1, 2), params, 0, point)


def test_residual_rejects_an_unknown_variant():
    params = SystemAParams(1, 1)
    for function in (residual, residual_kernel):
        with pytest.raises(ValueError, match="unknown variant 'nope'"):
            function("A", Characteristic(1, 2), params, 0, (1, 2, 3, 4), variant="nope")


def test_residual_b_examples():
    params = SystemBParams(1, 1, 1, 1)
    assert slsc_residual_b(Characteristic(1, 0), params, 0, (1, 1, 1, 1, 1, 1)) == (0, 0)
    assert slsc_residual_b(Characteristic(0, 0), params, 1, (1, 2, 3, 4, 5, 6)) == (0, 0)


def test_residual_b_frozen_negative_control():
    r1, r2 = slsc_residual_b(
        Characteristic(0, 1),
        SystemBParams(1, 1, 1, 1),
        0,
        (1, 2, 3, 4, 5, 6),
        variant="frozen",
    )
    assert (r1, r2) == (F(25, 108), F(128, 243))


def test_residual_b_identity_by_sampling():
    rng = random.Random(203)
    for _ in range(40):
        ch = Characteristic(draw_rational(rng), draw_rational(rng))
        params = SystemBParams(*(draw_rational(rng) for _ in range(4)))
        for parity in (0, 1):
            point = None
            attempts = 0
            while point is None and attempts < 100:
                attempts += 1
                candidate = tuple(draw_nonzero(rng) for _ in range(6))
                if (
                    params.a + params.b * candidate[0] * candidate[4] != 0
                    and params.c + params.d * candidate[3] * candidate[1] != 0
                ):
                    point = candidate
            if point is None:
                continue  # degenerate parameters (e.g. a = b = 0)
            assert slsc_residual_b(ch, params, parity, point) == (0, 0)


def test_group_transform_x1():
    t = iterate_a(SystemAParams(1, 1), SystemAInitial(1, 1, 1, 1), 4)
    transformed = group_transform(GroupAction("X1", 2), t)
    assert list(transformed.first) == [F(1, 2), F(1, 2), F(1, 4), F(1, 3), F(3, 16)]
    assert list(transformed.second) == [2, 2, 1, F(4, 3), F(3, 4)]
    rebuilt = iterate_a(
        SystemAParams(1, 1),
        SystemAInitial(F(1, 2), F(1, 2), 2, 2),
        4,
    )
    assert rebuilt.first == transformed.first
    assert rebuilt.second == transformed.second


def test_group_transform_identity_and_inverse():
    t = iterate_a(SystemAParams(2, 3), SystemAInitial(1, 2, 3, 4), 6)
    assert group_transform(GroupAction("X1", 1), t) == t
    assert group_transform(GroupAction("X2", 1), t) == t
    once = group_transform(GroupAction("X2", 3), t)
    back = group_transform(GroupAction("X2", F(1, 3)), once)
    assert back == t


def test_group_transform_rejects_singular():
    t = iterate_a(SystemAParams(1, 1), SystemAInitial(1, 5, 7, -1), 2)
    with pytest.raises(ValueError):
        group_transform(GroupAction("X1", 2), t)


def _transformed_ics_a(ics, generator, lam):
    if generator == "X1":
        return SystemAInitial(ics.u0 / lam, ics.u1 / lam, ics.v0 * lam, ics.v1 * lam)
    return SystemAInitial(ics.u0 * lam, ics.u1 / lam, ics.v0 * lam, ics.v1 / lam)


def _transformed_ics_b(ics, generator, lam):
    if generator == "X1":
        return SystemBInitial(
            ics.x0 / lam, ics.x1 / lam, ics.x2 / lam,
            ics.y0 * lam, ics.y1 * lam, ics.y2 * lam,
        )
    return SystemBInitial(
        ics.x0 * lam, ics.x1 / lam, ics.x2 * lam,
        ics.y0 * lam, ics.y1 / lam, ics.y2 * lam,
    )


def test_equivariance_and_invariance_a():
    rng = random.Random(205)
    for _ in range(25):
        params, ics = draw_admissible_a(rng, 20)
        lam = draw_nonzero(rng)
        t = iterate_a(params, ics, 20)
        for generator in ("X1", "X2"):
            action = GroupAction(generator, lam)
            transformed = group_transform(action, t)
            direct = iterate_a(params, _transformed_ics_a(ics, generator, lam), 20)
            assert direct.singular is None
            assert direct.first == transformed.first
            assert direct.second == transformed.second
            assert invariants_a(transformed) == invariants_a(t)


def test_equivariance_and_invariance_b():
    rng = random.Random(206)
    for _ in range(15):
        params, ics = draw_admissible_b(rng, 16)
        lam = draw_nonzero(rng)
        t = iterate_b(params, ics, 16)
        for generator in ("X1", "X2"):
            action = GroupAction(generator, lam)
            transformed = group_transform(action, t)
            direct = iterate_b(params, _transformed_ics_b(ics, generator, lam), 16)
            assert direct.singular is None
            assert direct.first == transformed.first
            assert direct.second == transformed.second
            assert invariants_b(transformed) == invariants_b(t)
