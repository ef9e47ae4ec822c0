import random
from fractions import Fraction as F

import pytest

import fraction_kernels
from fraction_kernels import singular_steps
from sdeq.forbidden import check_forbidden, check_forbidden_a, check_forbidden_b
from sdeq.orbit import carry
from sdeq.sampling import draw_ics, draw_params, draw_rational
from sdeq.systems import (
    SystemAInitial,
    SystemAParams,
    SystemBInitial,
    SystemBParams,
    ZeroInitialError,
    iterate_a,
    iterate_b,
)

ONES_A = SystemAInitial(1, 1, 1, 1)
ONES_B = SystemBInitial(1, 1, 1, 1, 1, 1)


def test_check_a_clean():
    report = check_forbidden_a(SystemAParams(1, 1), ONES_A, 30)
    assert report.clean
    assert report.predicted_singular_step is None


def test_check_a_violation_example():
    # u0*v1 = -1/2 makes T[2] = T[0] + 2 = 0, so iteration must lose the
    # second component at step 3
    params = SystemAParams(1, 1)
    ics = SystemAInitial(1, 1, 1, F(-1, 2))
    report = check_forbidden_a(params, ics, 5)
    assert any(v.restriction_id == "T_even" and v.r == 1 for v in report.violated)
    assert report.predicted_singular_step == 3
    trajectory = iterate_a(params, ics, 10)
    assert trajectory.singular is not None
    assert trajectory.singular.step == 3
    assert trajectory.singular.component == "second"


def test_check_a_inadmissible_flag():
    report = check_forbidden_a(SystemAParams(1, 1), SystemAInitial(1, 1, 1, 0), 5)
    assert report.closed_form_inadmissible
    assert any(v.restriction_id == "z0_zero" for v in report.violated)
    assert report.predicted_singular_step is None
    # and iteration stays perfectly regular on this input
    assert iterate_a(SystemAParams(1, 1), SystemAInitial(1, 1, 1, 0), 20).singular is None


def test_check_b_clean_and_1127():
    assert check_forbidden_b(SystemBParams(1, 1, 1, 1), ONES_B, 20).clean
    report = check_forbidden_b(
        SystemBParams(1, 1, 1, 1), SystemBInitial(0, 1, 1, 1, 1, 1), 5
    )
    assert report.closed_form_inadmissible
    assert any(v.restriction_id == "w0_zero" for v in report.violated)


def test_check_b_violation_example():
    # 1/(x0*y1) = -2 hits the first restriction family at r = 1
    params = SystemBParams(1, 1, 1, 1)
    ics = SystemBInitial(1, 1, 1, 1, F(-1, 2), 1)
    report = check_forbidden_b(params, ics, 5)
    assert any(v.restriction_id == "S_mod4_0" and v.r == 1 for v in report.violated)
    assert report.predicted_singular_step == 5
    trajectory = iterate_b(params, ics, 10)
    assert trajectory.singular is not None
    assert trajectory.singular.step == 5
    assert trajectory.singular.component == "second"


def test_monotonic_in_horizon():
    params = SystemAParams(1, 1)
    ics = SystemAInitial(1, 1, 1, F(-1, 2))
    small = {(v.restriction_id, v.r) for v in check_forbidden_a(params, ics, 2).violated}
    large = {(v.restriction_id, v.r) for v in check_forbidden_a(params, ics, 8).violated}
    assert small <= large
    with pytest.raises(ValueError):
        check_forbidden_a(params, ics, -1)


# The test_predict_vs_observe_* tests compare the first singular step that
# the restrictions predict with the one that iteration observes
# (fraction_kernels.singular_steps).


def test_predict_vs_observe_examples():
    assert singular_steps("A", SystemAParams(1, 1), ONES_A, 50) == (None, None)
    assert singular_steps("A", SystemAParams(1, 1), SystemAInitial(1, 1, 1, F(-1, 2)), 10) == (3, 3)
    # b + v0*u1 = -1 + 1 = 0 forces step 2
    assert singular_steps("A", SystemAParams(1, -1), ONES_A, 5) == (2, 2)


@pytest.mark.parametrize(
    "system, params, ics, n_max, error, text",
    [
        ("A", SystemAParams(1, 1), ONES_A, 0, ValueError, "n_max must be >= 1 for System A"),
        ("B", SystemBParams(1, 1, 1, 1), ONES_B, 1, ValueError, "n_max must be >= 2 for System B"),
        (
            "B", SystemBParams(1, 1, 1, 1), SystemBInitial(0, 1, 1, 1, 1, 1), 8,
            ZeroInitialError, "System B initial components must all be nonzero",
        ),
        ("C", SystemAParams(1, 1), ONES_A, 8, KeyError, "'C'"),
    ],
)
def test_predict_vs_observe_refusals(system, params, ics, n_max, error, text):
    with pytest.raises(error) as raised:
        singular_steps(system, params, ics, n_max)
    assert str(raised.value) == text


def test_predict_vs_observe_inadmissible_regular():
    # zero seed product: no restriction-based prediction exists, and both
    # the invariant map and iteration stay regular
    ics = SystemAInitial(1, 1, 1, 0)
    assert check_forbidden_a(SystemAParams(1, 1), ics, 5).closed_form_inadmissible
    assert singular_steps("A", SystemAParams(1, 1), ics, 12) == (None, None)


@pytest.mark.parametrize(
    "params, ics, wrong",
    [
        (SystemAParams(1, 1), SystemAInitial(1, 1, 1, 0), 5),  # regular, z0 = 0
        (SystemAParams(1, -1), SystemAInitial(0, 1, 1, 1), None),  # singular at 2, z0 = 0
    ],
)
def test_predict_vs_observe_zero_product_sides_are_independent(monkeypatch, params, ics, wrong):
    # a zero seed product is predicted by the invariant map and observed by
    # iteration; a wrong map step must show as a mismatch, so iteration
    # cannot be reading the prediction's own steps
    predicted, observed = singular_steps("A", params, ics, 12)
    assert predicted == observed != wrong
    monkeypatch.setattr(fraction_kernels, "invariant_map_step", lambda *args: wrong)
    assert singular_steps("A", params, ics, 12) == (wrong, observed)


def _singular_agreements(rng, system: str, draws: int, n_max: int) -> int:
    """How many of ``draws`` sampled inputs turn singular by n_max, each
    predicted at the step iteration observes."""
    singular = 0
    for _ in range(draws):
        params, ics = draw_params(rng, system), draw_ics(rng, system)
        predicted, observed = singular_steps(system, params, ics, n_max)
        assert predicted == observed, (params, ics)
        singular += observed is not None
    return singular


def test_predict_vs_observe_soundness_sample():
    rng = random.Random(301)
    # the suite actually exercises singular orbits
    assert _singular_agreements(rng, "A", 400, 30) > 0
    assert _singular_agreements(rng, "B", 300, 25) > 0


def test_predict_vs_observe_zero_initials():
    # zero components are allowed: a zero seed product leaves the
    # restrictions silent, and the prediction comes from the invariant map
    rng = random.Random(302)
    zero_seen = singular_with_zero = 0
    for _ in range(20_000):
        params = SystemAParams(draw_rational(rng), draw_rational(rng))
        ics = SystemAInitial(*(draw_rational(rng) for _ in range(4)))
        predicted, observed = singular_steps("A", params, ics, 12)
        assert predicted == observed, (params, ics)
        if 0 in (ics.u0, ics.u1, ics.v0, ics.v1):
            zero_seen += 1
            singular_with_zero += observed is not None
    assert zero_seen > 1000 and singular_with_zero > 100


def test_predict_vs_observe_validation():
    # an unknown system is refused by both sides, an index under the lag
    # by the carry
    with pytest.raises(KeyError):
        carry("C", SystemAParams(1, 1), ONES_A, 5)
    with pytest.raises(KeyError):
        check_forbidden("C", SystemAParams(1, 1), ONES_A, 5)
    with pytest.raises(ValueError):
        carry("A", SystemAParams(1, 1), ONES_A, 0)
