import random
from fractions import Fraction as F

import pytest

from sdeq import forbidden
from sdeq.forbidden import (
    check_forbidden_a,
    check_forbidden_b,
    predict_vs_observe,
)
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


def test_predict_vs_observe_examples():
    verdict = predict_vs_observe("A", SystemAParams(1, 1), ONES_A, 50)
    assert verdict.kind == "agree-regular"
    verdict = predict_vs_observe(
        "A", SystemAParams(1, 1), SystemAInitial(1, 1, 1, F(-1, 2)), 10
    )
    assert verdict.kind == "agree-singular" and verdict.step == 3
    # b + v0*u1 = -1 + 1 = 0 forces step 2
    verdict = predict_vs_observe("A", SystemAParams(1, -1), ONES_A, 5)
    assert verdict.kind == "agree-singular" and verdict.step == 2


@pytest.mark.parametrize(
    "system, params, ics, n_max, error, text",
    [
        ("A", SystemAParams(1, 1), ONES_A, 0, ValueError, "n_max must be >= 1 for System A"),
        ("B", SystemBParams(1, 1, 1, 1), ONES_B, 1, ValueError, "n_max must be >= 2 for System B"),
        (
            "B", SystemBParams(1, 1, 1, 1), SystemBInitial(0, 1, 1, 1, 1, 1), 8,
            ZeroInitialError, "System B initial components must all be nonzero",
        ),
        ("C", SystemAParams(1, 1), ONES_A, 8, ValueError, "unknown system 'C'"),
    ],
)
def test_predict_vs_observe_refusals(system, params, ics, n_max, error, text):
    with pytest.raises(error) as raised:
        predict_vs_observe(system, params, ics, n_max)
    assert str(raised.value) == text


def test_predict_vs_observe_inadmissible_regular():
    # zero seed product: no restriction-based prediction exists, iteration
    # stays regular, so the verdict is agreement on regularity
    verdict = predict_vs_observe("A", SystemAParams(1, 1), SystemAInitial(1, 1, 1, 0), 12)
    assert verdict.kind == "agree-regular"


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
    verdict = predict_vs_observe("A", params, ics, 12)
    assert verdict.kind != "mismatch"
    observed = verdict.step
    monkeypatch.setattr(forbidden, "_invariant_map_step", lambda *args: wrong)
    verdict = predict_vs_observe("A", params, ics, 12)
    assert verdict.kind == "mismatch"
    assert (verdict.details["predicted"], verdict.details["observed"]) == (wrong, observed)


def test_predict_vs_observe_soundness_sample():
    rng = random.Random(301)
    singular_seen = 0
    for _ in range(400):
        params = draw_params(rng, "A")
        ics = draw_ics(rng, "A")
        verdict = predict_vs_observe("A", params, ics, 30)
        assert verdict.kind != "mismatch", verdict.details
        if verdict.kind == "agree-singular":
            singular_seen += 1
    assert singular_seen > 0  # the suite actually exercises singular orbits
    singular_seen = 0
    for _ in range(300):
        params = draw_params(rng, "B")
        ics = draw_ics(rng, "B")
        verdict = predict_vs_observe("B", params, ics, 25)
        assert verdict.kind != "mismatch", verdict.details
        if verdict.kind == "agree-singular":
            singular_seen += 1
    assert singular_seen > 0


def test_predict_vs_observe_zero_initials():
    # zero components are allowed: a zero seed product leaves the
    # restrictions silent, and the prediction comes from the invariant map
    rng = random.Random(302)
    zero_seen = singular_with_zero = 0
    for _ in range(20_000):
        params = SystemAParams(draw_rational(rng), draw_rational(rng))
        ics = SystemAInitial(*(draw_rational(rng) for _ in range(4)))
        verdict = predict_vs_observe("A", params, ics, 12)
        assert verdict.kind != "mismatch", verdict.details
        if 0 in (ics.u0, ics.u1, ics.v0, ics.v1):
            zero_seen += 1
            singular_with_zero += verdict.kind == "agree-singular"
    assert zero_seen > 1000 and singular_with_zero > 100


def test_predict_vs_observe_validation():
    with pytest.raises(ValueError):
        predict_vs_observe("C", SystemAParams(1, 1), ONES_A, 5)
    with pytest.raises(ValueError):
        predict_vs_observe("A", SystemAParams(1, 1), ONES_A, 0)
