import random
from fractions import Fraction as F

import pytest

from fraction_kernels import fractions
from sdeq import closed_form, forbidden, orbit, printing, reduction, symmetry, systems
from sdeq.rational import format_rational
from sdeq.sampling import draw_admissible_a, draw_admissible_b, draw_params
from sdeq.systems import (
    SHAPES,
    Singularity,
    SystemAInitial,
    SystemAParams,
    SystemBInitial,
    SystemBParams,
    SystemShape,
    Trajectory,
    ZeroInitialError,
    iterate,
    iterate_a,
    iterate_b,
)

try:
    from hypothesis import example, given, settings
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
    carried = orbit.carry(system, params, ics, n_max)
    lead, trail = SHAPES[system].by_lead(expected.first, expected.second)
    assert fractions(carried.w) == [lead[n] * trail[n + 1] for n in range(len(lead) - 1)]
    assert fractions(carried.z) == [trail[n] * lead[n + 1] for n in range(len(lead) - 1)]
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

    @st.composite
    def _case_inputs(draw):
        """_inputs with a case tag of the system: drawn parameters for
        Product, else the tag's fixed or pinned ones (sampling.draw_params)."""
        system, params, ics, _ = draw(_inputs())
        tag = draw(st.sampled_from(sorted(closed_form.CASES[system])))
        if tag != "Product":
            params = draw_params(random.Random(draw(st.integers(0, 2**32))), system, tag)
        return system, tag, params, ics, draw(st.integers(2, 30))

    def _assert_built_with(values, divisors) -> None:
        """One divisor per entry from index 2 on, and entry[i-2] ==
        entry[i]*divisors[i-2] for i >= 2."""
        assert len(divisors) == len(values) - 2
        steps = fractions(divisors)
        assert all(values[i - 2] == values[i] * steps[i - 2] for i in range(2, len(values)))

    def _assert_printed_with(built, k: int) -> None:
        """Component k of ``built`` is built with its divisors, and its
        literals, printed from them, are its entries printed one by one."""
        values = built.entries(k)
        _assert_built_with(values, built.divisors[k])
        literals = printing.format_telescoping(built.starts[k], built.divisors[k], built.last)
        assert literals == [format_rational(v) for v in values]

    _LONG_A = SystemAInitial(F(3**25, 2**39 + 1), F(-(2**40) + 7, 9), F(4, 9), F(5, 8))
    _LONG_B = SystemBInitial(F(3, 5), F(-(2**40) + 7, 9), F(4, 9), F(5, 8), F(-3, 4), F(3**25, 7))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_case_inputs())
    # every pure-power tag, extended past its assembled entries, on long values
    @example(("A", "NegNeg", SystemAParams(-1, -1), _LONG_A, 30))
    @example(("A", "Aeq1Bneg1", SystemAParams(1, -1), _LONG_A, 30))
    @example(("A", "Beq1Aneg1", SystemAParams(-1, 1), _LONG_A, 30))
    @example(("B", "UnitBD", SystemBParams(1, 1, -1, 1), _LONG_B, 30))
    # u1 = 0 zeroes every other entry of u
    @example(("A", "Product", SystemAParams(F(2, 3), F(-5, 7)), SystemAInitial(3, 0, 4, 5), 30))
    def test_every_list_is_built_by_the_kernel_with_its_divisors(inputs):
        # the orbit, the case sweep, both routes and the reconstruction are
        # each built by orbit.Telescoping.entries, and the divisors their
        # literals are printed from are the ones it divided by
        system, tag, params, ics, n = inputs
        built = {}  # id -> every list the kernel built, checked as it returns
        real = orbit.Telescoping.entries

        def kernel(self, k):
            values = real(self, k)
            _assert_built_with(values, self.divisors[k])
            built[id(values)] = values
            return values

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(orbit.Telescoping, "entries", kernel)
            carried, iterated = orbit.orbit_telescoping(system, params, ics, n)
            trajectory = [iterated.entries(k) for k in (0, 1)]
            for k in (0, 1):
                _assert_printed_with(iterated, k)
            try:
                sweep = closed_form.case_telescoping(system, tag, params, ics, n)
                routes = closed_form.route_telescopings(system, tag, params, ics, n)
            except closed_form.ForbiddenInputError:
                pass
            else:
                period = closed_form.CASES[system][tag].period
                for k, divisors in enumerate(sweep.divisors):
                    _assert_printed_with(sweep, k)
                    # a pure-power sweep's list repeats its first P entries
                    if period:
                        assert all(d is divisors[j % period] for j, d in enumerate(divisors))
                assert routes.keys() == {"product", tag}
                lists = [route.entries(k) for route in routes.values() for k in (0, 1)]
                assert all(id(values) in built for values in lists)
            before = len(built)
            try:
                invariants = map(fractions, (carried.w, carried.z))
                lin = reduction.linearize(reduction.InvariantSeq(*invariants))
                starts = (values[0] for values in SHAPES[system].split(ics._astuple()))
                rebuilt = reduction.reconstruct(system, lin, *starts)
            except (reduction.ZeroInvariantError, reduction.ZeroDivisorError):
                pass
            else:
                assert len(built) == before + 2
                assert [list(rebuilt.first), list(rebuilt.second)] == trajectory


# ---------------------------------------------------------------------------
# shapes nobody wrote code for: members of the family
#
#     X[n+lag+1] = P/(Y[n+lag]*(alpha + beta*P)),  P = X[n]*Y[n+1]
#
# (for lag 1, X[n]/(alpha + beta*P)), registered in SHAPES for a test only.
# Every layer must carry them from the shape record alone.


def _family_step(lag, alpha, beta, x, y1, y_lag):
    """One update of the family as written: (numerator, denominator)."""
    product = x * y1
    if lag == 1:
        return x, alpha + beta * product
    return product, y_lag * (alpha + beta * product)


def _family_map(shape, params, ics, n_max):
    """The family's map as written, for any lag, from the shape's lag, lead
    and rule alone: (first, second, (step, component) or None).  The
    trailing component updates with the rule pair (p, q), the leading one
    with (r, s)."""
    lag = shape.lag
    first, second = (list(values) for values in shape.split(ics._astuple()))
    (p, q), (r, s) = shape.rule(params)
    pairs = ((r, s), (p, q)) if shape.lead == "first" else ((p, q), (r, s))
    for n in range(n_max - lag):
        new = []
        for k, (x, y) in enumerate(((first, second), (second, first))):
            numerator, denominator = _family_step(lag, *pairs[k], x[n], y[n + 1], y[n + lag])
            if denominator == 0:
                return first, second, (n + lag + 1, ("first", "second")[k])
            new.append(numerator / denominator)
        first.append(new[0])
        second.append(new[1])
    return first, second, None


class _Dual:
    """value + slope*eps with eps**2 = 0: a derivative along one direction."""

    def __init__(self, value, slope=0):
        self.value, self.slope = value, slope

    def __add__(self, other):
        other = other if isinstance(other, _Dual) else _Dual(other)
        return _Dual(self.value + other.value, self.slope + other.slope)

    __radd__ = __add__

    def __mul__(self, other):
        other = other if isinstance(other, _Dual) else _Dual(other)
        return _Dual(self.value * other.value, self.value * other.slope + self.slope * other.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        value = self.value / other.value
        return _Dual(value, (self.slope - value * other.slope) / other.value)


def _family_residual(shape, ch, params, n_parity, point, variant):
    """The linearized symmetry condition of the map as written at
    ``point``, per component X: c_X(lag+1)*F - dF, with dF the derivative
    of X's update F along (c_X(0)*X[n], c_Y(1)*Y[n+1], c_Y(lag)*Y[n+lag])."""
    lag = shape.lag
    (p, q), (r, s) = shape.rule(params)
    pairs = ((r, s), (p, q)) if shape.lead == "first" else ((p, q), (r, s))

    def coefficients(k):  # (first's, second's) coefficient at index n + k
        sign = 1 if variant == "frozen" else (-1) ** (n_parity + k)
        return ch.c2 * sign - ch.c1, ch.c1 + ch.c2 * sign

    first, second = shape.split(tuple(point))
    residuals = []
    for k, (x, y) in enumerate(((first, second), (second, first))):
        direction = [_Dual(x[0], coefficients(0)[k] * x[0])]
        direction += [_Dual(y[i], coefficients(i)[1 - k] * y[i]) for i in (1, lag)]
        numerator, denominator = _family_step(lag, *pairs[k], *direction)
        update = numerator / denominator
        residuals.append(coefficients(lag + 1)[k] * update.value - update.slope)
    return tuple(residuals)


def _lag_shape(lag: int, lead: str) -> SystemShape:
    initial = type(
        f"Lag{lag}Initial",
        (systems._Exact,),
        {"__annotations__": {f"{c}{k}": F for c in "xy" for k in range(lag + 1)}},
    )
    return SystemShape(
        SystemBParams,
        initial,
        lag,
        lead,
        lambda p: ((p.c, p.d), (p.a, p.b)) if lead == "first" else ((p.a, p.b), (p.c, p.d)),
        ("y{2}*(a + b*x{0}*y{1}) = 0", "x{2}*(c + d*y{0}*x{1}) = 0"),
    )


_POOL = [F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3), F(-1, 3)]


def _family_draws(shape, count: int, seed: int, pool=_POOL):
    """(params, ics, n): small values, so that denominators vanish often."""
    rng = random.Random(seed)
    for _ in range(count):
        params = shape.params(*(rng.choice(_POOL) for _ in shape.params._fields))
        ics = shape.initial(*(rng.choice(pool) for _ in shape.initial._fields))
        yield params, ics, rng.randint(shape.lag, 16)


def test_family_map_is_the_literal_map_at_lags_1_and_2():
    for system, pool in (("A", [F(0), *_POOL]), ("B", _POOL)):
        shape = SHAPES[system]
        singular = 0
        for params, ics, n in _family_draws(shape, 300, 1, pool):
            literal = _literal_map(system, params, ics, n)
            first, second, stop = _family_map(shape, params, ics, n)
            assert (tuple(first), tuple(second)) == (literal.first, literal.second)
            sing = literal.singular
            assert stop == (sing and (sing.step, sing.component))
            singular += stop is not None
        assert singular > 20


def _agrees(system: str, truth: SystemShape, params, ics, n: int) -> bool:
    """Whether the layers, carrying ``system`` as registered in SHAPES,
    agree with the map of ``truth`` as written: the orbit and its singular
    step, the reduction, the product route, the forbidden-set prediction
    and both symmetry residuals."""
    first, second, stop = _family_map(truth, params, ics, n)
    trajectory = iterate(system, params, ics, n)
    singular = trajectory.singular and (trajectory.singular.step, trajectory.singular.component)
    if (trajectory.first, trajectory.second, singular) != (tuple(first), tuple(second), stop):
        return False
    lead, trail = truth.by_lead(first, second)
    carried = orbit.carry(system, params, ics, n)
    invariants = map(fractions, (carried.w, carried.z))
    lin = reduction.linearize(reduction.InvariantSeq(*invariants))
    if lin.S != tuple(1 / (lead[k] * trail[k + 1]) for k in range(len(lead) - 1)):
        return False
    if lin.T != tuple(1 / (trail[k] * lead[k + 1]) for k in range(len(lead) - 1)):
        return False
    try:
        sweep = closed_form.case_sweep(system, "Product", params, ics, n)
    except closed_form.ForbiddenInputError as error:
        if stop is None or error.index != stop[0]:
            return False
    else:
        if stop is not None or sweep != (first, second):
            return False
    period = SHAPES[system].period
    predicted = forbidden.check_forbidden(system, params, ics, (n - 1) // period)
    step = predicted.predicted_singular_step
    if (step if step is not None and step <= n else None) != (stop and stop[0]):
        return False
    point, ch = ics._astuple(), symmetry.Characteristic(F(2, 3), F(-5, 7))
    for parity in (0, 1):
        for variant in symmetry.VARIANTS:
            try:
                expected = _family_residual(truth, ch, params, parity, point, variant)
            except ZeroDivisionError:
                expected = None
            actual = None
            if symmetry.defined_at(system, params, point):
                actual = symmetry.residual(system, ch, params, parity, point, variant)
            if actual != expected:
                return False
    return True


@pytest.mark.parametrize("lag, lead", [(3, "first"), (4, "second")])
def test_shapes_nobody_wrote_code_for(monkeypatch, lag, lead):
    truth = _lag_shape(lag, lead)
    system = f"L{lag}"
    monkeypatch.setitem(SHAPES, system, truth)
    monkeypatch.setitem(closed_form.CASES, system, {"Product": closed_form.Case(lambda p: True)})
    draws = list(_family_draws(truth, 150, lag))
    singular = 0
    for params, ics, n in draws:
        assert _agrees(system, truth, params, ics, n)
        singular += _family_map(truth, params, ics, n)[2] is not None
    assert singular > 10
    # x updates with (a, b) in both shapes, so a + b*x0*y1 = 0 stops the
    # first step, named by the shape's template
    params = SystemBParams(1, -1, 1, 1)
    ones = truth.initial(*[1] * len(truth.initial._fields))
    expected = Singularity(lag + 1, "first", f"y{lag}*(a + b*x0*y1) = 0")
    assert iterate(system, params, ones, lag + 1).singular == expected
    with pytest.raises(ZeroInitialError, match=f"System {system} initial components"):
        iterate(system, params, truth.initial(*[0] * len(truth.initial._fields)), lag + 1)
    # control: the same shape with its rule's pairs swapped disagrees
    swapped = SystemShape(*truth._astuple()[:4], lambda p: truth.rule(p)[::-1], truth.denominators)
    monkeypatch.setitem(SHAPES, system, swapped)
    failed = sum(not _agrees(system, truth, *draw) for draw in draws)
    assert failed > len(draws) // 2
