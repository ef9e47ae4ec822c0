"""Symbolic certificates (sympy): the module's own formulas run on free
symbols, with ``rat`` patched to the identity so that the exact-rational
boundary lets symbols through.

* the residual of each system is the linearized symmetry condition of its
  one-step map, taken with ``sympy.diff`` from the iteration of
  ``tests/fraction_kernels.py``: with every coefficient free, and for the
  characteristics of both variants at both parities.  ``systems.iterate``
  runs on int pairs, which symbols are not; ``tests/test_pair_kernels.py``
  checks that it equals those Fraction kernels;
* each residual kernel is the residual times the factor the docstring of
  ``sdeq.symmetry`` names, so an integer kernel is zero exactly where the
  exact residual is, for every variant;
* the alternating characteristics annihilate the residuals of
  both systems at both parities, and the frozen control does not;
* both generators, the reciprocal and the alternating scaling, annihilate
  the invariant products w and z of both systems, and the frozen
  alternating scaling scales each by 2*C2;
* the iteration denominators factor through the auxiliary sequences, as
  the docstring of ``sdeq.forbidden`` states, so a zero that the
  restriction scan finds is a singular step;
* the invariants of an orbit follow the first-order map that
  ``orbit.carry`` runs, and a map with a and b swapped does not;
* at the pinned parameters of each pure-power case the auxiliary
  recursion returns to free seeds after the case's period, which is what
  lets ``sdeq.closed_form`` extend each residue class by one ratio;
* the closed-form tables of ``sdeq.reduction``, which every route of
  ``sdeq.closed_form`` reads, solve the linear recursion from their seeds,
  with g**m and the geometric sum as atoms; a table with one wrong
  coefficient fails the certificate.
"""

import random
from types import SimpleNamespace

import pytest

sympy = pytest.importorskip("sympy")

from fraction_kernels import iterate  # noqa: E402
from sdeq import closed_form, reduction, symmetry, systems  # noqa: E402
from sdeq.sampling import draw_rational  # noqa: E402


class Ratio(sympy.Symbol):
    """A free rational whose numerator and denominator are free symbols too."""

    @property
    def numerator(self):
        return sympy.Symbol(f"{self.name}_num")

    @property
    def denominator(self):
        return sympy.Symbol(f"{self.name}_den")


def _ratios(names: str):
    return [Ratio(name) for name in names.split()]


def _split(expr, ratios):
    """``expr`` with each free rational written as numerator/denominator."""
    return expr.subs({x: x.numerator / x.denominator for x in ratios})


@pytest.fixture
def symbolic(monkeypatch):
    for module in (symmetry, systems, reduction, closed_form):
        monkeypatch.setattr(module, "rat", lambda value: value)


def _free_coefficients(ch, n_parity, shift, variant):
    return sympy.Symbol(f"q1_{shift}"), sympy.Symbol(f"q2_{shift}"), sympy.Symbol("K")


# per system: the names of the parameters and of a point, the initial
# record of an orbit whose index 0 stands for any index n
_NAMES = {"A": ("a b", "u u1 v v1"), "B": ("a b c d", "x x1 x2 y y1 y2")}


def _symbolic_inputs(system):
    shape = systems.SHAPES[system]
    params, point = (_ratios(names) for names in _NAMES[system])
    return shape.params(*params), point, params + point


def _linearized_condition(system, params, point, coefficient):
    """Both residuals of the linearized symmetry condition of the one-step
    map that the iteration runs, for the characteristic whose component i
    (0 first, 1 second) at index n + k is coefficient(k)[i] times that
    component."""
    shape = systems.SHAPES[system]
    lag = shape.lag
    orbit = iterate(system, params, shape.initial(*point), lag + 1)
    components = shape.split(point)
    residuals = []
    for own, updated in enumerate((orbit.first[lag + 1], orbit.second[lag + 1])):
        residual = coefficient(lag + 1)[own] * updated
        for i, values in enumerate(components):
            for k, value in enumerate(values):
                residual -= coefficient(k)[i] * value * sympy.diff(updated, value)
        residuals.append(residual)
    return residuals


def _equal(residuals, expected, ratios) -> bool:
    return all(
        sympy.cancel(r - _split(e, ratios)) == 0 for r, e in zip(residuals, expected)
    )


@pytest.mark.parametrize("system", ["A", "B"])
def test_residual_is_linearized_condition_with_free_coefficients(symbolic, monkeypatch, system):
    monkeypatch.setattr(symmetry, "_coefficients", _free_coefficients)
    params, point, ratios = _symbolic_inputs(system)
    K = sympy.Symbol("K")
    expected = _linearized_condition(
        system, params, point, lambda k: (sympy.Symbol(f"q1_{k}") / K, sympy.Symbol(f"q2_{k}") / K)
    )
    assert _equal(symmetry.residual(system, None, params, 0, point), expected, ratios)


@pytest.mark.parametrize("system", ["A", "B"])
@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("variant", symmetry.VARIANTS)
def test_residual_is_linearized_condition(symbolic, system, parity, variant):
    params, point, ratios = _symbolic_inputs(system)
    C1, C2 = ratios_ch = _ratios("C1 C2")

    def coefficient(k):
        # Q1(n) = (C2*(-1)^n - C1)*first, Q2(n) = (C1 + C2*(-1)^n)*second
        sign = (-1) ** (parity + k) if variant == "alternating" else 1
        return sign * C2 - C1, C1 + sign * C2

    expected = _linearized_condition(system, params, point, coefficient)
    ch = SimpleNamespace(c1=C1, c2=C2)
    got = symmetry.residual(system, ch, params, parity, point, variant)
    assert _equal(got, expected, ratios + ratios_ch)


def test_kernel_a_is_named_multiple_of_residual(symbolic, monkeypatch):
    monkeypatch.setattr(symmetry, "_coefficients", _free_coefficients)
    a, b, u, u1, v, v1 = ratios = _ratios("a b u u1 v v1")
    params = SimpleNamespace(a=a, b=b)
    kernel = symmetry.residual_kernel("A", None, params, 0, (u, u1, v, v1))
    residual = symmetry.residual("A", None, params, 0, (u, u1, v, v1))
    K = sympy.Symbol("K")
    factors = (
        K * a.denominator * u.denominator**2 * v1.denominator * (a + u * v1) ** 2,
        K * b.denominator * v.denominator**2 * u1.denominator * (b + v * u1) ** 2,
    )
    for k, factor, r in zip(kernel, factors, residual):
        assert sympy.cancel(k - _split(factor * r, ratios)) == 0


def test_kernel_b_is_named_multiple_of_residual(symbolic, monkeypatch):
    monkeypatch.setattr(symmetry, "_coefficients", _free_coefficients)
    a, b, c, d, x, x1, x2, y, y1, y2 = ratios = _ratios("a b c d x x1 x2 y y1 y2")
    params = SimpleNamespace(a=a, b=b, c=c, d=d)
    point = (x, x1, x2, y, y1, y2)
    kernel = symmetry.residual_kernel("B", None, params, 1, point)
    residual = symmetry.residual("B", None, params, 1, point)
    K = sympy.Symbol("K")
    factors = (
        K * a.denominator * b.denominator * x.denominator**2 * y1.denominator**2
        * y2 * (a + b * x * y1) ** 2,
        K * c.denominator * d.denominator * y.denominator**2 * x1.denominator**2
        * x2 * (c + d * y * x1) ** 2,
    )
    for k, factor, r in zip(kernel, factors, residual):
        assert sympy.cancel(k - _split(factor * r, ratios)) == 0


@pytest.mark.parametrize("system", ["A", "B"])
@pytest.mark.parametrize("parity", [0, 1])
def test_slsc_identity(symbolic, system, parity):
    ch = SimpleNamespace(c1=Ratio("C1"), c2=Ratio("C2"))
    params, point, _ = _symbolic_inputs(system)
    alternating = symmetry.residual(system, ch, params, parity, point, "alternating")
    assert [sympy.cancel(r) for r in alternating] == [0, 0]
    frozen = symmetry.residual(system, ch, params, parity, point, "frozen")
    assert all(sympy.cancel(r) != 0 for r in frozen)


def _generated(system, ch, parity, variant):
    """The generator of characteristic ``ch`` applied to the invariant
    products w[n] = lead[n]*trail[n+1] and z[n] = trail[n]*lead[n+1] of
    ``system``, with the coefficients of ``symmetry._coefficients``:
    Q_i(n + k) * d/d component_i[n + k], summed over both components and
    k = 0, 1.  Returns ([X w, X z], [w, z])."""
    components = sympy.symbols("first0 first1"), sympy.symbols("second0 second1")
    coefficients = [symmetry._coefficients(ch, parity, k, variant) for k in (0, 1)]

    def generator(expr):
        return sum(
            sympy.S(c[i]) / c[2] * values[k] * sympy.diff(expr, values[k])
            for k, c in enumerate(coefficients)
            for i, values in enumerate(components)
        )

    lead, trail = systems.SHAPES[system].by_lead(*components)
    invariants = [lead[0] * trail[1], trail[0] * lead[1]]
    return [sympy.cancel(generator(w)) for w in invariants], invariants


_FAMILY = SimpleNamespace(c1=Ratio("C1"), c2=Ratio("C2"))


def test_generators_annihilate_the_invariants():
    # the reciprocal scaling (C1 = 1, C2 = 0), the alternating scaling
    # (C1 = 0, C2 = 1) and so every characteristic of the family
    for system in ("A", "B"):
        for parity in (0, 1):
            for ch in (symmetry.Characteristic(1, 0), symmetry.Characteristic(0, 1), _FAMILY):
                assert _generated(system, ch, parity, "alternating")[0] == [0, 0]


def test_frozen_variant_does_not_annihilate_the_invariants():
    # ignoring the alternation, the alternating scaling scales both
    # components alike, so it scales each invariant by 2*C2
    C2 = _FAMILY.c2.numerator / _FAMILY.c2.denominator
    for system in ("A", "B"):
        for parity in (0, 1):
            generated, invariants = _generated(system, _FAMILY, parity, "frozen")
            assert [sympy.cancel(x - 2 * C2 * w) for x, w in zip(generated, invariants)] == [0, 0]
    # and so at seeded characteristics wherever C2 != 0
    rng = random.Random(204)
    for _ in range(40):
        ch = symmetry.Characteristic(draw_rational(rng), draw_rational(rng))
        for parity in (0, 1):
            assert _generated("A", ch, parity, "alternating")[0] == [0, 0]
            frozen = _generated("A", ch, parity, "frozen")[0]
            assert all((x != 0) == (ch.c2 != 0) for x in frozen)


def test_denominator_factorization_a(symbolic):
    # index 0 of an orbit with free initial values stands for any index n
    a, b, u0, u1, v0, v1 = sympy.symbols("a b u0 u1 v0 v1")
    params = systems.SystemAParams(a, b)
    orbit = iterate("A", params, systems.SystemAInitial(u0, u1, v0, v1), 2)
    lin = reduction.linearize(reduction.invariants_a(orbit))
    S, T = lin.S, lin.T
    recursion = reduction.solve_linear_a(params, S[0], T[0], 1)
    assert sympy.cancel(S[1] - recursion.S[1]) == 0
    assert sympy.cancel(T[1] - recursion.T[1]) == 0
    assert sympy.cancel(a + u0 * v1 - S[1] / T[0]) == 0
    assert sympy.cancel(b + v0 * u1 - T[1] / S[0]) == 0


def test_denominator_factorization_b(symbolic):
    a, b, c, d, x0, x1, x2, y0, y1, y2 = sympy.symbols("a b c d x0 x1 x2 y0 y1 y2")
    params = systems.SystemBParams(a, b, c, d)
    ics = systems.SystemBInitial(x0, x1, x2, y0, y1, y2)
    lin = reduction.linearize(reduction.invariants_b(iterate("B", params, ics, 3)))
    S, T = lin.S, lin.T
    recursion = reduction.solve_linear_b(params, S[0], S[1], T[0], T[1], 2)
    assert sympy.cancel(S[2] - recursion.S[2]) == 0
    assert sympy.cancel(T[2] - recursion.T[2]) == 0
    assert sympy.cancel(a + b * x0 * y1 - T[2] / S[0]) == 0
    assert sympy.cancel(c + d * y0 * x1 - S[2] / T[0]) == 0


# per system: parameter and initial-value names, the lag and the invariant
# map (w, z)[n] -> (w, z)[n + lag] that ``orbit.carry`` runs
_INVARIANT_MAPS = {
    "A": ("a b", "u0 u1 v0 v1", 1, lambda p, w, z: (z / (p.a + z), w / (p.b + w))),
    "B": (
        "a b c d", "x0 x1 x2 y0 y1 y2", 2,
        lambda p, w, z: (z / (p.c + p.d * z), w / (p.a + p.b * w)),
    ),
}


@pytest.mark.parametrize("system", sorted(_INVARIANT_MAPS))
def test_invariant_map(symbolic, system):
    # index 0 of an orbit with free initial values stands for any index n
    names, ic_names, lag, invariant_map = _INVARIANT_MAPS[system]
    params = getattr(systems, f"System{system}Params")(*sympy.symbols(names))
    ics = getattr(systems, f"System{system}Initial")(*sympy.symbols(ic_names))
    orbit = iterate(system, params, ics, lag + 1)
    inv = getattr(reduction, f"invariants_{system.lower()}")(orbit)

    def residuals(p):
        w, z = invariant_map(p, inv.w[0], inv.z[0])
        return [sympy.cancel(inv.w[lag] - w), sympy.cancel(inv.z[lag] - z)]

    assert residuals(params) == [0, 0]
    swapped = SimpleNamespace(**{**params._asdict(), "a": params.b, "b": params.a})
    assert residuals(swapped) != [0, 0]


@pytest.mark.parametrize(
    "system, tag", [("A", "NegNeg"), ("A", "Aeq1Bneg1"), ("A", "Beq1Aneg1"), ("B", "UnitBD")]
)
def test_pure_power_recursion_is_periodic(symbolic, system, tag):
    case = closed_form.CASES[system][tag]
    period = case.period
    if system == "A":
        S0, T0 = sympy.symbols("S0 T0")
        lin = reduction.solve_linear_a(case.fixed, S0, T0, period)
        returned = [lin.S[period] - S0, lin.T[period] - T0]
    else:
        S0, S1, T0, T1 = sympy.symbols("S0 S1 T0 T1")
        lin = reduction.solve_linear_b(case.fixed, S0, S1, T0, T1, period + 1)
        returned = [
            lin.S[period] - S0, lin.S[period + 1] - S1,
            lin.T[period] - T0, lin.T[period + 1] - T1,
        ]
    assert period > 0
    assert [sympy.expand(r) for r in returned] == [0] * len(returned)


# closed-form tables: entry m*w + k is x_k*G + y_k*H with G = g**m and
# H = sum_{i<m} g**i.  G and H are free atoms that advance as G' = g*G,
# H' = 1 + g*H from block m to block m + 1.  They are tied by
# G + (1 - g)*H = 1, which holds at m = 0 (G = 1, H = 0) and which the
# advance preserves (test_geometric_atoms_stay_tied); an identity is
# certified for every m once it holds with G eliminated through the tie.

G, H = sympy.symbols("G H")


def test_geometric_atoms_stay_tied():
    g = sympy.Symbol("g")
    tie = G + (1 - g) * H - 1
    advanced = tie.subs({G: g * G, H: 1 + g * H}, simultaneous=True)
    assert sympy.expand(advanced - g * tie) == 0


def _two_blocks(g, classes):
    """Entries of blocks m and m + 1 of one sequence, in index order."""
    block = [x * G + y * H for x, y in classes]
    return block + [v.subs({G: g * G, H: 1 + g * H}, simultaneous=True) for v in block]


def _vanish(residuals) -> bool:
    return all(sympy.cancel(r) == 0 for r in residuals)


def _nonzero_somewhere(residuals) -> bool:
    """True when some residual is nonzero at one rational point off its
    poles, which shows it is not identically zero far more cheaply than
    cancelling it."""
    symbols = sorted(set().union(*(r.free_symbols for r in residuals)), key=str)
    point = {x: sympy.Rational(3 + 2 * i, 7 + 5 * i) for i, x in enumerate(symbols)}
    values = [r.xreplace(point) for r in residuals]
    return any(value.is_finite and value != 0 for value in values)


def _perturbed(table):
    """Every copy of a table with one coefficient increased by one."""
    g, *sequences = table
    for side, classes in enumerate(sequences):
        for k, pair in enumerate(classes):
            for slot in range(2):
                wrong = list(pair)
                wrong[slot] += 1
                changed = list(sequences)
                changed[side] = classes[:k] + (tuple(wrong),) + classes[k + 1:]
                yield (g, *changed)


def _table_residuals(system, table, params, seeds):
    """A closed-form table against the linear recursion over one block and
    its crossing into the next, and its first block against the seeds."""
    g, s_classes, t_classes = table
    S, T = _two_blocks(g, s_classes), _two_blocks(g, t_classes)
    if system == "A":
        lag, (cs, ds), (ct, dt) = 1, (params.a, 1), (params.b, 1)
    else:
        lag, (cs, ds), (ct, dt) = 2, (params.c, params.d), (params.a, params.b)
    width = len(s_classes)
    residuals = [S[j + lag] - (cs * T[j] + ds) for j in range(width)]
    residuals += [T[j + lag] - (ct * S[j] + dt) for j in range(width)]
    residuals = [r.subs(G, 1 - (1 - g) * H) for r in residuals]
    starts = [v.subs({G: 1, H: 0}) for v in S[:lag] + T[:lag]]
    return residuals + [start - seed for start, seed in zip(starts, seeds)]


@pytest.mark.parametrize("system", ["A", "B"])
def test_closed_table_solves_linear_recursion(symbolic, system):
    names, seed_names = ("ab", "S0 T0") if system == "A" else ("abcd", "S0 S1 T0 T1")
    params = SimpleNamespace(**dict(zip(names, sympy.symbols(" ".join(names)))))
    seeds = sympy.symbols(seed_names)
    table = closed_form._closed_table(system, params, seeds)
    assert _vanish(_table_residuals(system, table, params, seeds))
    for wrong in _perturbed(table):
        assert _nonzero_somewhere(_table_residuals(system, wrong, params, seeds))
