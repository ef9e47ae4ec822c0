"""Symbolic certificates (sympy): the module's own formulas run on free
symbols, with ``rat`` patched to the identity so that the exact-rational
boundary lets symbols through.

* the residual kernels equal the named factor times the residual with
  every coefficient free, so an integer kernel is zero exactly where the
  exact residual is, for every variant;
* the alternating and swapped characteristics annihilate the residuals of
  both systems at both parities, and the frozen control does not;
* the iteration denominators factor through the auxiliary sequences, as
  the docstring of ``sdeq.forbidden`` states, so a zero that the
  restriction scan finds is a singular step.
"""

from types import SimpleNamespace

import pytest

sympy = pytest.importorskip("sympy")

from sdeq import reduction, symmetry, systems  # noqa: E402


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
    for module in (symmetry, systems, reduction):
        monkeypatch.setattr(module, "rat", lambda value: value)


def _free_coefficients(ch, n_parity, shift, variant):
    return sympy.Symbol(f"q1_{shift}"), sympy.Symbol(f"q2_{shift}"), sympy.Symbol("K")


def test_kernel_a_is_named_multiple_of_residual(symbolic, monkeypatch):
    monkeypatch.setattr(symmetry, "_coefficients", _free_coefficients)
    a, b, u, u1, v, v1 = ratios = _ratios("a b u u1 v v1")
    params = SimpleNamespace(a=a, b=b)
    kernel = symmetry._residual_kernel_a(None, params, 0, (u, u1, v, v1))
    residual = symmetry.slsc_residual_a(None, params, 0, (u, u1, v, v1))
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
    kernel = symmetry._residual_kernel_b(None, params, 1, point)
    residual = symmetry.slsc_residual_b(None, params, 1, point)
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
    if system == "A":
        params = SimpleNamespace(**dict(zip("ab", _ratios("a b"))))
        point, residual = _ratios("u u1 v v1"), symmetry.slsc_residual_a
    else:
        params = SimpleNamespace(**dict(zip("abcd", _ratios("a b c d"))))
        point, residual = _ratios("x x1 x2 y y1 y2"), symmetry.slsc_residual_b
    for variant in ("alternating", "swapped"):
        assert [sympy.cancel(r) for r in residual(ch, params, parity, point, variant)] == [0, 0]
    frozen = residual(ch, params, parity, point, "frozen")
    assert all(sympy.cancel(r) != 0 for r in frozen)


def test_denominator_factorization_a(symbolic):
    # index 0 of an orbit with free initial values stands for any index n
    a, b, u0, u1, v0, v1 = sympy.symbols("a b u0 u1 v0 v1")
    params = systems.SystemAParams(a, b)
    orbit = systems.iterate_a(params, systems.SystemAInitial(u0, u1, v0, v1), 2)
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
    lin = reduction.linearize(reduction.invariants_b(systems.iterate_b(params, ics, 3)))
    S, T = lin.S, lin.T
    recursion = reduction.solve_linear_b(params, S[0], S[1], T[0], T[1], 2)
    assert sympy.cancel(S[2] - recursion.S[2]) == 0
    assert sympy.cancel(T[2] - recursion.T[2]) == 0
    assert sympy.cancel(a + b * x0 * y1 - T[2] / S[0]) == 0
    assert sympy.cancel(c + d * y0 * x1 - S[2] / T[0]) == 0
