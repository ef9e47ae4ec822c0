"""Verification of the scaling symmetries of both systems.

The systems admit the two-parameter family of point characteristics

    Q1(n, first)  = (C2*(-1)^n - C1) * first,
    Q2(n, second) = (C1 + C2*(-1)^n) * second,

whose generators are the reciprocal scaling (first -> first/lam,
second -> lam*second) and the alternating scaling (both components ->
lam^((-1)^n)).  This module is a verifier, not a derivation engine: it
evaluates the linearized symmetry condition residuals exactly at supplied
rational points (zero residual at independently random points certifies
the identity at desk scale), checks that the invariant products are
annihilated, and applies the finite group actions to whole trajectories.

The infinitesimal parameter is never exponentiated; the finite group
parameter lam is a nonzero rational, so the group orbit stays inside exact
arithmetic.  ``variant`` selects deliberately broken characteristics for
negative controls: "frozen" ignores the parity alternation, "swapped"
exchanges the component weights.
"""

from __future__ import annotations

from fractions import Fraction

from .rational import ONE, alternating_sign, rat
from .systems import SystemAParams, SystemBParams, Trajectory, _Exact, _Record

VARIANTS = ("alternating", "frozen", "swapped")


class Characteristic(_Exact):
    c1: Fraction
    c2: Fraction


class GroupAction(_Record):
    generator: str  # "X1" (reciprocal scaling) | "X2" (alternating scaling)
    scale: Fraction

    def _coerce(self, values):
        generator, scale = values
        if generator not in ("X1", "X2"):
            raise ValueError(f"unknown generator {generator!r}")
        scale = rat(scale)
        if scale == 0:
            raise ValueError("group scale must be nonzero")
        return generator, scale


def _coefficients(ch: Characteristic, n_parity: int, shift: int, variant: str):
    """Coefficient pair (for Q1, Q2) at index n + shift."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    sign = ONE if variant == "frozen" else alternating_sign(n_parity + shift)
    coeff_1 = ch.c2 * sign - ch.c1
    coeff_2 = ch.c1 + ch.c2 * sign
    if variant == "swapped":
        return coeff_2, coeff_1
    return coeff_1, coeff_2


def slsc_residual_a(
    ch: Characteristic,
    params: SystemAParams,
    n_parity: int,
    point: tuple[Fraction, Fraction, Fraction, Fraction],
    variant: str = "alternating",
) -> tuple[Fraction, Fraction]:
    """Both linearized-symmetry-condition residuals for System A.

    ``point`` is (u_n, u_{n+1}, v_n, v_{n+1}).  For the alternating
    characteristic family (any C1, C2) the residuals are identically
    (0, 0) at every admissible point.
    """
    u_n, u_n1, v_n, v_n1 = (rat(value) for value in point)
    a, b = params.a, params.b
    den_u = a + u_n * v_n1
    den_v = b + v_n * u_n1
    if den_u == 0 or den_v == 0:
        raise ValueError("zero denominator at sample point")
    omega_1 = u_n / den_u
    omega_2 = v_n / den_v
    q1_0, q2_0 = _coefficients(ch, n_parity, 0, variant)
    q1_1, q2_1 = _coefficients(ch, n_parity, 1, variant)
    q1_2, q2_2 = _coefficients(ch, n_parity, 2, variant)
    r1 = q1_2 * omega_1 - a * (q1_0 * u_n) / den_u**2 + u_n**2 * (q2_1 * v_n1) / den_u**2
    r2 = q2_2 * omega_2 - b * (q2_0 * v_n) / den_v**2 + v_n**2 * (q1_1 * u_n1) / den_v**2
    return r1, r2


def slsc_residual_b(
    ch: Characteristic,
    params: SystemBParams,
    n_parity: int,
    point: tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction],
    variant: str = "alternating",
) -> tuple[Fraction, Fraction]:
    """System B analogue; ``point`` is (x_n, x_{n+1}, x_{n+2}, y_n, y_{n+1}, y_{n+2})."""
    x_n, x_n1, x_n2, y_n, y_n1, y_n2 = (rat(value) for value in point)
    a, b, c, d = params.a, params.b, params.c, params.d
    den_x = a + b * x_n * y_n1
    den_y = c + d * y_n * x_n1
    if den_x == 0 or den_y == 0 or x_n2 == 0 or y_n2 == 0:
        raise ValueError("zero denominator at sample point")
    omega_1 = x_n * y_n1 / (y_n2 * den_x)
    omega_2 = y_n * x_n1 / (x_n2 * den_y)
    q1_0, q2_0 = _coefficients(ch, n_parity, 0, variant)
    q1_1, q2_1 = _coefficients(ch, n_parity, 1, variant)
    q1_2, q2_2 = _coefficients(ch, n_parity, 2, variant)
    q1_3, q2_3 = _coefficients(ch, n_parity, 3, variant)
    # exact partials of omega_1 in its three live arguments
    r1 = q1_3 * omega_1 - (
        (q1_0 * x_n) * a * y_n1 / (y_n2 * den_x**2)
        + (q2_1 * y_n1) * a * x_n / (y_n2 * den_x**2)
        - (q2_2 * y_n2) * x_n * y_n1 / (y_n2**2 * den_x)
    )
    r2 = q2_3 * omega_2 - (
        (q2_0 * y_n) * c * x_n1 / (x_n2 * den_y**2)
        + (q1_1 * x_n1) * c * y_n / (x_n2 * den_y**2)
        - (q1_2 * x_n2) * y_n * x_n1 / (x_n2**2 * den_y)
    )
    return r1, r2


def invariant_annihilation(
    ch: Characteristic,
    which: str,
    n_parity: int,
    point: tuple[Fraction, Fraction],
    variant: str = "alternating",
) -> Fraction:
    """Apply the generator to one invariant product at a point.

    For "w" the point is (second_n, first_{n+1}) and the value is
    Q2(n)*first_{n+1} + Q1(n+1)*second_n; for "z" the point is
    (first_n, second_{n+1}) with the mirrored expression.  Exactly zero
    for every characteristic in the alternating family.
    """
    lead, trail = (rat(value) for value in point)
    q1_0, q2_0 = _coefficients(ch, n_parity, 0, variant)
    q1_1, q2_1 = _coefficients(ch, n_parity, 1, variant)
    if which == "w":
        return (q2_0 * lead) * trail + (q1_1 * trail) * lead
    if which == "z":
        return (q1_0 * lead) * trail + (q2_1 * trail) * lead
    raise ValueError(f"unknown invariant {which!r}")


def group_transform(action: GroupAction, trajectory: Trajectory) -> Trajectory:
    """Apply a finite symmetry transformation to a whole trajectory.

    X1 with scale lam sends (first, second) to (first/lam, lam*second);
    X2 scales both components by lam^((-1)^n), using the labeled index n.
    Either action maps exact solutions to exact solutions and leaves the
    invariant products unchanged.
    """
    if trajectory.singular is not None:
        raise ValueError("group transform requires a non-singular trajectory")
    lam = action.scale
    if action.generator == "X1":
        first = tuple(value / lam for value in trajectory.first)
        second = tuple(value * lam for value in trajectory.second)
    else:
        factors = [
            lam if alternating_sign(trajectory.label_of(i)) == 1 else 1 / lam
            for i in range(len(trajectory))
        ]
        first = tuple(value * f for value, f in zip(trajectory.first, factors))
        second = tuple(value * f for value, f in zip(trajectory.second, factors))
    return Trajectory(trajectory.labels, first, second, None, trajectory.origin)
