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

Only whether a residual is zero matters to a check, so the residual
kernels (``_residual_kernel_a/b``) return each residual multiplied by a
named factor that is nonzero at every admissible point, as an integer
polynomial in the numerators and denominators of the inputs: the same
formula with the denominators cleared, so no ``Fraction`` is normalized
on the way.  The symbolic certificate in the tests expands kernel minus
factor times residual to 0 with every coefficient free, so a kernel is
zero exactly where its residual is, for every variant.

The infinitesimal parameter is never exponentiated; the finite group
parameter lam is a nonzero rational, so the group orbit stays inside exact
arithmetic.  ``variant`` selects deliberately broken characteristics for
negative controls: "frozen" ignores the parity alternation, "swapped"
exchanges the component weights.
"""

from __future__ import annotations

from fractions import Fraction

from .rational import alternating_sign, rat
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
    """Coefficient pair (for Q1, Q2) at index n + shift, as integer
    numerators, and their common denominator ch.c1.den * ch.c2.den."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    c1 = ch.c1.numerator * ch.c2.denominator
    c2 = ch.c2.numerator * ch.c1.denominator
    if variant != "frozen" and (n_parity + shift) % 2:
        c2 = -c2
    coeff_1 = c2 - c1
    coeff_2 = c1 + c2
    if variant == "swapped":
        coeff_1, coeff_2 = coeff_2, coeff_1
    return coeff_1, coeff_2, ch.c1.denominator * ch.c2.denominator


def _coefficient_values(ch: Characteristic, n_parity: int, shift: int, variant: str):
    """The coefficient pair of _coefficients as rationals."""
    coeff_1, coeff_2, den = _coefficients(ch, n_parity, shift, variant)
    return rat(coeff_1) / den, rat(coeff_2) / den


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
    q1_0, q2_0 = _coefficient_values(ch, n_parity, 0, variant)
    q1_1, q2_1 = _coefficient_values(ch, n_parity, 1, variant)
    q1_2, q2_2 = _coefficient_values(ch, n_parity, 2, variant)
    r1 = q1_2 * omega_1 - a * (q1_0 * u_n) / den_u**2 + u_n**2 * (q2_1 * v_n1) / den_u**2
    r2 = q2_2 * omega_2 - b * (q2_0 * v_n) / den_v**2 + v_n**2 * (q1_1 * u_n1) / den_v**2
    return r1, r2


def _residual_kernel_a(ch, params, n_parity, point, variant="alternating") -> tuple[int, int]:
    """slsc_residual_a with the denominators cleared, as two ints.

    Writing x = x_num/x_den for every input and K for the coefficients'
    common denominator, the first int is r1 * K * a_den * u_den^2 *
    v1_den * (a + u*v1)^2 and the second r2 * K * b_den * v_den^2 *
    u1_den * (b + v*u1)^2, with (u, u1, v, v1) = ``point``.
    """
    un, ud, u1n, u1d, vn, vd, v1n, v1d = _parts(point)
    an, ad, bn, bd = _parts((params.a, params.b))
    den_u = an * ud * v1d + ad * un * v1n  # (a + u*v1) * a_den * u_den * v1_den
    den_v = bn * vd * u1d + bd * vn * u1n
    if den_u == 0 or den_v == 0:
        raise ValueError("zero denominator at sample point")
    q1_0, q2_0, _ = _coefficients(ch, n_parity, 0, variant)
    q1_1, q2_1, _ = _coefficients(ch, n_parity, 1, variant)
    q1_2, q2_2, _ = _coefficients(ch, n_parity, 2, variant)
    r1 = q1_2 * un * den_u - an * q1_0 * un * ud * v1d + ad * un**2 * q2_1 * v1n
    r2 = q2_2 * vn * den_v - bn * q2_0 * vn * vd * u1d + bd * vn**2 * q1_1 * u1n
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
    q1_0, q2_0 = _coefficient_values(ch, n_parity, 0, variant)
    q1_1, q2_1 = _coefficient_values(ch, n_parity, 1, variant)
    q1_2, q2_2 = _coefficient_values(ch, n_parity, 2, variant)
    q1_3, q2_3 = _coefficient_values(ch, n_parity, 3, variant)
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


def _residual_kernel_b(ch, params, n_parity, point, variant="alternating") -> tuple[int, int]:
    """slsc_residual_b with the denominators cleared, as two ints.

    In the notation of _residual_kernel_a, with (x, x1, x2, y, y1, y2) =
    ``point``, the first int is r1 * K * a_den * b_den * x_den^2 *
    y1_den^2 * y2 * (a + b*x*y1)^2 and the second r2 * K * c_den * d_den *
    y_den^2 * x1_den^2 * x2 * (c + d*y*x1)^2.
    """
    xn, xd, x1n, x1d, x2n, _, yn, yd, y1n, y1d, y2n, _ = _parts(point)
    an, ad, bn, bd, cn, cd, dn, dd = _parts((params.a, params.b, params.c, params.d))
    den_x = an * bd * xd * y1d + ad * bn * xn * y1n  # (a + b*x*y1) * a_den * b_den * x_den * y1_den
    den_y = cn * dd * yd * x1d + cd * dn * yn * x1n
    if den_x == 0 or den_y == 0 or x2n == 0 or y2n == 0:
        raise ValueError("zero denominator at sample point")
    q1_0, q2_0, _ = _coefficients(ch, n_parity, 0, variant)
    q1_1, q2_1, _ = _coefficients(ch, n_parity, 1, variant)
    q1_2, q2_2, _ = _coefficients(ch, n_parity, 2, variant)
    q1_3, q2_3, _ = _coefficients(ch, n_parity, 3, variant)
    r1 = xn * y1n * (
        q1_3 * den_x - an * bd * xd * y1d * q1_0 - an * bd * xd * y1d * q2_1 + q2_2 * den_x
    )
    r2 = yn * x1n * (
        q2_3 * den_y - cn * dd * yd * x1d * q2_0 - cn * dd * yd * x1d * q1_1 + q1_2 * den_y
    )
    return r1, r2


def _parts(values) -> list:
    """Numerator and denominator of each value, flattened in order."""
    parts = []
    for value in values:
        value = rat(value)
        parts += (value.numerator, value.denominator)
    return parts


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
    q1_0, q2_0 = _coefficient_values(ch, n_parity, 0, variant)
    q1_1, q2_1 = _coefficient_values(ch, n_parity, 1, variant)
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
