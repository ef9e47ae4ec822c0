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

Both systems update each component X (Y is the other one) by the shape
that ``systems.SHAPES`` records, with (alpha, beta) the rule pair of X's
update, (p, q) for the trailing component and (r, s) for the leading one:

    X[n+lag+1] = P / (Y[n+lag] * (alpha + beta*P)),    P = X[n]*Y[n+1];

for lag = 1, P/Y[n+lag] is X[n], as in System A.  With c_X(k), c_Y(k) the
characteristic's coefficients at index n + k, the linearized symmetry
condition leaves one residual per component of either system:

    R_X = ((c_X(lag+1) + c_Y(lag))*(alpha + beta*P) - (c_X(0) + c_Y(1))*alpha)
          * P / (Y[n+lag] * (alpha + beta*P)**2).

Only whether a residual is zero matters to a check, so ``residual_kernel``
returns R_X times the named factor K*s*d*(alpha + beta*P)**2, nonzero at
every admissible point: K is the coefficients' common denominator,
s = alpha_den*beta_den*X[n]_den*Y[n+1]_den, and d = X[n]_den for lag = 1,
else X[n]_den*Y[n+1]_den*Y[n+lag].  The product is an integer polynomial
in the inputs' numerators and denominators, so no ``Fraction`` is
normalized on the way; ``residual`` divides it by the factor.  The tests
certify symbolically that the residual is the linearized condition of
the map ``systems.iterate`` runs, and that the factor is this one.

The infinitesimal parameter is never exponentiated; the finite group
parameter lam is a nonzero rational, so the group orbit stays inside exact
arithmetic.  ``variant`` "frozen" ignores the parity alternation: a
deliberately broken characteristic for negative controls.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .rational import alternating_sign, rat
from .systems import SHAPES, Trajectory, _Exact, _Record, system_aliases

VARIANTS = ("alternating", "frozen")


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
    return c2 - c1, c1 + c2, ch.c1.denominator * ch.c2.denominator


@cache
def _layout(shape) -> tuple:
    """Per component X, first then second, with Y the other component: the
    point positions of X[n], Y[n+1] and Y[n+lag] (None when lag = 1, where
    Y[n+lag] is Y[n+1]) and the index of X's update pair in
    shape.rule(params), 0 for the trailing component."""
    first, second = shape.split(range(len(shape.initial._fields)))
    _, trail = shape.by_lead(first, second)
    return tuple(
        (x[0], y[1], y[shape.lag] if shape.lag > 1 else None, 0 if x == trail else 1)
        for x, y in ((first, second), (second, first))
    )


def _updates(system: str, params, point):
    """Per component, first then second, the integers of its residual:
    (share, base, den, s, d_num, d_den), or None where a denominator of the
    residual vanishes.

    ``den`` is (alpha + beta*P)*s and ``base`` is alpha*s, with s of the
    named factor.  ``share`` is the numerator the kernel uses of
    P/Y[n+lag], and d = d_num/d_den its denominator, as in the factor.
    """
    shape = SHAPES[system]
    fields = shape.initial._fields
    if len(point) != len(fields):
        raise ValueError(f"a System {system} point has {len(fields)} values, not {len(point)}")
    parts = [(value.numerator, value.denominator) for value in map(rat, point)]
    pairs = shape.rule(params)
    updates = []
    for x, y1, y_lag, pair in _layout(shape):
        (xn, xd), (y1n, y1d) = parts[x], parts[y1]
        alpha, beta = pairs[pair]
        s = alpha.denominator * beta.denominator * xd * y1d
        base = alpha.numerator * beta.denominator * xd * y1d
        den = base + alpha.denominator * beta.numerator * xn * y1n
        if y_lag is None:
            share, d_num, d_den = xn, xd, 1
        else:
            (d_num, d_den), share = parts[y_lag], xn * y1n
            d_num *= xd * y1d
        if den == 0 or d_num == 0:
            return None
        updates.append((share, base, den, s, d_num, d_den))
    return updates


def defined_at(system: str, params, point) -> bool:
    """Whether both residuals of ``system`` are defined at ``point``: no
    update denominator p + q*z[n], r + s*w[n] and no Y[n+lag] vanishes."""
    return _updates(system, params, point) is not None


def _kernels(system, ch, params, n_parity, point, variant):
    """(kernels, _updates, K) of both residuals."""
    updates = _updates(system, params, point)
    if updates is None:
        raise ValueError("zero denominator at sample point")
    lag = SHAPES[system].lag
    c = [_coefficients(ch, n_parity, shift, variant) for shift in range(lag + 2)]
    # per component X: c_X(lag+1) + c_Y(lag) and c_X(0) + c_Y(1)
    late = (c[lag + 1][0] + c[lag][1], c[lag + 1][1] + c[lag][0])
    early = (c[0][0] + c[1][1], c[0][1] + c[1][0])
    kernels = tuple(
        [
            (late[x] * den - early[x] * base) * share
            for x, (share, base, den, *_) in enumerate(updates)
        ]
    )
    return kernels, updates, c[0][2]


def residual_kernel(system: str, ch, params, n_parity, point, variant="alternating"):
    """Both residuals of ``system`` times their named factors, as two ints."""
    return _kernels(system, ch, params, n_parity, point, variant)[0]


def residual(system: str, ch, params, n_parity, point, variant="alternating"):
    """Both linearized-symmetry-condition residuals of ``system`` at
    ``point``, an initial-value tuple such as (u_n, u_{n+1}, v_n, v_{n+1}):
    each kernel divided by its named factor.  For the alternating
    characteristic family (any C1, C2) they are identically (0, 0) at every
    admissible point."""
    kernels, updates, K = _kernels(system, ch, params, n_parity, point, variant)
    return tuple(
        rat(kernel * s * d_den) / (K * d_num * den**2)
        for kernel, (_, _, den, s, d_num, d_den) in zip(kernels, updates)
    )


slsc_residual_a, slsc_residual_b = system_aliases("slsc_residual_{}", residual)


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
    for every characteristic in the alternating family.  "w" and "z"
    follow System A's naming (w[n] = v[n]*u[n+1]), so this "w" is the z
    of System B in ``reduction.invariants``, and this "z" its w.
    """
    lead, trail = (rat(value) for value in point)
    c = _coefficients(ch, n_parity, 0, variant), _coefficients(ch, n_parity, 1, variant)
    if which not in ("w", "z"):
        raise ValueError(f"unknown invariant {which!r}")
    own = 1 if which == "w" else 0  # the slot of the point's first factor
    return rat(c[0][own] + c[1][1 - own]) / c[0][2] * lead * trail


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
