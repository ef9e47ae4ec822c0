"""Verification of the scaling symmetries of both systems.

The systems admit the two-parameter family of point characteristics

    Q1(n, first)  = (C2*(-1)^n - C1) * first,
    Q2(n, second) = (C1 + C2*(-1)^n) * second,

whose generators are the reciprocal scaling (first -> first/lam,
second -> lam*second) and the alternating scaling (both components ->
lam^((-1)^n)).  This module is a verifier, not a derivation engine: it
evaluates the linearized symmetry condition residuals exactly at supplied
rational points (zero residual at independently random points certifies
the identity at desk scale) and applies the finite group actions to whole
trajectories.  That both generators annihilate the invariant products is
certified symbolically by the tests.

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

One integer core, ``_terms``, computes the integers of both kernels from
(numerator, denominator) pairs, and ``defined_at``, ``residual_kernel``
and ``residual`` all read it.  ``check`` is the loop of symmetry-check:
``sampler`` draws each point as int pairs (``sampling.draw_pairs``), one
evaluation of ``_terms`` serves both the point's admissibility test and
its kernel, and the coefficient sums are formed once per characteristic
and parity.  The ``symmetry-check`` subcommand runs it
(``_run_symmetry_check``).

The infinitesimal parameter is never exponentiated; the finite group
parameter lam is a nonzero rational, so the group orbit stays inside exact
arithmetic.  ``variant`` "frozen" ignores the parity alternation: a
deliberately broken characteristic for negative controls.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from types import SimpleNamespace

from .rational import _Literals, format_rational, format_sequence, rat
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
    """(components, constants).  Per component X, first then second, with
    Y the other component: the point positions of X[n], Y[n+1] and
    Y[n+lag] (None when lag = 1, where Y[n+lag] is Y[n+1]), then the
    positions of X's update pair (alpha, beta) among the parameters
    followed by ``constants``: the (numerator, denominator) pairs of the
    numbers that shape.rule(params) holds as they are, such as System A's
    1s."""
    first, second = shape.split(range(len(shape.initial._fields)))
    _, trail = shape.by_lead(first, second)
    names = shape.params._fields
    # the rule of a record whose fields hold their own names
    rule = shape.rule(SimpleNamespace(**{name: name for name in names}))
    numbers = [entry for pair in rule for entry in pair if not isinstance(entry, str)]

    def position(entry) -> int:
        return names.index(entry) if isinstance(entry, str) else len(names) + numbers.index(entry)

    components = tuple(
        (x[0], y[1], y[shape.lag] if shape.lag > 1 else None,
         *map(position, rule[0 if x == trail else 1]))
        for x, y in ((first, second), (second, first))
    )
    return components, tuple((number.numerator, number.denominator) for number in numbers)


def _terms(components, values, point):
    """Per component, first then second, the integers of its residual:
    (share, base, den, s, d_num, d_den), or None where a denominator of the
    residual vanishes.  ``values`` (the parameters, then the rule's
    constants) and ``point`` hold (numerator, denominator) pairs.

    ``den`` is (alpha + beta*P)*s and ``base`` is alpha*s, with s of the
    named factor.  ``share`` is the numerator the kernel uses of
    P/Y[n+lag], and d = d_num/d_den its denominator, as in the factor.
    """
    terms = []
    for x, y1, y_lag, alpha, beta in components:
        (xn, xd), (y1n, y1d) = point[x], point[y1]
        (an, ad), (bn, bd) = values[alpha], values[beta]
        s = ad * bd * xd * y1d
        base = an * bd * xd * y1d
        den = base + ad * bn * xn * y1n
        if y_lag is None:
            share, d_num, d_den = xn, xd, 1
        else:
            (d_num, d_den), share = point[y_lag], xn * y1n
            d_num *= xd * y1d
        if den == 0 or d_num == 0:
            return None
        terms.append((share, base, den, s, d_num, d_den))
    return terms


def _point_terms(system: str, params, point):
    """_terms of ``system`` at a params record and a point of rationals."""
    shape = SHAPES[system]
    fields = shape.initial._fields
    if len(point) != len(fields):
        raise ValueError(f"a System {system} point has {len(fields)} values, not {len(point)}")
    components, constants = _layout(shape)
    point = [(value.numerator, value.denominator) for value in map(rat, point)]
    return _terms(components, [*_parameter_pairs(shape, params), *constants], point)


def _parameter_pairs(shape, params) -> tuple:
    values = (getattr(params, name) for name in shape.params._fields)
    return tuple((value.numerator, value.denominator) for value in values)


def defined_at(system: str, params, point) -> bool:
    """Whether both residuals of ``system`` are defined at ``point``: no
    update denominator p + q*z[n], r + s*w[n] and no Y[n+lag] vanishes."""
    return _point_terms(system, params, point) is not None


def _sums(ch, n_parity, variant, lag) -> tuple:
    """(late, early, K): per component X the coefficient sums
    c_X(lag+1) + c_Y(lag) and c_X(0) + c_Y(1), and their common
    denominator, with ``_coefficients`` looked up at call time."""
    c = [_coefficients(ch, n_parity, shift, variant) for shift in range(lag + 2)]
    late = (c[lag + 1][0] + c[lag][1], c[lag + 1][1] + c[lag][0])
    early = (c[0][0] + c[1][1], c[0][1] + c[1][0])
    return late, early, c[0][2]


def _kernel(terms, late, early) -> tuple:
    """Both kernels, from their terms and the coefficient sums of _sums."""
    (share0, base0, den0, *_), (share1, base1, den1, *_) = terms
    return (
        (late[0] * den0 - early[0] * base0) * share0,
        (late[1] * den1 - early[1] * base1) * share1,
    )


def _residuals(kernels, terms, K) -> tuple:
    """Each kernel divided by its named factor."""
    return tuple(
        rat(kernel * s * d_den) / (K * d_num * den**2)
        for kernel, (_, _, den, s, d_num, d_den) in zip(kernels, terms)
    )


def _kernels(system, ch, params, n_parity, point, variant):
    """(kernels, _point_terms, K) of both residuals."""
    terms = _point_terms(system, params, point)
    if terms is None:
        raise ValueError("zero denominator at sample point")
    late, early, K = _sums(ch, n_parity, variant, SHAPES[system].lag)
    return _kernel(terms, late, early), terms, K


def residual_kernel(system: str, ch, params, n_parity, point, variant="alternating"):
    """Both residuals of ``system`` times their named factors, as two ints."""
    return _kernels(system, ch, params, n_parity, point, variant)[0]


def residual(system: str, ch, params, n_parity, point, variant="alternating"):
    """Both linearized-symmetry-condition residuals of ``system`` at
    ``point``, an initial-value tuple such as (u_n, u_{n+1}, v_n, v_{n+1}):
    each kernel divided by its named factor.  For the alternating
    characteristic family (any C1, C2) they are identically (0, 0) at every
    admissible point."""
    return _residuals(*_kernels(system, ch, params, n_parity, point, variant))


def sampler(system: str, params=None):
    """A draw of ``system``'s residual inputs from a random.Random: it
    returns (params, point, terms), the parameters (drawn unless ``params``
    fixes them) and the point as (numerator, denominator) pairs, with every
    coordinate nonzero, and the point's ``_terms``.  Parameters are redrawn
    with the point unless fixed, until both residuals are defined; fixed
    parameters may admit no point at all (e.g. a = b = 0 for System B), in
    which case the retry cap trips."""
    from .sampling import RETRY_CAP, RetryCapError, draw_pairs

    shape = SHAPES[system]
    components, constants = _layout(shape)
    n_params, n_point = len(shape.params._fields), len(shape.initial._fields)
    fixed = None if params is None else _parameter_pairs(shape, params)

    def draw(rng):
        for _ in range(RETRY_CAP):
            values = fixed or draw_pairs(rng, n_params)
            point = draw_pairs(rng, n_point, nonzero=True)
            terms = _terms(components, [*values, *constants], point)
            if terms is not None:
                return values, point, terms
        raise RetryCapError("no admissible sample points for the given parameters")

    return draw


def check(system: str, rng, characteristics, samples: int, params=None) -> list:
    """The residual identity of ``system`` at ``samples`` points per
    characteristic and parity, drawn in turn by ``sampler(system,
    params)``: (ch, parity, point, residuals) of every point whose kernel
    is not (0, 0), in draw order.  Each point's terms serve its
    admissibility test and its kernel; the exact residual is built only
    for such a point."""
    draw = sampler(system, params)
    lag = SHAPES[system].lag
    nonzero = []
    for ch in characteristics:
        for parity in (0, 1):
            late, early, K = _sums(ch, parity, "alternating", lag)
            for _ in range(samples):
                _, point, terms = draw(rng)
                kernels = _kernel(terms, late, early)
                if kernels != (0, 0):
                    point = tuple(Fraction(*pair) for pair in point)
                    nonzero.append((ch, parity, point, _residuals(kernels, terms, K)))
    return nonzero


def _run_symmetry_check(config) -> tuple:
    """The ``symmetry-check`` subcommand: ``check`` of the characteristic
    --c1, --c2, or of --pairs drawn ones; it passes where every residual
    is zero."""
    import random

    from .sampling import draw_rational

    rng = random.Random(config.seed)
    if config.c1 is not None:
        characteristics = [Characteristic(config.c1, config.c2)]
    else:
        characteristics = [
            Characteristic(draw_rational(rng), draw_rational(rng)) for _ in range(config.pairs)
        ]
    nonzero = [
        {
            "c1": format_rational(ch.c1),
            "c2": format_rational(ch.c2),
            "parity": parity,
            "point": _Literals(format_sequence(point)),
            "residuals": _Literals(format_sequence(residuals)),
        }
        for ch, parity, point, residuals in check(
            config.system, rng, characteristics, config.samples, config.params
        )
    ]
    return not nonzero, {
        "command": "symmetry-check",
        "system": config.system,
        "pairs": len(characteristics),
        "samples_per_parity": config.samples,
        "seed": config.seed,
        "checked": 2 * config.samples * len(characteristics),
        "all_zero": not nonzero,
        "nonzero_residuals": nonzero,
    }


slsc_residual_a, slsc_residual_b = system_aliases("slsc_residual_{}", residual)


def group_transform(action: GroupAction, trajectory: Trajectory) -> Trajectory:
    """Apply a finite symmetry transformation to a whole trajectory.

    X1 with scale lam sends (first, second) to (first/lam, lam*second);
    X2 scales both components by lam^((-1)^n) at index n.
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
        factors = [1 / lam if i % 2 else lam for i in range(len(trajectory))]
        first = tuple(value * f for value, f in zip(trajectory.first, factors))
        second = tuple(value * f for value, f in zip(trajectory.second, factors))
    return Trajectory(trajectory.labels, first, second)
