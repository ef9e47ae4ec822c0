"""Invariant-based order reduction and the linear auxiliary sequences.

A system's record in ``systems.SHAPES`` states its whole reduction: along
an orbit the invariant products w[n] = lead[n]*trail[n+1] and
z[n] = trail[n]*lead[n+1] satisfy a first-order map whose reciprocals
S = 1/w, T = 1/z are linear, S[n+lag] = p*T[n] + q and
T[n+lag] = r*S[n] + s (System A: S[n+1] = a*T[n] + 1, T[n+1] = b*S[n] + 1;
System B: two interleaved strands).  One recursion, one closed-form table
split by residue mod 2*lag and one reconstruction, which runs the
reduction backwards (trail[n+1] = 1/(S[n]*lead[n]),
lead[n+1] = 1/(T[n]*trail[n])), serve both systems; the ``_a``/``_b``
functions are thin wrappers.  ``geometric_sweep`` evaluates a whole sweep
of a table from carried integer powers; every route of
``sdeq.closed_form`` reads that sweep.
"""

from __future__ import annotations

from fractions import Fraction

from .rational import geometric_sum, rat
from .systems import SHAPES, SystemAParams, SystemBParams, Trajectory, _Record


class InvariantSeq(_Record):
    w: tuple[Fraction, ...]
    z: tuple[Fraction, ...]


class LinearSeq(_Record):
    S: tuple[Fraction, ...]
    T: tuple[Fraction, ...]


class ZeroInvariantError(ValueError):
    """A vanishing invariant has no reciprocal; the reduction stops."""

    def __init__(self, sequence: str, index: int):
        self.sequence = sequence
        self.index = index
        super().__init__(
            f"invariant {sequence}[{index}] is zero; reciprocal transform undefined"
        )


class ZeroDivisorError(ValueError):
    """Reconstruction met a zero divisor at the reported index."""

    def __init__(self, what: str, index: int):
        self.what = what
        self.index = index
        super().__init__(f"zero divisor in reconstruction: {what} at index {index}")


def _require_regular(trajectory: Trajectory, min_len: int) -> None:
    if trajectory.singular is not None:
        raise ValueError("invariants are undefined on a singular trajectory")
    if len(trajectory) < min_len:
        raise ValueError(f"trajectory too short: need at least {min_len} entries")


def _invariants(system: str, trajectory: Trajectory) -> InvariantSeq:
    """w[n] = lead[n]*trail[n+1], z[n] = trail[n]*lead[n+1] for n = 0..N-1,
    with lead and trail the system's components in the order of SHAPES."""
    _require_regular(trajectory, 2)
    lead, trail = SHAPES[system].by_lead(trajectory.first, trajectory.second)
    w = tuple(lead[n] * trail[n + 1] for n in range(len(lead) - 1))
    z = tuple(trail[n] * lead[n + 1] for n in range(len(lead) - 1))
    return InvariantSeq(w, z)


def invariants_a(trajectory: Trajectory) -> InvariantSeq:
    """w[n] = v[n]*u[n+1], z[n] = u[n]*v[n+1] for n = 0..N-1."""
    return _invariants("A", trajectory)


def invariants_b(trajectory: Trajectory) -> InvariantSeq:
    """w[n] = x[n]*y[n+1], z[n] = y[n]*x[n+1] for n = 0..N-1."""
    return _invariants("B", trajectory)


def linearize(invariants: InvariantSeq) -> LinearSeq:
    """S[n] = 1/w[n], T[n] = 1/z[n]; rejects zero entries by index."""
    for n, value in enumerate(invariants.w):
        if value == 0:
            raise ZeroInvariantError("w", n)
    for n, value in enumerate(invariants.z):
        if value == 0:
            raise ZeroInvariantError("z", n)
    S = tuple(1 / value for value in invariants.w)
    T = tuple(1 / value for value in invariants.z)
    return LinearSeq(S, T)


def geometric_sweep(classes, g: Fraction, count: int) -> list[Fraction]:
    """Entries 0..count-1 of a table with w = len(classes) residue classes:
    entry m*w + k is x_k*g**m + y_k*h_m for (x_k, y_k) = classes[k], with
    h_m = sum_{i<m} g**i.

    With g = P/Q the sweep carries P**m, Q**m and H_m = Q**m*h_m as ints
    (H_{m+1} = Q*(H_m + P**m)), so each entry is a single Fraction(num, den)
    with den = xd*yd*Q**m.
    """
    terms = [
        (x.numerator * y.denominator, y.numerator * x.denominator, x.denominator * y.denominator)
        for x, y in classes
    ]
    P, Q = g.numerator, g.denominator
    power, scale, inner = 1, 1, 0
    values = []
    for start in range(0, count, len(terms)):
        for x_num, y_num, den in terms[: count - start]:
            values.append(Fraction(x_num * power + y_num * inner, den * scale))
        inner = Q * (inner + power)
        power *= P
        scale *= Q
    return values


def _solve_linear(system: str, params, seeds, n_max: int) -> LinearSeq:
    """Direct recursion of S[n+lag] = p*T[n] + q, T[n+lag] = r*S[n] + s up
    to index n_max, from seeds = (S[0..lag-1], T[0..lag-1])."""
    shape = SHAPES[system]
    lag = shape.lag
    if n_max < lag - 1:
        raise ValueError(f"n_max must be >= {lag - 1}")
    (p, q), (r, s) = shape.rule(params)
    S = [rat(value) for value in seeds[:lag]]
    T = [rat(value) for value in seeds[lag:]]
    for n in range(n_max + 1 - lag):
        S.append(p * T[n] + q)
        T.append(r * S[n] + s)
    return LinearSeq(tuple(S), tuple(T))


def _closed_table(system: str, params, seeds):
    """The closed form of the system's recursion, as (g, S classes,
    T classes) split by residue mod 2*lag: for k < lag, with g = p*r and
    h = sum_{i<m} g^i,

        S[2*lag*m + k]       = g^m S[k]          + (p*s + q) h
        S[2*lag*m + lag + k] = g^m (p*T[k] + q)  + (p*s + q) h

    and T mirrors S with (p, q, S) <-> (r, s, T).  So System A
    (g = ab) splits by parity and System B (g = ac) by residue mod 4.
    """
    shape = SHAPES[system]
    (p, q), (r, s) = shape.rule(params)
    start = [rat(value) for value in seeds]
    head_s, head_t = start[: shape.lag], start[shape.lag :]
    shift_s, shift_t = p * s + q, r * q + s
    s_values = head_s + [p * t + q for t in head_t]
    t_values = head_t + [r * x + s for x in head_s]
    return (
        p * r,
        tuple((x, shift_s) for x in s_values),
        tuple((x, shift_t) for x in t_values),
    )


def _closed_st(system: str, params, seeds, n: int) -> tuple[Fraction, Fraction]:
    """Entry n of S and T from the system's closed form."""
    if n < 0:
        raise ValueError("n must be >= 0")
    g, s_classes, t_classes = _closed_table(system, params, seeds)
    m, k = divmod(n, len(s_classes))
    power, inner = g**m, geometric_sum(g, m - 1)
    return tuple(x * power + y * inner for x, y in (s_classes[k], t_classes[k]))


def closed_ST_sweep(system: str, params, seeds, count: int):
    """Entries 0..count-1 of S and T from the system's closed form, with
    seeds = (S[0..lag-1], T[0..lag-1]); every closed-form route reads this."""
    g, s_classes, t_classes = _closed_table(system, params, seeds)
    return geometric_sweep(s_classes, g, count), geometric_sweep(t_classes, g, count)


def solve_linear_a(params: SystemAParams, S0: Fraction, T0: Fraction, n_max: int) -> LinearSeq:
    """Direct recursion of S[n+1] = a*T[n] + 1, T[n+1] = b*S[n] + 1."""
    return _solve_linear("A", params, (S0, T0), n_max)


def closed_ST_a(
    params: SystemAParams, S0: Fraction, T0: Fraction, n: int
) -> tuple[Fraction, Fraction]:
    """Entry n of the System A closed form; agrees entrywise with
    solve_linear_a, and the sums are empty at the seeds."""
    return _closed_st("A", params, (S0, T0), n)


def closed_ST_sweep_a(
    params: SystemAParams, S0: Fraction, T0: Fraction, count: int
) -> tuple[list[Fraction], list[Fraction]]:
    """Entries 0..count-1 of S and T from the System A closed form."""
    return closed_ST_sweep("A", params, (S0, T0), count)


def solve_linear_b(
    params: SystemBParams, S0: Fraction, S1: Fraction, T0: Fraction, T1: Fraction, n_max: int
) -> LinearSeq:
    """Direct recursion of S[n+2] = c*T[n] + d, T[n+2] = a*S[n] + b."""
    return _solve_linear("B", params, (S0, S1, T0, T1), n_max)


def closed_ST_b(
    params: SystemBParams, S0: Fraction, S1: Fraction, T0: Fraction, T1: Fraction, n: int
) -> tuple[Fraction, Fraction]:
    """Entry n of the System B closed form; agrees entrywise with
    solve_linear_b."""
    return _closed_st("B", params, (S0, S1, T0, T1), n)


def closed_ST_sweep_b(
    params: SystemBParams, S0: Fraction, S1: Fraction, T0: Fraction, T1: Fraction, count: int
) -> tuple[list[Fraction], list[Fraction]]:
    """Entries 0..count-1 of S and T from the System B closed form."""
    return closed_ST_sweep("B", params, (S0, S1, T0, T1), count)


def _reconstruct(system: str, lin: LinearSeq, first0, second0) -> Trajectory:
    """trail[n+1] = 1/(S[n]*lead[n]), lead[n+1] = 1/(T[n]*trail[n]) from
    (first0, second0).  Zero divisors are reported in the order S, T,
    first, second."""
    shape = SHAPES[system]
    # the component names, ("u", "v") or ("x", "y")
    labels = tuple(names[0].rstrip("0") for names in shape.split(shape.initial._fields))
    first = [rat(first0)]
    second = [rat(second0)]
    for n, (s_val, t_val) in enumerate(zip(lin.S, lin.T)):
        if s_val == 0:
            raise ZeroDivisorError("S", n)
        if t_val == 0:
            raise ZeroDivisorError("T", n)
        if first[n] == 0:
            raise ZeroDivisorError(labels[0], n)
        if second[n] == 0:
            raise ZeroDivisorError(labels[1], n)
        # T feeds the lead and S the trail; by_lead puts them in component order
        f_val, g_val = shape.by_lead(t_val, s_val)
        first.append(1 / (f_val * second[n]))
        second.append(1 / (g_val * first[n]))
    return Trajectory(labels, tuple(first), tuple(second))


def reconstruct_a(lin: LinearSeq, u0: Fraction, v0: Fraction) -> Trajectory:
    """Rebuild a System A orbit from its auxiliary pair and (u0, v0) via
    u[n+1] = 1/(S[n]*v[n]), v[n+1] = 1/(T[n]*u[n])."""
    return _reconstruct("A", lin, u0, v0)


def reconstruct_b(lin: LinearSeq, x0: Fraction, y0: Fraction) -> Trajectory:
    """System B analogue: x[n+1] = 1/(T[n]*y[n]), y[n+1] = 1/(S[n]*x[n])."""
    return _reconstruct("B", lin, x0, y0)
