"""Invariant-based order reduction and the linear auxiliary sequences.

A system's record in ``systems.SHAPES`` states its whole reduction: along
an orbit the invariant products w[n] = lead[n]*trail[n+1] and
z[n] = trail[n]*lead[n+1] satisfy a first-order map whose reciprocals
S = 1/w, T = 1/z are linear, S[n+lag] = p*T[n] + q and
T[n+lag] = r*S[n] + s (System A: S[n+1] = a*T[n] + 1, T[n+1] = b*S[n] + 1;
System B: two interleaved strands).  One recursion, one closed-form table
split by residue mod 2*lag and one reconstruction, which runs the
reduction backwards (trail[n+1] = 1/(S[n]*lead[n]),
lead[n+1] = 1/(T[n]*trail[n])), serve both systems.  Each operation is
one function keyed by the system ("A" or "B"); ``system_aliases`` generates
its per-system names (``invariants_a`` is ``invariants("A", ...)``).
``geometric_sweep`` evaluates a whole sweep of a table from carried integer
powers; every route of ``sdeq.closed_form`` reads that sweep, and
``reconstruct`` rebuilds an orbit from S and T two indices at a time by
the one assembly kernel, ``systems.assemble``, as the closed forms do.
The sweep and ``reciprocals`` hold reduced (numerator, denominator)
pairs of ints, as ``systems.carry`` does; the public functions take and
return Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .rational import geometric_sum, rat
from .systems import SHAPES, Trajectory, _Record, assemble, system_aliases, turned_over


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


def invariants(system: str, trajectory: Trajectory) -> InvariantSeq:
    """w[n] = lead[n]*trail[n+1], z[n] = trail[n]*lead[n+1] for n = 0..N-1,
    with lead and trail the system's components in the order of SHAPES
    (System A: w[n] = v[n]*u[n+1]; System B: w[n] = x[n]*y[n+1])."""
    _require_regular(trajectory, 2)
    lead, trail = SHAPES[system].by_lead(trajectory.first, trajectory.second)
    w = tuple(lead[n] * trail[n + 1] for n in range(len(lead) - 1))
    z = tuple(trail[n] * lead[n + 1] for n in range(len(lead) - 1))
    return InvariantSeq(w, z)


invariants_a, invariants_b = system_aliases("invariants_{}", invariants)


def _require_nonzero(w, z, zero) -> None:
    """ZeroInvariantError for the first entry of w, then of z, equal to
    ``zero``."""
    for name, values in (("w", w), ("z", z)):
        for n, value in enumerate(values):
            if value == zero:
                raise ZeroInvariantError(name, n)


def linearize(invariants: InvariantSeq) -> LinearSeq:
    """S[n] = 1/w[n], T[n] = 1/z[n]; rejects zero entries by index."""
    _require_nonzero(invariants.w, invariants.z, 0)
    S = tuple(1 / value for value in invariants.w)
    T = tuple(1 / value for value in invariants.z)
    return LinearSeq(S, T)


def reciprocals(w, z) -> tuple[list, list]:
    """linearize on reduced pairs (systems.Carried): (S, T), each pair
    of w and z turned over."""
    _require_nonzero(w, z, (0, 1))
    return turned_over(w), turned_over(z)


def geometric_sweep(classes, g: Fraction, count: int) -> list[tuple[int, int]]:
    """Entries 0..count-1 of a table with w = len(classes) residue classes:
    entry m*w + k is x_k*g**m + y_k*h_m for (x_k, y_k) = classes[k], with
    h_m = sum_{i<m} g**i, as reduced (numerator, denominator) pairs.

    With g = P/Q the sweep carries P**m, Q**m and H_m = Q**m*h_m as ints
    (H_{m+1} = Q*(H_m + P**m)), so each entry is num/den with
    den = xd*yd*Q**m, reduced by one gcd.
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
            num, den = x_num * power + y_num * inner, den * scale
            common = gcd(num, den)
            values.append((num // common, den // common))
        inner = Q * (inner + power)
        power *= P
        scale *= Q
    return values


def _spread(keyed):
    """``keyed`` with its tuple of seeds S[0..lag-1], T[0..lag-1] given one
    by one before the last argument, as in closed_ST_a(params, S0, T0, n)."""

    def spread(system: str, params, *args):
        *seeds, last = args
        if len(seeds) != 2 * SHAPES[system].lag:
            raise TypeError(f"System {system} takes {2 * SHAPES[system].lag} seeds")
        return keyed(system, params, tuple(seeds), last)

    spread.__name__ = keyed.__name__
    return spread


def solve_linear(system: str, params, seeds, n_max: int) -> LinearSeq:
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


solve_linear_a, solve_linear_b = system_aliases("solve_linear_{}", _spread(solve_linear))


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


def closed_ST(system: str, params, seeds, n: int) -> tuple[Fraction, Fraction]:
    """Entry n of S and T from the system's closed form; agrees entrywise
    with solve_linear, and the sums are empty at the seeds."""
    if n < 0:
        raise ValueError("n must be >= 0")
    g, s_classes, t_classes = _closed_table(system, params, seeds)
    m, k = divmod(n, len(s_classes))
    power, inner = g**m, geometric_sum(g, m - 1)
    return tuple(x * power + y * inner for x, y in (s_classes[k], t_classes[k]))


closed_ST_a, closed_ST_b = system_aliases("closed_ST_{}", _spread(closed_ST))


def closed_ST_sweep(system: str, params, seeds, count: int):
    """Entries 0..count-1 of S and T from the system's closed form, as
    reduced pairs, with seeds = (S[0..lag-1], T[0..lag-1]); every
    closed-form route reads this."""
    g, s_classes, t_classes = _closed_table(system, params, seeds)
    return geometric_sweep(s_classes, g, count), geometric_sweep(t_classes, g, count)


def reconstruct(system: str, lin: LinearSeq, first0, second0) -> Trajectory:
    """Run the reduction backwards: the orbit with auxiliary pair ``lin``
    from (first0, second0), by trail[n+1] = 1/(S[n]*lead[n]) and
    lead[n+1] = 1/(T[n]*trail[n]) (System A: u[n+1] = 1/(S[n]*v[n]);
    System B: x[n+1] = 1/(T[n]*y[n])).  Zero divisors are reported by
    index, S before T, and at index 0 then first0 before second0."""
    shape = SHAPES[system]
    starts = (rat(first0), rat(second0))
    count = min(len(lin.S), len(lin.T))
    S, T = ([rat(x).as_integer_ratio() for x in values[:count]] for values in (lin.S, lin.T))
    for n in range(count):
        divisors = [("S", S[n][0]), ("T", T[n][0])]  # by their numerators
        if n == 0:
            divisors += zip(shape.labels, starts)
        for what, value in divisors:
            if value == 0:
                raise ZeroDivisorError(what, n)
    built = assemble(system, S, T, *starts, count)
    return Trajectory(shape.labels, *(tuple(built.entries(k)) for k in (0, 1)))


reconstruct_a, reconstruct_b = system_aliases("reconstruct_{}", reconstruct)
