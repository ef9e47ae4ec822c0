"""Invariant-based order reduction and the linear auxiliary sequences.

Along any System A orbit the products w[n] = v[n]*u[n+1] and
z[n] = u[n]*v[n+1] satisfy the first-order pair

    w[n+1] = z[n]/(a + z[n]),    z[n+1] = w[n]/(b + w[n]),

and their reciprocals S[n] = 1/w[n], T[n] = 1/z[n] satisfy the linear
system  S[n+1] = a*T[n] + 1,  T[n+1] = b*S[n] + 1,  which has an explicit
closed form split by parity.  For System B the invariants are
w[n] = x[n]*y[n+1], z[n] = y[n]*x[n+1]; the reciprocals satisfy
S[n+2] = c*T[n] + d, T[n+2] = a*S[n] + b (two interleaved strands) with a
closed form split by residue mod 4.  Reconstruction runs the reduction
backwards: u[n+1] = 1/(S[n]*v[n]), v[n+1] = 1/(T[n]*u[n]) (and the x/y
analogue), so a trajectory round-trips exactly through its invariants.
"""

from __future__ import annotations

from fractions import Fraction

from .rational import geometric_sum, rat
from .systems import SystemAParams, SystemBParams, Trajectory, _Record


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


def _invariants(trajectory: Trajectory, lead, trail) -> InvariantSeq:
    """w[n] = lead[n]*trail[n+1], z[n] = trail[n]*lead[n+1] for n = 0..N-1,
    where lead and trail are the trajectory's two components."""
    _require_regular(trajectory, 2)
    w = tuple(lead[n] * trail[n + 1] for n in range(len(lead) - 1))
    z = tuple(trail[n] * lead[n + 1] for n in range(len(lead) - 1))
    return InvariantSeq(w, z)


def invariants_a(trajectory: Trajectory) -> InvariantSeq:
    """w[n] = v[n]*u[n+1], z[n] = u[n]*v[n+1] for n = 0..N-1."""
    return _invariants(trajectory, trajectory.second, trajectory.first)


def invariants_b(trajectory: Trajectory) -> InvariantSeq:
    """w[n] = x[n]*y[n+1], z[n] = y[n]*x[n+1] for n = 0..N-1."""
    return _invariants(trajectory, trajectory.first, trajectory.second)


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


def solve_linear_a(
    params: SystemAParams, S0: Fraction, T0: Fraction, n_max: int
) -> LinearSeq:
    """Direct recursion of S[n+1] = a*T[n] + 1, T[n+1] = b*S[n] + 1."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    a, b = params.a, params.b
    S = [rat(S0)]
    T = [rat(T0)]
    for n in range(n_max):
        S.append(a * T[n] + 1)
        T.append(b * S[n] + 1)
    return LinearSeq(tuple(S), tuple(T))


def closed_ST_a(
    params: SystemAParams, S0: Fraction, T0: Fraction, n: int
) -> tuple[Fraction, Fraction]:
    """Closed form of the System A auxiliary pair, split by parity.

        S[2m]   = (ab)^m S0 + (1+a) * sum_{i<m} (ab)^i
        T[2m]   = (ab)^m T0 + (1+b) * sum_{i<m} (ab)^i
        S[2m+1] = a(ab)^m T0 + sum_{i<=m} (ab)^i + a * sum_{i<m} (ab)^i
        T[2m+1] = b(ab)^m S0 + sum_{i<=m} (ab)^i + b * sum_{i<m} (ab)^i

    Agrees entrywise with solve_linear_a; the sums are empty at the seeds.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    a, b = params.a, params.b
    S0, T0 = rat(S0), rat(T0)
    ab = a * b
    m, parity = divmod(n, 2)
    if parity == 0:
        inner = geometric_sum(ab, m - 1)
        s_val = ab**m * S0 + inner + a * inner
        t_val = ab**m * T0 + inner + b * inner
    else:
        full = geometric_sum(ab, m)
        inner = geometric_sum(ab, m - 1)
        s_val = a ** (m + 1) * b**m * T0 + full + a * inner
        t_val = a**m * b ** (m + 1) * S0 + full + b * inner
    return s_val, t_val


def solve_linear_b(
    params: SystemBParams,
    S0: Fraction,
    S1: Fraction,
    T0: Fraction,
    T1: Fraction,
    n_max: int,
) -> LinearSeq:
    """Direct recursion of S[n+2] = c*T[n] + d, T[n+2] = a*S[n] + b."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a, b, c, d = params.a, params.b, params.c, params.d
    S = [rat(S0), rat(S1)]
    T = [rat(T0), rat(T1)]
    for n in range(n_max - 1):
        S.append(c * T[n] + d)
        T.append(a * S[n] + b)
    return LinearSeq(tuple(S), tuple(T))


def closed_ST_b(
    params: SystemBParams,
    S0: Fraction,
    S1: Fraction,
    T0: Fraction,
    T1: Fraction,
    n: int,
) -> tuple[Fraction, Fraction]:
    """Closed form of the System B auxiliary pair, split by residue mod 4.

    With g(m) = sum_{i=0}^{m} (ac)^i (empty when m < 0):

        S[4m]   = (ac)^m S0 + (d + bc) g(m-1)
        S[4m+1] = (ac)^m S1 + (d + bc) g(m-1)
        S[4m+2] = a^m c^{m+1} T0 + d g(m) + bc g(m-1)
        S[4m+3] = a^m c^{m+1} T1 + d g(m) + bc g(m-1)

    and T mirrors S with (a <-> c, b <-> d, S <-> T).  Agrees entrywise
    with solve_linear_b.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    a, b, c, d = params.a, params.b, params.c, params.d
    S0, S1, T0, T1 = rat(S0), rat(S1), rat(T0), rat(T1)
    ac = a * c
    m, residue = divmod(n, 4)
    inner = geometric_sum(ac, m - 1)
    if residue == 0:
        return ac**m * S0 + (d + b * c) * inner, ac**m * T0 + (b + a * d) * inner
    if residue == 1:
        return ac**m * S1 + (d + b * c) * inner, ac**m * T1 + (b + a * d) * inner
    full = geometric_sum(ac, m)
    if residue == 2:
        s_val = a**m * c ** (m + 1) * T0 + d * full + b * c * inner
        t_val = a ** (m + 1) * c**m * S0 + b * full + a * d * inner
        return s_val, t_val
    s_val = a**m * c ** (m + 1) * T1 + d * full + b * c * inner
    t_val = a ** (m + 1) * c**m * S1 + b * full + a * d * inner
    return s_val, t_val


def _reconstruct(
    labels: tuple[str, str], lin: LinearSeq, s_feeds_first: bool, first0, second0
) -> Trajectory:
    """first[n+1] = 1/(F[n]*second[n]), second[n+1] = 1/(G[n]*first[n]) with
    (F, G) = (S, T) when ``s_feeds_first``, else (T, S).  Zero divisors are
    reported in the order S, T, first, second."""
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
        f_val, g_val = (s_val, t_val) if s_feeds_first else (t_val, s_val)
        first.append(1 / (f_val * second[n]))
        second.append(1 / (g_val * first[n]))
    return Trajectory(labels, tuple(first), tuple(second))


def reconstruct_a(lin: LinearSeq, u0: Fraction, v0: Fraction) -> Trajectory:
    """Rebuild a System A orbit from its auxiliary pair and (u0, v0) via
    u[n+1] = 1/(S[n]*v[n]), v[n+1] = 1/(T[n]*u[n])."""
    return _reconstruct(("u", "v"), lin, True, u0, v0)


def reconstruct_b(lin: LinearSeq, x0: Fraction, y0: Fraction) -> Trajectory:
    """System B analogue: x[n+1] = 1/(T[n]*y[n]), y[n+1] = 1/(S[n]*x[n])."""
    return _reconstruct(("x", "y"), lin, False, x0, y0)
