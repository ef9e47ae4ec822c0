"""Exact forward iteration of the two coupled rational systems.

System A is the second-order pair

    u[n+2] = u[n] / (a + u[n]*v[n+1]),    v[n+2] = v[n] / (b + v[n]*u[n+1])

and System B the third-order pair

    x[n+3] = x[n]*y[n+1] / (y[n+2]*(a + b*x[n]*y[n+1])),
    y[n+3] = y[n]*x[n+1] / (x[n+2]*(c + d*y[n]*x[n+1])).

Iteration is exact; a vanishing denominator is recorded in-band as a
singularity (it is data the forbidden-set analysis compares against, not a
failure).  ``shift_back`` performs the index relabeling that identifies
these sequences with the originally posed systems, whose initial conditions
sit at negative indices.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

from .rational import rat


class _Exact:
    """Base of the frozen input records: every field becomes an exact rational."""

    def __post_init__(self):
        for field in fields(self):
            object.__setattr__(self, field.name, rat(getattr(self, field.name)))


@dataclass(frozen=True)
class SystemAParams(_Exact):
    a: Fraction
    b: Fraction


@dataclass(frozen=True)
class SystemBParams(_Exact):
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction


@dataclass(frozen=True)
class SystemAInitial(_Exact):
    u0: Fraction
    u1: Fraction
    v0: Fraction
    v1: Fraction


@dataclass(frozen=True)
class SystemBInitial(_Exact):
    x0: Fraction
    x1: Fraction
    x2: Fraction
    y0: Fraction
    y1: Fraction
    y2: Fraction


@dataclass(frozen=True)
class Singularity:
    """First vanishing denominator: the step (array index) that failed,
    which component's update failed, and the denominator that was zero."""

    step: int
    component: str  # "first" | "second"
    denominator_expression: str


@dataclass(frozen=True)
class Trajectory:
    """An exact orbit of one of the two systems.

    ``first``/``second`` hold entries for array indices 0..N (or 0..k-1
    when a singularity occurred at step k).  ``origin`` is the label of
    array index 0: freshly iterated trajectories start at 0, shifted-back
    ones at -1 or -2.
    """

    labels: tuple[str, str]
    first: tuple[Fraction, ...]
    second: tuple[Fraction, ...]
    singular: Singularity | None = None
    origin: int = 0

    def label_of(self, index: int) -> int:
        return self.origin + index

    def __len__(self) -> int:
        return len(self.first)


class ZeroInitialError(ValueError):
    """System B is undefined on zero initial components (it divides by
    them); distinct from a runtime singularity."""


def iterate_a(params: SystemAParams, ics: SystemAInitial, n_max: int) -> Trajectory:
    """Iterate System A exactly up to index ``n_max`` (inclusive)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1 for System A")
    a, b = params.a, params.b
    u = [ics.u0, ics.u1]
    v = [ics.v0, ics.v1]
    for n in range(n_max - 1):
        den_u = a + u[n] * v[n + 1]
        if den_u == 0:
            sing = Singularity(n + 2, "first", f"a + u{n}*v{n + 1} = 0")
            return Trajectory(("u", "v"), tuple(u[: n + 2]), tuple(v[: n + 2]), sing)
        den_v = b + v[n] * u[n + 1]
        if den_v == 0:
            sing = Singularity(n + 2, "second", f"b + v{n}*u{n + 1} = 0")
            return Trajectory(("u", "v"), tuple(u[: n + 2]), tuple(v[: n + 2]), sing)
        u.append(u[n] / den_u)
        v.append(v[n] / den_v)
    return Trajectory(("u", "v"), tuple(u), tuple(v))


def iterate_b(params: SystemBParams, ics: SystemBInitial, n_max: int) -> Trajectory:
    """Iterate System B exactly up to index ``n_max`` (inclusive)."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2 for System B")
    initials = (ics.x0, ics.x1, ics.x2, ics.y0, ics.y1, ics.y2)
    if any(value == 0 for value in initials):
        raise ZeroInitialError("System B initial components must all be nonzero")
    a, b, c, d = params.a, params.b, params.c, params.d
    x = [ics.x0, ics.x1, ics.x2]
    y = [ics.y0, ics.y1, ics.y2]
    for n in range(n_max - 2):
        # nonzero initials keep every later entry nonzero, so only the
        # parenthesized factors can vanish
        den_x = y[n + 2] * (a + b * x[n] * y[n + 1])
        if den_x == 0:
            sing = Singularity(n + 3, "first", f"y{n + 2}*(a + b*x{n}*y{n + 1}) = 0")
            return Trajectory(("x", "y"), tuple(x[: n + 3]), tuple(y[: n + 3]), sing)
        den_y = x[n + 2] * (c + d * y[n] * x[n + 1])
        if den_y == 0:
            sing = Singularity(n + 3, "second", f"x{n + 2}*(c + d*y{n}*x{n + 1}) = 0")
            return Trajectory(("x", "y"), tuple(x[: n + 3]), tuple(y[: n + 3]), sing)
        x.append(x[n] * y[n + 1] / den_x)
        y.append(y[n] * x[n + 1] / den_y)
    return Trajectory(("x", "y"), tuple(x), tuple(y))


def shift_back(trajectory: Trajectory, offset: int) -> Trajectory:
    """Relabel indices so entry i carries label origin - offset + i.

    Pure reindexing: values (and the array position of any singularity)
    are untouched; only the label origin moves, and the ("u","v") labels
    become ("x","y").  Composing two offset-1 shifts equals one offset-2
    shift.
    """
    if offset not in (1, 2):
        raise ValueError("shift_back offset must be 1 or 2")
    labels = ("x", "y") if trajectory.labels == ("u", "v") else trajectory.labels
    return Trajectory(
        labels,
        trajectory.first,
        trajectory.second,
        trajectory.singular,
        trajectory.origin - offset,
    )
