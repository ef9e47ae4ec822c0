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

from fractions import Fraction

from .rational import rat


class _Record:
    """Base of the frozen records.

    A subclass declares its fields as class annotations, in constructor
    order, and their defaults as class attributes.  Instances cannot be
    changed after construction; equality and hash compare the field values
    of two records of the same class, and the repr, pickling and copying
    follow the fields.  As on a NamedTuple, ``_fields`` names the fields
    and ``_asdict()`` maps them to their values.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}
        cls.__match_args__ = cls._fields

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, self._coerce(args)))

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """Field values in order from positional and keyword arguments and
        the defaults, with the TypeErrors of a call that does not fit."""
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        values = {**self._defaults, **values}
        missing = [field for field in fields if field not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return [values[field] for field in fields]

    def _coerce(self, values):
        """The values to store, in field order; subclasses coerce and validate."""
        return values

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()


class _Exact(_Record):
    """Base of the frozen input records: every field becomes an exact rational."""

    def _coerce(self, values):
        return map(rat, values)


class SystemAParams(_Exact):
    a: Fraction
    b: Fraction


class SystemBParams(_Exact):
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction


class SystemAInitial(_Exact):
    u0: Fraction
    u1: Fraction
    v0: Fraction
    v1: Fraction


class SystemBInitial(_Exact):
    x0: Fraction
    x1: Fraction
    x2: Fraction
    y0: Fraction
    y1: Fraction
    y2: Fraction


class Singularity(_Record):
    """First vanishing denominator: the step (array index) that failed,
    which component's update failed, and the denominator that was zero."""

    step: int
    component: str  # "first" | "second"
    denominator_expression: str


class Trajectory(_Record):
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
        # parenthesized factors can vanish; each invariant product is
        # formed once and serves both its denominator and its numerator
        w = x[n] * y[n + 1]
        den_x = y[n + 2] * (a + b * w)
        if den_x == 0:
            sing = Singularity(n + 3, "first", f"y{n + 2}*(a + b*x{n}*y{n + 1}) = 0")
            return Trajectory(("x", "y"), tuple(x[: n + 3]), tuple(y[: n + 3]), sing)
        z = y[n] * x[n + 1]
        den_y = x[n + 2] * (c + d * z)
        if den_y == 0:
            sing = Singularity(n + 3, "second", f"x{n + 2}*(c + d*y{n}*x{n + 1}) = 0")
            return Trajectory(("x", "y"), tuple(x[: n + 3]), tuple(y[: n + 3]), sing)
        x.append(w / den_x)
        y.append(z / den_y)
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
