"""Exact forward iteration of the two coupled rational systems.

System A is the second-order pair

    u[n+2] = u[n] / (a + u[n]*v[n+1]),    v[n+2] = v[n] / (b + v[n]*u[n+1])

and System B the third-order pair

    x[n+3] = x[n]*y[n+1] / (y[n+2]*(a + b*x[n]*y[n+1])),
    y[n+3] = y[n]*x[n+1] / (x[n+2]*(c + d*y[n]*x[n+1])).

Iteration is exact; a vanishing denominator is recorded in-band as a
singularity (it is data the forbidden-set analysis compares against, not a
failure).  Iteration runs in two parts.  ``carry`` runs the invariant
recursion alone: it advances the invariant products w and z by exact
identities of the map and records each step's divisors and the first
singular step, all O(n)-bit values; ``reduce`` reads nothing else.
``orbit`` then builds the long entries from them, so no step multiplies
two long entries; ``iterate`` returns an orbit's trajectory.  ``shift_back``
performs the index relabeling that identifies these sequences with the
originally posed systems, whose initial conditions sit at negative
indices.  ``SHAPES`` states, once per system, how it reduces
to linear auxiliary sequences; every other layer reads it.
"""

from __future__ import annotations

from collections.abc import Callable
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


class SystemShape(_Record):
    """How one system reduces to its linear auxiliary sequences.

    The invariant products w[n] = lead[n]*trail[n+1] and
    z[n] = trail[n]*lead[n+1] of the two components (``lead`` names the
    leading one, "first" or "second") have reciprocals S = 1/w, T = 1/z
    with S[n+lag] = p*T[n] + q, T[n+lag] = r*S[n] + s, where
    ((p, q), (r, s)) = rule(params).  An initial record holds the first
    component at indices 0..lag, then the second.  The layers derive the
    rest: the closed form's period 2*lag, the smallest orbit index lag,
    the seed products and the CLI flags (the records' ``_fields``).
    """

    params: type
    initial: type
    lag: int
    lead: str
    rule: Callable

    @property
    def period(self) -> int:
        return 2 * self.lag

    def split(self, values) -> tuple:
        """(first, second): a sequence in initial-field order cut into the
        two components' values at indices 0..lag."""
        return values[: self.lag + 1], values[self.lag + 1 :]

    def by_lead(self, first, second) -> tuple:
        """(lead, trail) from (first, second); the reordering is its own
        inverse, so it also turns (lead, trail) back into (first, second)."""
        return (first, second) if self.lead == "first" else (second, first)

    def seed_products(self, ics) -> list[tuple[str, Fraction]]:
        """(name, value) of w[0..lag-1], then of z[0..lag-1], such as
        ("v0*u1", v0*u1) for System A's w[0]."""
        lead, trail = self.by_lead(*self.split(ics._fields))
        pairs = [(lead[n], trail[n + 1]) for n in range(self.lag)]
        pairs += [(trail[n], lead[n + 1]) for n in range(self.lag)]
        return [(f"{x}*{y}", getattr(ics, x) * getattr(ics, y)) for x, y in pairs]


# System A: S[n+1] = a*T[n] + 1, T[n+1] = b*S[n] + 1 with w[n] = v[n]*u[n+1];
# System B: S[n+2] = c*T[n] + d, T[n+2] = a*S[n] + b with w[n] = x[n]*y[n+1]
SHAPES = {
    "A": SystemShape(SystemAParams, SystemAInitial, 1, "second", lambda p: ((p.a, 1), (p.b, 1))),
    "B": SystemShape(
        SystemBParams, SystemBInitial, 2, "first", lambda p: ((p.c, p.d), (p.a, p.b))
    ),
}


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
    """``iterate_b`` refuses System B initial components that are zero;
    distinct from a runtime singularity."""


class Orbit(_Record):
    """A trajectory and the invariant products its iteration carried,
    w[n] = lead[n]*trail[n+1] and z[n] = trail[n]*lead[n+1] for
    n = 0..len(trajectory)-2, with lead and trail as in SHAPES."""

    trajectory: Trajectory
    w: tuple[Fraction, ...]
    z: tuple[Fraction, ...]


class Carried(_Record):
    """The short values an orbit's iteration carries: the invariant
    products w and z (as in Orbit), per component the short divisors of
    the completed steps (System A's a + z[n] and b + w[n]; System B's steps
    divide by entries, so it has none) and the first singular step.  Each
    holds O(n) bits; ``orbit`` builds the long entries from them and the
    initial values alone."""

    w: tuple[Fraction, ...]
    z: tuple[Fraction, ...]
    divisors: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    singular: Singularity | None


def carry_a(params: SystemAParams, ics: SystemAInitial, n_max: int) -> Carried:
    """System A's carried values up to index ``n_max`` (inclusive).

    The step carries z[n] = u[n]*v[n+1] and w[n] = v[n]*u[n+1], which the
    map itself advances: z[n+1] = w[n]/(b + w[n]) and
    w[n+1] = z[n]/(a + z[n]).  The divisors a + z[n] and b + w[n] are those
    of u[n+2] = u[n]/(a + z[n]) and v[n+2] = v[n]/(b + w[n]).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1 for System A")
    a, b = params.a, params.b
    z = [ics.u0 * ics.v1]
    w = [ics.v0 * ics.u1]
    dens_u, dens_v = [], []

    def stop(singular=None):
        return Carried(tuple(w), tuple(z), (tuple(dens_u), tuple(dens_v)), singular)

    for n in range(n_max - 1):
        den_u = a + z[n]
        if den_u == 0:
            return stop(Singularity(n + 2, "first", f"a + u{n}*v{n + 1} = 0"))
        den_v = b + w[n]
        if den_v == 0:
            return stop(Singularity(n + 2, "second", f"b + v{n}*u{n + 1} = 0"))
        dens_u.append(den_u)
        dens_v.append(den_v)
        z.append(w[n] / den_v)
        w.append(z[n] / den_u)
    return stop()


def carry_b(params: SystemBParams, ics: SystemBInitial, n_max: int) -> Carried:
    """System B's carried values up to index ``n_max`` (inclusive).

    The step carries w[n] = x[n]*y[n+1] and z[n] = y[n]*x[n+1], which the
    map advances two indices at a time: z[n+2] = w[n]/(a + b*w[n]) and
    w[n+2] = z[n]/(c + d*z[n]).  Then x[n+3] = z[n+2]/y[n+2] and
    y[n+3] = w[n+2]/x[n+2], so the entries need no divisor of their own.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2 for System B")
    initials = (ics.x0, ics.x1, ics.x2, ics.y0, ics.y1, ics.y2)
    if any(value == 0 for value in initials):
        raise ZeroInitialError("System B initial components must all be nonzero")
    a, b, c, d = params.a, params.b, params.c, params.d
    w = [ics.x0 * ics.y1, ics.x1 * ics.y2]
    z = [ics.y0 * ics.x1, ics.y1 * ics.x2]

    def stop(singular=None):
        return Carried(tuple(w), tuple(z), ((), ()), singular)

    for n in range(n_max - 2):
        # nonzero initials keep every later entry nonzero, so of the
        # denominators y[n+2]*(a + b*w[n]) and x[n+2]*(c + d*z[n]) only the
        # parenthesized factors can vanish
        den_x = a + b * w[n]
        if den_x == 0:
            return stop(Singularity(n + 3, "first", f"y{n + 2}*(a + b*x{n}*y{n + 1}) = 0"))
        den_y = c + d * z[n]
        if den_y == 0:
            return stop(Singularity(n + 3, "second", f"x{n + 2}*(c + d*y{n}*x{n + 1}) = 0"))
        z.append(w[n] / den_x)
        w.append(z[n] / den_y)
    return stop()


def _entries_a(ics: SystemAInitial, carried: Carried) -> Trajectory:
    """u[n+2] = u[n]/(a + z[n]), v[n+2] = v[n]/(b + w[n]): one long value
    by a carried divisor per entry."""
    u = [ics.u0, ics.u1]
    v = [ics.v0, ics.v1]
    for n, (den_u, den_v) in enumerate(zip(*carried.divisors)):
        u.append(u[n] / den_u)
        v.append(v[n] / den_v)
    return Trajectory(("u", "v"), tuple(u), tuple(v), carried.singular)


def _entries_b(ics: SystemBInitial, carried: Carried) -> Trajectory:
    """x[n+3] = z[n+2]/y[n+2], y[n+3] = w[n+2]/x[n+2]: a carried product by
    one long value per entry."""
    x = [ics.x0, ics.x1, ics.x2]
    y = [ics.y0, ics.y1, ics.y2]
    w, z = carried.w, carried.z
    for n in range(2, len(w)):
        x.append(z[n] / y[n])
        y.append(w[n] / x[n])
    return Trajectory(("x", "y"), tuple(x), tuple(y), carried.singular)


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


# per system: (carried values, long entries from the initial values and them)
_ITERATION = {"A": (carry_a, _entries_a), "B": (carry_b, _entries_b)}

# per system, from (params, w, z): the ratios entry[i]/entry[i-2] of the
# first and the second component.  System A's are the map's own factors
# 1/(a + z[i-2]) and 1/(b + w[i-2]), defined where a component is zero;
# System B's entries are never zero, and x[i]/x[i-2] = z[i-1]/w[i-2],
# y[i]/y[i-2] = w[i-1]/z[i-2].
_STEP_RATIOS = {
    "A": lambda params, w, z: (
        lambda i: 1 / (params.a + z[i - 2]),
        lambda i: 1 / (params.b + w[i - 2]),
    ),
    "B": lambda params, w, z: (lambda i: z[i - 1] / w[i - 2], lambda i: w[i - 1] / z[i - 2]),
}


def carry(system: str, params, ics, n_max: int) -> Carried:
    """The values that iterating ``system`` up to index ``n_max``
    (inclusive) carries, without its long entries: what ``reduce`` reads."""
    return _ITERATION[system][0](params, ics, n_max)


def orbit(system: str, params, ics, n_max: int) -> Orbit:
    """Iterate ``system`` exactly up to index ``n_max`` (inclusive), with
    the invariant products the iteration carried."""
    carry_values, entries = _ITERATION[system]
    carried = carry_values(params, ics, n_max)
    return Orbit(entries(ics, carried), carried.w, carried.z)


def step_ratios(system: str, params, orbit: Orbit) -> tuple[Callable, Callable]:
    """(first, second): per component, ratio(i) = entry i / entry i-2 of the
    orbit's trajectory for 2 <= i < len(trajectory), the short factor the
    iteration's identities build entry i with, from the carried w and z.
    Each ratio is formed when called (rational.format_sequence calls it for
    long entries only)."""
    return _STEP_RATIOS[system](params, orbit.w, orbit.z)


def iterate(system: str, params, ics, n_max: int) -> Trajectory:
    """Iterate ``system`` exactly up to index ``n_max`` (inclusive)."""
    return orbit(system, params, ics, n_max).trajectory


def system_aliases(template: str, keyed: Callable) -> tuple:
    """The per-system names of the system-keyed function ``keyed``, one per
    system of SHAPES: ``template`` filled with the lower-case system letter
    ("check_forbidden_{}" gives check_forbidden_a, check_forbidden_b), each
    calling keyed(system, *args, **kwargs)."""

    def alias(system: str):
        def call(*args, **kwargs):
            return keyed(system, *args, **kwargs)

        call.__name__ = call.__qualname__ = template.format(system.lower())
        call.__module__ = keyed.__module__
        call.__doc__ = f"{keyed.__name__}({system!r}, ...)"
        return call

    return tuple(alias(system) for system in SHAPES)


iterate_a, iterate_b = system_aliases("iterate_{}", iterate)
