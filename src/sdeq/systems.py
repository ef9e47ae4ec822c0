"""Exact forward iteration of the two coupled rational systems.

System A is the second-order pair

    u[n+2] = u[n] / (a + u[n]*v[n+1]),    v[n+2] = v[n] / (b + v[n]*u[n+1])

and System B the third-order pair

    x[n+3] = x[n]*y[n+1] / (y[n+2]*(a + b*x[n]*y[n+1])),
    y[n+3] = y[n]*x[n+1] / (x[n+2]*(c + d*y[n]*x[n+1])).

Iteration is exact; a vanishing denominator is recorded in-band as a
singularity (it is data the forbidden-set analysis compares against, not a
failure).  Both are X[n+lag+1] = P/(Y[n+lag]*(alpha + beta*P)) with
P = X[n]*Y[n+1] (X[n]/(alpha + beta*P) at lag 1); ``SHAPES`` states each
system's lag, rule and reduction once, and every layer reads it.

This module holds what every layer reads: the frozen records, ``SHAPES``
and ``system_aliases``.  The iteration itself, the invariant carry and
the telescoping its long entries are built by, is ``sdeq.orbit``, which
``iterate`` loads on its first call, so a process that never iterates
(``symmetry-check``, ``check-forbidden``) does not compile it.
``iterate`` builds both components and returns the trajectory.
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
    follow the fields.  ``_fields`` names the fields and ``_asdict()``
    maps them to their values.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            # each field once, by position or keyword, or else its default
            given = {**dict(zip(fields, args)), **kwargs}
            values = {name: getattr(self, name) for name in fields if hasattr(self, name)} | given
            if len(given) != len(args) + len(kwargs) or values.keys() != set(fields):
                raise TypeError(
                    f"{type(self).__name__}({', '.join(fields)}) cannot take"
                    f" positional {args} and keyword {kwargs}"
                )
            args = [values[field] for field in fields]
        self.__dict__.update(zip(fields, self._coerce(args)))

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
    component at indices 0..lag, then the second.  ``denominators`` are
    the texts of the first and the second component's vanishing update
    denominator at step n+lag+1, formatted with (n, n+1, n+lag).  The
    layers derive the rest: the closed form's period 2*lag, the smallest
    orbit index lag, the seed products and the CLI flags (``_fields``).
    """

    params: type
    initial: type
    lag: int
    lead: str
    rule: Callable
    denominators: tuple[str, str]

    # compared by identity, as its rule is anyway, so that a cache keyed
    # by the shape (symmetry._layout) hashes it cheaply
    __eq__, __hash__ = object.__eq__, object.__hash__

    @property
    def period(self) -> int:
        return 2 * self.lag

    @property
    def labels(self) -> tuple[str, str]:
        """The component names, ("u", "v") or ("x", "y")."""
        return tuple(names[0].rstrip("0") for names in self.split(self.initial._fields))

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
    "A": SystemShape(
        SystemAParams, SystemAInitial, 1, "second", lambda p: ((p.a, 1), (p.b, 1)),
        ("a + u{0}*v{1} = 0", "b + v{0}*u{1} = 0"),
    ),
    "B": SystemShape(
        SystemBParams, SystemBInitial, 2, "first", lambda p: ((p.c, p.d), (p.a, p.b)),
        ("y{2}*(a + b*x{0}*y{1}) = 0", "x{2}*(c + d*y{0}*x{1}) = 0"),
    ),
}


class Singularity(_Record):
    """First vanishing denominator: the step (array index) that failed,
    which component's update failed, and the denominator that was zero."""

    step: int
    component: str  # "first" | "second"
    denominator_expression: str


class _Singular(Exception):
    """A singular orbit where ``reduce`` or ``verify`` requires a regular one."""

    def __init__(self, sing: Singularity):
        super().__init__(
            f"singular trajectory at step {sing.step} ({sing.denominator_expression})"
        )


class Trajectory(_Record):
    """An exact orbit of one of the two systems.

    ``first``/``second`` hold entries for indices 0..N (or 0..k-1 when a
    singularity occurred at step k).
    """

    labels: tuple[str, str]
    first: tuple[Fraction, ...]
    second: tuple[Fraction, ...]
    singular: Singularity | None = None

    def __len__(self) -> int:
        return len(self.first)


class ZeroInitialError(ValueError):
    """``orbit.carry`` refuses zero initial components of a system of lag 2 or
    more, whose divisors are quotients of the invariant products; distinct
    from a runtime singularity."""


def iterate(system: str, params, ics, n_max: int) -> Trajectory:
    """Iterate ``system`` exactly up to index ``n_max`` (inclusive): the
    carried values, then each component's long entries
    (Telescoping.entries of orbit.orbit_telescoping)."""
    from .orbit import orbit_telescoping

    carried, built = orbit_telescoping(system, params, ics, n_max)
    first, second = (tuple(built.entries(k)) for k in (0, 1))
    return Trajectory(SHAPES[system].labels, first, second, carried.singular)


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
