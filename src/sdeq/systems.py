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
Iteration runs in two parts.  ``carry``, one loop for every lag, runs the
invariant recursion alone: it advances the invariant products w and z by
exact identities of the map and records each step's factors and the
first singular step, all O(n)-bit values; ``reduce`` reads nothing else.
``orbit`` then builds the long entries from them with ``telescope``, the
one loop that divides an entry two back by a short listed divisor (the
closed forms build theirs with it too); ``iterate`` returns its trajectory.
A ``Telescoping`` states what ``telescope`` builds a pair of components
from, so each component is built on its own, and ``both`` runs the two
components' jobs, the second in a forked child process (``sdeq.fork``)
where the entries are long enough to pay for it.
``shift_back`` performs the index relabeling that identifies these
sequences with the originally posed systems, whose initial conditions
sit at negative indices.
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
    """``carry`` refuses zero initial components of a system of lag 2 or
    more, whose divisors are quotients of the invariant products; distinct
    from a runtime singularity."""


class Orbit(_Record):
    """A trajectory, the invariant products its iteration carried,
    w[n] = lead[n]*trail[n+1] and z[n] = trail[n]*lead[n+1] for
    n = 0..len(trajectory)-2 with lead and trail as in SHAPES, and the
    divisor lists ``telescope`` built (first, second) with."""

    trajectory: Trajectory
    w: tuple[Fraction, ...]
    z: tuple[Fraction, ...]
    divisors: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]


class Carried(_Record):
    """The short values an orbit's iteration carries, O(n) bits each: the
    invariant products w and z (as in Orbit), per component (first,
    second) the factor alpha + beta*P of each completed step n (see
    carry), and the first singular step.  ``orbit`` builds the long
    entries."""

    w: tuple[Fraction, ...]
    z: tuple[Fraction, ...]
    factors: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    singular: Singularity | None


def carry(system: str, params, ics, n_max: int) -> Carried:
    """The values that iterating ``system`` up to index ``n_max``
    (inclusive) carries, without its long entries: what ``reduce`` reads.

    With ((p, q), (r, s)) = rule(params), step n + lag + 1 advances
    w[n+lag] = z[n]/(p + q*z[n]) and z[n+lag] = w[n]/(r + s*w[n]); it is
    singular where the trailing component's p + q*z[n] or the leading
    one's r + s*w[n] vanishes, the first component checked first (the
    factor Y[n+lag] of a longer lag never does).  At a longer lag ``orbit``
    divides by quotients of w and z, so zero initials are refused.
    """
    shape = SHAPES[system]
    lag = shape.lag
    if n_max < lag:
        raise ValueError(f"n_max must be >= {lag} for System {system}")
    if lag > 1 and not all(ics._astuple()):
        raise ZeroInitialError(f"System {system} initial components must all be nonzero")
    (p, q), (r, s) = shape.rule(params)
    # a unit coefficient is left unmultiplied: 1*z costs as much as the sum
    unit_q, unit_s = q == 1, s == 1
    products = [value for _, value in shape.seed_products(ics)]
    w, z = products[:lag], products[lag:]
    lead_dens, trail_dens = [], []

    def stop(singular=None):
        factors = shape.by_lead(tuple(lead_dens), tuple(trail_dens))
        return Carried(tuple(w), tuple(z), factors, singular)

    for n in range(n_max - lag):
        den_lead = r + (w[n] if unit_s else s * w[n])
        den_trail = p + (z[n] if unit_q else q * z[n])
        if not (den_lead and den_trail):
            k = shape.by_lead(den_lead, den_trail).index(0)
            text = shape.denominators[k].format(n, n + 1, n + lag)
            return stop(Singularity(n + lag + 1, ("first", "second")[k], text))
        lead_dens.append(den_lead)
        trail_dens.append(den_trail)
        w.append(z[n] / den_trail)
        z.append(w[n] / den_lead)
    return stop()


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


def telescope(values: list, divisors, last: int):
    """Extend ``values`` in place to entries 0..last by
    entry i = entry i-2 / divisors[i-2], one long entry by a short divisor
    per step, and return ``divisors``, the list rational.format_sequence
    prints the entries from.  The one loop that builds an entry from the
    entry two back: the orbit, the closed forms' assembly and their
    extension run it (``Telescoping.entries``)."""
    for i in range(len(values), last + 1):
        values.append(values[i - 2] / divisors[i - 2])
    return divisors


class Telescoping(_Record):
    """What ``telescope`` builds a pair of components' entries 0..last
    from: per component (first, second) its first entries and its divisor
    list, all short values.  Each component is built on its own, so the
    two can be built in two processes (``both``).  Compared by identity:
    routes that share one telescoping share its entries."""

    starts: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    divisors: tuple
    last: int

    __eq__, __hash__ = object.__eq__, object.__hash__

    def entries(self, k: int) -> list[Fraction]:
        """Entries 0..last of component k (0 first, 1 second)."""
        values = list(self.starts[k])
        telescope(values, self.divisors[k], self.last)
        return values

    def bits(self) -> int:
        """A bound of the second component's numerator and denominator
        bits, summed over its entries, which building and printing them
        take time about in proportion to: entry i = entry i-2 / divisor
        has at most the bits of both."""
        sizes = [_bits(value) for value in self.starts[1]]
        divisors = self.divisors[1]
        for i in range(len(sizes), self.last + 1):
            sizes.append(sizes[i - 2] + _bits(divisors[i - 2]))
        return sum(sizes)


def _bits(value: Fraction) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


def orbit_telescoping(system: str, params, ics, n_max: int) -> tuple[Carried, Telescoping]:
    """The short part of ``orbit``, shared by its two components: the
    carried values, and how ``telescope`` builds each component's entries
    from its initial values.  Entry i is entry i-2 divided by entry i-2 of
    a divisor list: at lag 1 the factors ``carry`` recorded, defined on
    zero components too; at a longer lag the quotients w[i-2]/z[i-1]
    (leading) and z[i-2]/w[i-1] (trailing), from i = 2 on."""
    shape = SHAPES[system]
    carried = carry(system, params, ics, n_max)
    w, z = carried.w, carried.z
    divisors = carried.factors
    if shape.lag > 1:  # lead[i-2]/lead[i] and trail[i-2]/trail[i]
        rest = range(2, len(w) + 1)
        divisors = shape.by_lead(
            tuple(w[i - 2] / z[i - 1] for i in rest), tuple(z[i - 2] / w[i - 1] for i in rest)
        )
    return carried, Telescoping(shape.split(ics._astuple()), divisors, len(w))


def orbit(system: str, params, ics, n_max: int) -> Orbit:
    """Iterate ``system`` exactly up to index ``n_max`` (inclusive): the
    carried values, then each component's long entries by ``telescope``
    (see orbit_telescoping)."""
    carried, built = orbit_telescoping(system, params, ics, n_max)
    first, second = (tuple(built.entries(k)) for k in (0, 1))
    trajectory = Trajectory(SHAPES[system].labels, first, second, carried.singular)
    return Orbit(trajectory, carried.w, carried.z, built.divisors)


# The second process pays where the entries it builds are long.  Measured
# in fresh processes on a 2 vCPU Xeon VM (Python 3.11): a fork takes about
# 1 ms, loading pickle 3 ms and reaping the child 2 ms, and the literals'
# trip through the pipe about 0.7 ns per bit of the entries printed (14 MB
# in 30 ms), against 5-8 ns per bit to build and print them.  With the
# parent's copy-on-write faults on top, forking saved nothing measurable
# at 3.9M bits (System A at n = 220), 48 ms at 10M (n = 300) and 30 % at
# 46M (n = 500).  The bound overstates entries that cancel, as with unit
# parameters, by 2-3 times: at A's a = b = 1 and n = 1500 (12.6M bits by
# the bound) forking was as fast as not.
_FORK_BITS = 4_000_000


def both(job: Callable, bits: int) -> tuple:
    """(job(0), job(1)), one job per component.  Where ``bits``, the size
    of job(1)'s work (Telescoping.bits), exceeds _FORK_BITS, job(1) runs
    in a forked child while this process runs job(0) (``sdeq.fork.run``,
    loaded only then); otherwise both run here, in order."""
    if bits <= _FORK_BITS:
        return job(0), job(1)
    from . import fork

    return fork.run(job)


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
