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
first singular step, all O(n)-bit values, held as reduced
(numerator, denominator) pairs of ints: on values this short a step
costs a few int operations, and Fraction operators several times more.
``reduce`` reads nothing else.  ``orbit_telescoping`` then states, as a
``Telescoping``, how each component's long entries are built from its
entries 0 and 1: each divides the entry two back by a short listed
divisor, the step factors at lag 1 and at a longer lag the divisors of
``assemble``, the one assembly kernel, which the closed forms build
their sweeps with too.  The entries are built as Fractions
(``Telescoping.entries``) or in decimal, as the literals printed
(``Telescoping.literals``).  Each component is built on its own, and
``both`` runs the two components' printing jobs of ``iterate`` and
``solve --sweep`` in the CLI, the second in a forked child process
(``sdeq.fork``) where the entries are long enough to pay for it;
``verify`` and ``difftest`` compare telescopings by their two starts and
divisor lists and build no entry where they agree.  ``iterate`` builds
both components here and returns the trajectory.  ``shift_back``
performs the index relabeling that identifies these sequences with the
originally posed systems, whose initial conditions sit at negative
indices.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import gcd

from .rational import format_telescoping, pair_quotients, rat


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


Pair = tuple[int, int]


class Carried(_Record):
    """The short values an orbit's iteration carries, O(n) bits each: the
    invariant products w[n] = lead[n]*trail[n+1] and
    z[n] = trail[n]*lead[n+1] for n = 0..len(orbit)-2, with lead and
    trail as in SHAPES, per component (first, second) the factor
    alpha + beta*P of each completed step n (see carry), and the first
    singular step.  Each value is a reduced (numerator, denominator) pair
    of ints with a positive denominator.  ``orbit_telescoping`` says how
    the long entries are built from them."""

    w: tuple[Pair, ...]
    z: tuple[Pair, ...]
    factors: tuple[tuple[Pair, ...], tuple[Pair, ...]]
    singular: Singularity | None


def _step(c: Fraction, d: Fraction) -> Callable:
    """x -> (f, x/f) for f = c + d*x, on reduced pairs (see Carried); None
    where f vanishes.

    With c = cn/cd, d = dn/dd and K = cd*dd, a value x = xn/xd gives
    f = D/(K*xd) and x/f = xn*K/D, where D = cn*dd*xd + dn*cd*xn.  As xn
    and xd are coprime, gcd(D, xd) = gcd(dn*cd, xd) and
    gcd(D, xn) = gcd(cn*dd, xn), so each result is reduced by gcds that
    have a short operand, none of two long values: one each where c and d
    are ints (K = 1), two where they are not."""
    cn, cd = c.as_integer_ratio()
    dn, dd = d.as_integer_ratio()
    scale, shift, unit = cn * dd, dn * cd, cd * dd

    def step(xn: int, xd: int):
        den = scale * xd + shift * xn
        if not den:
            return None
        g, h = gcd(shift, xd), gcd(scale, xn)
        f_num, f_den, num, den = den // g, xd // g, xn // h, den // h
        if unit != 1:
            g, h = gcd(unit, f_num), gcd(unit, den)
            f_num, f_den, num, den = f_num // g, unit // g * f_den, num * (unit // h), den // h
        return (f_num, f_den), ((num, den) if den > 0 else (-num, -den))

    return step


def carry(system: str, params, ics, n_max: int) -> Carried:
    """The values that iterating ``system`` up to index ``n_max``
    (inclusive) carries, without its long entries: what ``reduce`` reads.

    With ((p, q), (r, s)) = rule(params), step n + lag + 1 advances
    w[n+lag] = z[n]/(p + q*z[n]) and z[n+lag] = w[n]/(r + s*w[n]) (on
    pairs, by ``_step``); it is singular where the trailing component's
    p + q*z[n] or the leading one's r + s*w[n] vanishes, the first
    component checked first (the factor Y[n+lag] of a longer lag never
    does).  At a longer lag the orbit divides by quotients of w and z, so
    zero initials are refused.
    """
    shape = SHAPES[system]
    lag = shape.lag
    if n_max < lag:
        raise ValueError(f"n_max must be >= {lag} for System {system}")
    if lag > 1 and not all(ics._astuple()):
        raise ZeroInitialError(f"System {system} initial components must all be nonzero")
    (p, q), (r, s) = shape.rule(params)
    trail_step, lead_step = _step(p, q), _step(r, s)
    products = [value.as_integer_ratio() for _, value in shape.seed_products(ics)]
    w, z = products[:lag], products[lag:]
    lead_dens, trail_dens = [], []

    def stop(singular=None):
        factors = shape.by_lead(tuple(lead_dens), tuple(trail_dens))
        return Carried(tuple(w), tuple(z), factors, singular)

    for n in range(n_max - lag):
        lead, trail = lead_step(*w[n]), trail_step(*z[n])
        if lead is None or trail is None:
            k = shape.by_lead(lead, trail).index(None)
            text = shape.denominators[k].format(n, n + 1, n + lag)
            return stop(Singularity(n + lag + 1, ("first", "second")[k], text))
        lead_dens.append(lead[0])
        trail_dens.append(trail[0])
        w.append(trail[1])
        z.append(lead[1])
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


class Telescoping(_Record):
    """What a pair of components' entries 0..last are built from: per
    component (first, second) its entries 0 and 1 (entry 0 alone where
    last is 0), Fractions, and its divisor list of reduced pairs (see
    Carried), all short values; entry i is entry i-2 / divisors[i-2].
    ``assemble`` makes each one from S and T but a lag-1 orbit's, whose
    divisors are the step factors of ``carry``.  Each component is built
    on its own, as Fractions (``entries``) or as printed literals
    (``literals``), so the two can be printed in two processes
    (``both``), and two telescopings are compared by those short values
    (``mismatches``).  Compared by identity: routes that share one
    telescoping are compared once."""

    starts: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    divisors: tuple
    last: int

    __eq__, __hash__ = object.__eq__, object.__hash__

    def entries(self, k: int) -> list[Fraction]:
        """Entries 0..last of component k (0 first, 1 second): the one
        loop that builds an entry from the entry two back as a Fraction.
        Each divisor is made a Fraction for its division, so that a long
        entry costs two gcds with a short operand, not a gcd of two long
        ints; ``literals`` runs the same step in decimal."""
        values, divisors = list(self.starts[k]), self.divisors[k]
        for i in range(len(values), self.last + 1):
            values.append(values[i - 2] / Fraction(*divisors[i - 2]))
        return values

    def literals(self, k: int) -> list[str]:
        """The rational literals of entries 0..last of component k, built
        in decimal with no Fraction entry (rational.format_telescoping):
        format_rational of each of entries(k)."""
        return format_telescoping(self.starts[k], self.divisors[k], self.last)

    def mismatches(self, other: Telescoping, k: int) -> list[int]:
        """The indices 0..last at which component k of ``other``'s entries
        differs from this one's, without building an entry.

        Every start value and divisor of the two is nonzero here (on the
        comparison path a zero initial value, S or T is a forbidden input,
        a zero factor a singularity, and a longer lag refuses zero
        initials).  So other[i] = self[i] exactly when the ratio
        other[i]/self[i], which the two starts give and each parity chain
        carries by this divisor over the other's, is 1.  A passing
        comparison costs one equality of two short pairs per index: the
        ratio changes only where two divisors differ."""
        ratio = [theirs / mine for mine, theirs in zip(self.starts[k], other.starts[k])]
        differ = [value != 1 for value in ratio]
        found = [i for i, value in enumerate(differ) if value]
        mine, theirs = self.divisors[k], other.divisors[k]
        for i in range(len(ratio), self.last + 1):
            if mine[i - 2] != theirs[i - 2]:
                ratio[i % 2] *= Fraction(*mine[i - 2]) / Fraction(*theirs[i - 2])
                differ[i % 2] = ratio[i % 2] != 1
            if differ[i % 2]:
                found.append(i)
        return found

    def bits(self) -> int:
        """A bound of the second component's numerator and denominator
        bits, summed over its entries, which building and printing them
        take time about in proportion to: entry i = entry i-2 / divisor
        has at most the bits of both."""
        sizes = [_bits(*value.as_integer_ratio()) for value in self.starts[1]]
        divisors = self.divisors[1]
        for i in range(len(sizes), self.last + 1):
            sizes.append(sizes[i - 2] + _bits(*divisors[i - 2]))
        return sum(sizes)


def _bits(num: int, den: int) -> int:
    return num.bit_length() + den.bit_length()


def assemble(system: str, S, T, first0: Fraction, second0: Fraction, count: int) -> Telescoping:
    """The one assembly kernel: how orbit entries 0..count are built from
    the auxiliary values S[0..count-1], T[0..count-1], nonzero reduced
    pairs, and nonzero start values (first0, second0), Fractions.

    The orbit is the telescoped product, two indices at a time,

        trail[i] = trail[i-2] / (S[i-1]/T[i-2])
        lead[i]  = lead[i-2]  / (T[i-1]/S[i-2])

    from trail[1] = 1/(lead[0]*S[0]) and lead[1] = 1/(trail[0]*T[0]), with
    lead and trail the components in the order of SHAPES: each step
    divides one long value by a short one, so building an entry costs
    about what one step of iteration costs.  The divisors are pairs,
    formed from the four ints of S and T.  The closed forms read S and T
    from their sweep, and an orbit of lag 2 or more from the reciprocals
    of its carried w and z, as divisors w[i-2]/z[i-1] and z[i-2]/w[i-1].
    """
    shape = SHAPES[system]
    lead0, trail0 = shape.by_lead(first0, second0)
    trail, lead = [trail0], [lead0]
    if count >= 1:
        trail.append(1 / lead0 / Fraction(*S[0]))
        lead.append(1 / trail0 / Fraction(*T[0]))
    divisors = (
        pair_quotients(T[1:count], S[: count - 1]),
        pair_quotients(S[1:count], T[: count - 1]),
    )
    return Telescoping(shape.by_lead(tuple(lead), tuple(trail)), shape.by_lead(*divisors), count)


def turned_over(pairs) -> list[Pair]:
    """1/x of each nonzero reduced pair x (see Carried)."""
    return [(den, num) if num > 0 else (-den, -num) for num, den in pairs]


def orbit_telescoping(system: str, params, ics, n_max: int) -> tuple[Carried, Telescoping]:
    """The short part of iterating ``system`` up to index ``n_max``,
    shared by its two components: the carried values, and how each
    component's entries are built from its entries 0 and 1.  At lag 1
    entry i is entry i-2 divided by the factor ``carry`` recorded for
    step i-2, defined on zero components too; at a longer lag ``assemble``
    builds the orbit from S = 1/w and T = 1/z, from entry 2 on."""
    shape = SHAPES[system]
    carried = carry(system, params, ics, n_max)
    starts, last = shape.split(ics._astuple()), len(carried.w)
    if shape.lag == 1:
        return carried, Telescoping(starts, carried.factors, last)
    S, T = turned_over(carried.w), turned_over(carried.z)
    return carried, assemble(system, S, T, starts[0][0], starts[1][0], last)


# The second process pays where the entries it prints are long.  Measured
# in fresh processes on a 2 vCPU Xeon VM (Python 3.11): a fork takes about
# 1 ms, loading pickle 3 ms and reaping the child 2 ms, and the literals'
# trip through the pipe about 0.7 ns per bit of the entries printed (14 MB
# in 30 ms), against 2-6 ns per bit to build and print them in decimal
# (1.8 at A's a = b = 1 and n = 2000, 5.6 at A's non-unit input at
# n = 500).  Forking an ``iterate`` cost 5-15 % at 0.1-1.7M bits, and
# saved 3 % at 5.7M (System A at n = 250), 11 % at 12.7M (System B at
# n = 500) and 26 % at 46M (A at n = 500).  The bound overstates entries
# that cancel, as with unit parameters, by up to 3 times: on the six
# unit-parameter inputs at n = 2000 (8-23M bits by the bound, 5-10M built)
# forking was within 4 % of one process either way.
_FORK_BITS = 4_000_000


def both(job: Callable, bits: int) -> tuple:
    """(job(0), job(1)), one job per component: building and printing
    the entries of ``iterate`` and ``solve --sweep``, the only callers.
    Where ``bits``, the size of job(1)'s work (Telescoping.bits), exceeds
    _FORK_BITS, job(1) runs in a forked child while this process runs
    job(0) (``sdeq.fork.run``, loaded only then); otherwise both run
    here, in order."""
    if bits <= _FORK_BITS:
        return job(0), job(1)
    from . import fork

    return fork.run(job)


def iterate(system: str, params, ics, n_max: int) -> Trajectory:
    """Iterate ``system`` exactly up to index ``n_max`` (inclusive): the
    carried values, then each component's long entries
    (Telescoping.entries of orbit_telescoping)."""
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
