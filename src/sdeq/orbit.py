"""The short values of an orbit and how its long entries are built.

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
(``sdeq.printing``); ``verify`` and ``difftest`` compare telescopings by
their two starts and divisor lists and build no entry where they agree.

``systems.iterate`` loads this module on its first call, and the
subcommands that iterate load it; ``symmetry-check`` and
``check-forbidden`` never do.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import gcd

from .systems import SHAPES, Singularity, ZeroInitialError, _Record

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


class Telescoping(_Record):
    """What a pair of components' entries 0..last are built from: per
    component (first, second) its entries 0 and 1 (entry 0 alone where
    last is 0), Fractions, and its divisor list of reduced pairs (see
    Carried), all short values; entry i is entry i-2 / divisors[i-2].
    ``assemble`` makes each one from S and T but a lag-1 orbit's, whose
    divisors are the step factors of ``carry``.  Each component is built
    on its own, as Fractions (``entries``) or as printed literals
    (``printing.format_telescoping``), so the two can be printed in two
    processes (``printing.both``), and two telescopings are compared by
    those short values (``mismatches``).  Compared by identity: routes
    that share one telescoping are compared once."""

    starts: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    divisors: tuple
    last: int

    __eq__, __hash__ = object.__eq__, object.__hash__

    def entries(self, k: int) -> list[Fraction]:
        """Entries 0..last of component k (0 first, 1 second): the one
        loop that builds an entry from the entry two back as a Fraction.
        Each divisor is made a Fraction for its division, so that a long
        entry costs two gcds with a short operand, not a gcd of two long
        ints; ``printing.format_telescoping`` runs the same step in decimal."""
        values, divisors = list(self.starts[k]), self.divisors[k]
        for i in range(len(values), self.last + 1):
            values.append(values[i - 2] / Fraction(*divisors[i - 2]))
        return values

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


def pair_quotients(tops, bottoms) -> list[Pair]:
    """tops[i]/bottoms[i] for reduced (numerator, denominator) pairs with
    positive denominators, bottoms nonzero, as such pairs.  As Fraction
    divides, two cross gcds reduce each quotient: gcd(top_num, bottom_num)
    and gcd(top_den, bottom_den), each on values of the operands' size,
    where one gcd of the cross products would run on values twice as
    long; a pair costs no Fraction construction, whose per-operation
    overhead exceeds the arithmetic on values of up to a few thousand
    bits."""
    quotients = []
    for (a_num, a_den), (b_num, b_den) in zip(tops, bottoms):
        g, h = gcd(a_num, b_num), gcd(a_den, b_den)
        num, den = (a_num // g) * (b_den // h), (a_den // h) * (b_num // g)
        quotients.append((num, den) if den > 0 else (-num, -den))
    return quotients


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
