"""Printing long values in decimal: the entries of an orbit or a sweep,
and ``iterate``.

Only ``iterate`` and ``solve --sweep`` print long entries, so only they
load this module; another report loads it only for a value past
``rational._FORMAT_STR_BITS``, which ``_to_decimal`` converts.
``format_telescoping`` writes the entries of one component of an
``orbit.Telescoping``: it builds each entry in decimal from the entry
two back and the short divisor ``Telescoping.entries`` divides by, so
that no long int is built in binary or converted.  ``both`` prints the
two components, the second in a forked child process (``sdeq.fork``)
where the entries are long enough to pay for it.
"""

from __future__ import annotations

import decimal
from math import gcd

from .rational import _EXACT, _digits, _Literals, _lit_map
from .systems import SHAPES


def format_telescoping(starts, divisors, last: int) -> list[str]:
    """The literals of entries 0..last of one component of an
    ``orbit.Telescoping``: its first entries ``starts``, Fractions, then
    entry i = entry i-2 / divisors[i-2], each divisor a reduced pair
    (dn, dd) with dd > 0.

    The entries are built in decimal, never in binary, so no long int is
    converted: each parity chain keeps its entry as a sign and Decimal
    integers N/D, reduced.  As Fraction divides, two gcds with a short
    operand reduce each step, g = gcd(N mod |dn|, |dn|) and
    h = gcd(D mod dd, dd), and the entry becomes
    (N/g * dd/h) / (D/h * |dn|/g), reduced because N/D and dn/dd are: two
    remainders by short ints, two exact divisions and two multiplications,
    each skipped where its factor is 1.  Every operation runs in the
    rational._EXACT context, so no ambient context can round it, and a
    zero divisor raises (decimal.InvalidOperation) instead of printing.
    """
    texts = []
    chains: list = [None, None]  # (negative, N, D) of the last entry of each index parity
    with decimal.localcontext(_EXACT):
        for i in range(last + 1):
            if i < len(starts):
                num, den = starts[i].as_integer_ratio()
                negative = num < 0
                num, den = decimal.Decimal(_digits(abs(num))), decimal.Decimal(_digits(den))
            else:
                negative, num, den = chains[i & 1]
                dn, dd = divisors[i - 2]
                negative ^= dn < 0
                down, up = abs(dn), dd
                if down != 1:
                    g = gcd(int(num % down), down)
                    if g != 1:
                        num, down = num // g, down // g
                if up != 1:
                    h = gcd(int(den % up), up)
                    if h != 1:
                        den, up = den // h, up // h
                    if up != 1:
                        num *= up
                if down != 1:
                    den *= down
            chains[i & 1] = negative, num, den
            texts.append(
                ("-" if negative and num else "") + str(num) + ("" if den == 1 else "/" + str(den))
            )
    return texts


# _POW2[k] = 2**(_FORMAT_LEAF_BITS << k), exact, filled on demand: split
# widths are _FORMAT_LEAF_BITS times a power of two and halve exactly, so
# every conversion shares these powers.  Each entry depends only on k, so
# concurrent fills agree.
_FORMAT_LEAF_BITS = 2048
_POW2: dict[int, decimal.Decimal] = {}


def _to_decimal(n: int) -> decimal.Decimal:
    """Exact Decimal of a nonnegative int by divide and conquer (see
    rational._FORMAT_STR_BITS); call it in the rational._EXACT context."""

    def convert(value: int, level: int) -> decimal.Decimal:
        # value < 2**(_FORMAT_LEAF_BITS << level); value = high * 2**half + low
        if level == 0:
            return decimal.Decimal(value)
        half = _FORMAT_LEAF_BITS << (level - 1)
        high = value >> half
        low = value - (high << half)
        return convert(high, level - 1) * _POW2[level - 1] + convert(low, level - 1)

    leaves = -(-n.bit_length() // _FORMAT_LEAF_BITS)
    level = (leaves - 1).bit_length()
    for k in range(level):
        if k not in _POW2:
            _POW2[k] = _POW2[k - 1] ** 2 if k else decimal.Decimal(2) ** _FORMAT_LEAF_BITS
    return convert(n, level)


# The second process pays where the entries it prints are long.  Measured
# in fresh processes on a 2 vCPU Xeon VM (Python 3.11): a fork takes about
# 1 ms, loading pickle 3 ms (once, with sdeq.fork, before the fork) and
# reaping the child 2 ms, and the literals' trip through the pipe about
# 0.7 ns per bit of the entries printed (14 MB in 30 ms), against 2-6 ns
# per bit to build and print them in decimal (1.8 at A's a = b = 1 and
# n = 2000, 5.6 at A's non-unit input at n = 500).  Forking an ``iterate``
# cost 5-15 % at 0.1-1.7M bits, and saved 3 % at 5.7M (System A at
# n = 250), 11 % at 12.7M (System B at n = 500) and 26 % at 46M (A at
# n = 500).  The bound overstates entries that cancel, as with unit
# parameters, by up to 3 times: on the six unit-parameter inputs at
# n = 2000 (8-23M bits by the bound, 5-10M built) forking was within 4 %
# of one process either way.
_FORK_BITS = 4_000_000


def _bits(built) -> int:
    """A bound of the second component's numerator and denominator bits,
    summed over its entries, which building and printing them take time
    about in proportion to: entry i = entry i-2 / divisor has at most the
    bits of both."""
    sizes = [_size(*value.as_integer_ratio()) for value in built.starts[1]]
    divisors = built.divisors[1]
    for i in range(len(sizes), built.last + 1):
        sizes.append(sizes[i - 2] + _size(*divisors[i - 2]))
    return sum(sizes)


def _size(num: int, den: int) -> int:
    return num.bit_length() + den.bit_length()


def both(built) -> tuple:
    """The literals of both components of the orbit.Telescoping ``built``
    (format_telescoping): the printing of ``iterate`` and ``solve --sweep``,
    the only callers.  Where the size of the second component's work
    (``_bits``) exceeds _FORK_BITS, it runs in a forked child while this
    process prints the first (``sdeq.fork.run``, loaded only then);
    otherwise both run here, in order."""

    def job(k: int) -> list[str]:
        return format_telescoping(built.starts[k], built.divisors[k], built.last)

    if _bits(built) <= _FORK_BITS:
        return job(0), job(1)
    from . import fork

    return fork.run(job)


def _run_iterate(config) -> tuple:
    """The ``iterate`` subcommand: the orbit's short values, then both
    components printed (``both``); it always passes."""
    from .orbit import orbit_telescoping

    carried, built = orbit_telescoping(config.system, config.params, config.ics, config.n)
    firsts, seconds = both(built)
    labels = SHAPES[config.system].labels
    if config.format == "csv":
        return True, (["n", *labels], [map(str, range(len(firsts))), firsts, seconds])
    singular = carried.singular
    if singular is not None:
        singular = {"step": singular.step, "component": singular.component}
    return True, {
        "system": config.system,
        "params": _lit_map(config.params),
        "N": config.n,
        "first": _Literals(firsts),
        "second": _Literals(seconds),
        "singular": singular,
    }
