"""Exact rational scalars: the literal grammar, printing, and small helpers.

Every value handled by this package is an arbitrary-precision rational
(`fractions.Fraction`, or on the comparison path a reduced pair of ints);
floats are rejected at the boundary so no rounding can creep into a
computation.

* `parse_rational` reads the one literal grammar (``-1/2``) of the CLI
  flags, and `format_rational`, `format_sequence` and `format_pairs` write
  it in every report.  `format_telescoping` writes the long entries of an
  orbit or a sweep: it builds each one in decimal from the entry two back
  and the short divisor ``systems.Telescoping.entries`` divides by, so
  that no long int is built in binary or converted.
* `rat` coerces an int, literal or Fraction and refuses floats.
* `pair_quotients` divides rationals held as reduced
  (numerator, denominator) pairs of ints with a positive denominator, the
  form in which the comparison path carries its short values: a pair
  costs no `Fraction` construction, whose per-operation overhead exceeds
  the arithmetic on values of up to a few thousand bits.
* `geometric_sum` is the exact sum of a geometric series, empty for a
  negative upper index (`reduction.closed_ST` evaluates S and T with it),
  and `alternating_sign` is (-1)**n, read at orbit labels by the symmetry
  group's X2 action.
"""

from __future__ import annotations

import decimal
import re
from fractions import Fraction
from math import gcd

# The universal scalar type.  Stored reduced with positive denominator,
# value equality -- Fraction guarantees all of it.
ExactScalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# optional '-', digits, optionally '/' and digits (denominator nonzero)
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal such as ``"3"`` or ``"-1/2"``.

    The accepted grammar is deliberately narrower than Fraction's own
    parser: no sign on the denominator, no decimals, no exponent, no
    whitespace.  Raises ValueError naming the offending token.  Literals
    of any length are accepted.
    """
    if _RATIONAL_RE.fullmatch(text) is None:
        raise ValueError(f"not a rational literal: {text!r}")
    numer, _, denom = text.partition("/")
    den = _digits_to_int(denom) if denom else 1
    if den == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    if numer.startswith("-"):
        return Fraction(-_digits_to_int(numer[1:]), den)
    return Fraction(_digits_to_int(numer), den)


def format_rational(value: Fraction) -> str:
    """Render ``value`` in the same grammar parse_rational accepts."""
    return format_sequence([value])[0]


def format_sequence(values) -> list[str]:
    """Render each of ``values`` exactly as format_rational does: short
    ints by str(), long ones by divide and conquer (see _digits)."""
    return format_pairs(value.as_integer_ratio() for value in values)


def format_pairs(pairs) -> list[str]:
    """format_sequence of the values held as reduced (numerator,
    denominator) pairs with a positive denominator."""
    return [
        ("-" if num < 0 else "") + _digits(abs(num)) + ("" if den == 1 else "/" + _digits(den))
        for num, den in pairs
    ]


def format_telescoping(starts, divisors, last: int) -> list[str]:
    """The literals of entries 0..last of one component of a
    ``systems.Telescoping``: its first entries ``starts``, Fractions, then
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
    _EXACT context, so no ambient context can round it, and a zero
    divisor raises (decimal.InvalidOperation) instead of printing.
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


# str(int) and int(str) take quadratic time and refuse more than 4300
# digits by default.  Past the sizes below, both conversions split the
# number in halves and recombine the halves (the divide and conquer of
# CPython 3.12's _pylong); leaves stay under the limit.  Below
# _FORMAT_STR_BITS (3,600 digits) str() beats the divide and conquer.
_FORMAT_STR_BITS = 12_000
_FORMAT_LEAF_BITS = 2048
_PARSE_SPLIT_DIGITS = 3000


# _POW2[k] = 2**(_FORMAT_LEAF_BITS << k), exact, filled on demand: split
# widths are _FORMAT_LEAF_BITS times a power of two and halve exactly, so
# every conversion shares these powers.  Each entry depends only on k, so
# concurrent fills agree.
_POW2: dict[int, decimal.Decimal] = {}


# Every operation in this context is exact or raises: at MAX_PREC integer
# sums, products and exact quotients need no rounding, and Inexact is
# trapped, so a step that would round raises instead of losing digits.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
)


def _digits(n: int) -> str:
    """The decimal digits of a nonnegative int."""
    if n.bit_length() < _FORMAT_STR_BITS:
        return str(n)
    with decimal.localcontext(_EXACT):
        return str(_to_decimal(n))


def _to_decimal(n: int) -> decimal.Decimal:
    """Exact Decimal of a nonnegative int by divide and conquer; call it
    in the _EXACT context."""

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


def _digits_to_int(digits: str) -> int:
    if len(digits) <= _PARSE_SPLIT_DIGITS:
        return int(digits)
    powers: dict[int, int] = {}

    def pow5(width: int) -> int:
        if width not in powers:
            if width <= _PARSE_SPLIT_DIGITS:
                powers[width] = 5**width
            else:
                powers[width] = pow5(width >> 1) * pow5(width - (width >> 1))
        return powers[width]

    def convert(start: int, stop: int) -> int:
        # digits[start:stop] = high * 10**width + low, and 10**w = 5**w << w
        if stop - start <= _PARSE_SPLIT_DIGITS:
            return int(digits[start:stop])
        mid = (start + stop + 1) >> 1
        width = stop - mid
        return ((convert(start, mid) * pow5(width)) << width) + convert(mid, stop)

    return convert(0, len(digits))


def pair_quotients(tops, bottoms) -> list[tuple[int, int]]:
    """tops[i]/bottoms[i] for reduced (numerator, denominator) pairs with
    positive denominators, bottoms nonzero, as such pairs.  As Fraction
    divides, two cross gcds reduce each quotient: gcd(top_num, bottom_num)
    and gcd(top_den, bottom_den), each on values of the operands' size,
    where one gcd of the cross products would run on values twice as
    long."""
    quotients = []
    for (a_num, a_den), (b_num, b_den) in zip(tops, bottoms):
        g, h = gcd(a_num, b_num), gcd(a_den, b_den)
        num, den = (a_num // g) * (b_den // h), (a_den // h) * (b_num // g)
        quotients.append((num, den) if den > 0 else (-num, -den))
    return quotients


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, rational literal, or Fraction to an ExactScalar.

    Floats are refused: admitting them would silently launder binary
    rounding error into the exact pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to an exact rational")


def geometric_sum(q: int | Fraction, m: int) -> Fraction:
    """Sum of q**i for i = 0..m, exactly.

    m may be negative, in which case the sum is empty and equals 0.
    For q != 1 the closed form (q**(m+1) - 1)/(q - 1) is used; for q == 1
    the sum is m + 1.
    """
    if m < 0:
        return ZERO
    q = rat(q)
    if q == 1:
        return Fraction(m + 1)
    return (q ** (m + 1) - 1) / (q - 1)


def alternating_sign(n: int) -> Fraction:
    """(-1)**n as an exact scalar; n may be negative (relabeled indices)."""
    return ONE if n % 2 == 0 else -ONE
