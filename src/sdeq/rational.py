"""Exact rational scalars: the literal grammar, printing, and small helpers.

Every value handled by this package is an arbitrary-precision rational
(`fractions.Fraction`, or on the comparison path a reduced pair of ints);
floats are rejected at the boundary so no rounding can creep into a
computation.

* `parse_rational` reads the one literal grammar (``-1/2``) of the CLI
  flags, and `format_rational`, `format_sequence` and `format_pairs` write
  it in every report; they derive the digits of a long entry from the
  entry two back when given the divisor list `systems.telescope` built
  the list with.
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


def format_sequence(values, divisors=None) -> list[str]:
    """Render each of ``values`` exactly as format_rational does.

    Long orbit entries two indices apart differ by a short factor (System
    A's u[n+2] = u[n]/(a + z[n]), with z of O(n) bits against values of
    about n**2 bits), so, given that factor, the digits of a long numerator
    or denominator are derived from those of the entry two back instead of
    from scratch.

    ``divisors``, when given, is the list ``systems.telescope`` returned
    for ``values``: divisors[i-2] = (+-q, p), the reduced pair of
    values[i-2]/values[i] (i >= 2), the value entry i was built by dividing
    by.  Then G = den[i-2]*q/den[i] is an exact integer of at most
    bits(p) + bits(q) bits, read from leading bits, and the digits are
    num[i-2]*p/G and den[i-2]*q/G: no gcd and no long division.  An
    unreduced q/p works too, since G absorbs the common factor.  The digits
    are exact by construction, because the kernel divided entry i-2 by
    divisors[i-2] to build entry i.  A divisor that built no entry is
    caught: an entry whose two sides give no G or different ones, or whose
    divisions are not exact, is converted from scratch.  Without
    ``divisors`` every long entry is converted from scratch.
    """
    return format_pairs([value.as_integer_ratio() for value in values], divisors)


def format_pairs(pairs, divisors=None) -> list[str]:
    """format_sequence of the values held as reduced (numerator,
    denominator) pairs with a positive denominator."""
    pairs = list(pairs)
    numerators = [abs(num) for num, _ in pairs]
    denominators = [den for _, den in pairs]
    if divisors is None:
        steps = (lambda i: None,) * 2
    else:
        steps = _divisor_steps(numerators, denominators, divisors)
    numerators, denominators = map(_digit_strings, (numerators, denominators), steps)
    return [
        ("-" if num < 0 else "") + digits + ("" if den == 1 else "/" + den_digits)
        for (num, den), digits, den_digits in zip(pairs, numerators, denominators)
    ]


# str(int) and int(str) take quadratic time and refuse more than 4300
# digits by default.  Past the sizes below, both conversions split the
# number in halves and recombine the halves (the divide and conquer of
# CPython 3.12's _pylong); leaves stay under the limit.  An int of
# _FORMAT_SPLIT_BITS or more is long: it chains from the entry two back
# when it can.  str() takes about 6 us at 2,000 bits and 25 us at 4,000,
# a chained step 4 to 6 us, so chaining pays from about 2,000 bits.  A long
# int that does not chain takes str() below _FORMAT_STR_BITS (3,600 digits),
# where it beats the divide and conquer.
_FORMAT_SPLIT_BITS = 2_000
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


def _digit_strings(ints: list[int], step) -> list[str]:
    """Decimal digits of each nonnegative int in ``ints``.

    A long entry i is x[i-2]*up/down, taken on the kept digits of entry
    i-2, when entry i-2 was long too and step(i) gives (up, down); an entry
    without them, or whose division leaves a remainder, is converted from
    scratch; digits from str() are read into a Decimal only to chain.
    """
    texts = []
    kept: list[decimal.Decimal | str | None] = [None, None]  # by index parity
    for i, x in enumerate(ints):
        if x.bit_length() < _FORMAT_SPLIT_BITS:
            texts.append(str(x))
            kept[i & 1] = None
            continue
        with decimal.localcontext(_EXACT):
            base = kept[i & 1]
            factors = step(i) if base is not None else None
            digits = None
            if factors is not None:
                quotient, rest = divmod(decimal.Decimal(base) * factors[0], factors[1])
                digits = None if rest else quotient
            if digits is None:
                digits = str(x) if x.bit_length() < _FORMAT_STR_BITS else _to_decimal(x)
            texts.append(str(digits))
        kept[i & 1] = digits
    return texts


def _divisor_steps(numerators: list[int], denominators: list[int], divisors):
    """(numerator step, denominator step) for _digit_strings from
    divisors[i-2] = (+-q, p): (p, G) and (q, G), with G read from leading bits
    of each side (see format_sequence); None when the sides disagree."""
    factors: dict[int, tuple] = {}

    def both(i: int) -> tuple:
        if i not in factors:
            num, p = divisors[i - 2]
            q = abs(num)
            g = _exact_quotient(denominators[i - 2], denominators[i], q)
            same = g is not None and g == _exact_quotient(numerators[i - 2], numerators[i], p)
            factors[i] = ((p, g), (q, g)) if same else (None, None)
        return factors[i]

    return (lambda i: both(i)[0]), (lambda i: both(i)[1])


def _exact_quotient(a: int, b: int, factor: int = 1) -> int | None:
    """a*factor/b, read from leading bits when it is a positive int; None
    when it is not (or b is 0), save for a rare quotient within 2**-32 of
    an int.

    Both operands are cut by one shift that leaves b 64 bits more than the
    quotient and factor have, so the cut moves the quotient by less than
    2**-61.  A cut quotient farther than 2**-32 from an int is therefore no
    int; a nearer one is taken as the int, which is right whenever b is
    known to divide a*factor.
    """
    width = a.bit_length() + factor.bit_length() - b.bit_length() + 1  # >= bits of the quotient
    if width < 1 or not b:
        return None  # a*factor < b, or b = 0
    shift = max(0, b.bit_length() - width - factor.bit_length() - 64)
    top, bottom = (a >> shift) * factor, b >> shift
    quotient, rest = divmod(top, bottom)
    if 2 * rest > bottom:
        quotient, rest = quotient + 1, bottom - rest
    return quotient if quotient and rest << 32 < bottom else None


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
