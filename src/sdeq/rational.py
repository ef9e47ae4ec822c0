"""Exact rational scalars and shared algebraic helpers.

Every value handled by this package is an arbitrary-precision rational
(`fractions.Fraction`); floats are rejected at the boundary so no rounding
can creep into a computation.  The helpers here codify two conventions the
closed forms rely on silently:

* empty sums are 0 and empty products are 1 (so every formula returns the
  initial conditions unchanged at the first indices), and
* parity dispatch is done with exact 0/1 selectors rather than powers of -1.
"""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction

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
    """Render each of ``values`` exactly as format_rational does.

    Long orbit entries two indices apart differ by a small factor (first[m+2]
    = first[m]*T[m]/S[m+1], with S and T of O(n) bits against values of
    about n**2 bits), so the digits of a long numerator or denominator are
    derived from those of the entry two back instead of from scratch.
    """
    values = list(values)
    numerators = _digit_strings([abs(v.numerator) for v in values])
    denominators = _digit_strings([v.denominator for v in values])
    return [
        ("-" if v.numerator < 0 else "") + num + ("" if v.denominator == 1 else "/" + den)
        for v, num, den in zip(values, numerators, denominators)
    ]


# str(int) and int(str) take quadratic time and refuse more than 4300
# digits by default.  Past the sizes below, both conversions split the
# number in halves and recombine the halves (the divide and conquer of
# CPython 3.12's _pylong); leaves stay under the limit.
_FORMAT_SPLIT_BITS = 12_000
_FORMAT_LEAF_BITS = 2048
_PARSE_SPLIT_DIGITS = 3000
# a chained entry costs one gcd and two short-by-long Decimal operations;
# the chain is taken while its cofactors stay this many times shorter than
# the entry
_CHAIN_RATIO = 8


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


def _digit_strings(ints: list[int]) -> list[str]:
    """Decimal digits of each nonnegative int in ``ints``.

    Entry i is x[i-2] // down * up with g = gcd(x[i-2], x[i]), down =
    x[i-2] // g and up = x[i] // g, taken on the kept Decimal of entry i-2,
    while those cofactors are short.  The first long entry whose cofactors
    are not short ends the chaining for the rest of the sequence, so
    unrelated values waste at most one gcd; they are converted by divide
    and conquer.
    """
    texts = []
    kept: list[decimal.Decimal | None] = [None, None]  # by index parity
    chaining = True
    for i, x in enumerate(ints):
        if x.bit_length() < _FORMAT_SPLIT_BITS:
            texts.append(str(x))
            kept[i & 1] = None
            continue
        with decimal.localcontext(_EXACT):
            base = kept[i & 1] if chaining else None
            if base is not None:
                g = math.gcd(ints[i - 2], x)
                down, up = ints[i - 2] // g, x // g
                if (down.bit_length() + up.bit_length()) * _CHAIN_RATIO >= x.bit_length():
                    chaining = False
                    base = None
            digits = base // down * up if base is not None else _to_decimal(x)
            texts.append(str(digits))
        kept[i & 1] = digits if chaining else None
    return texts


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


def parity_selectors(r: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Exact 0/1 selectors (alpha, beta, gamma, lam) for the parity of r.

    alpha = lam = 1 and beta = gamma = 0 when r is even; the complement when
    r is odd.  Hence alpha + beta = gamma + lam = 1 and alpha*beta =
    gamma*lam = 0 always.
    """
    if r < 0:
        raise ValueError("parity selectors are defined for nonnegative r")
    if r % 2 == 0:
        return (ONE, ZERO, ZERO, ONE)
    return (ZERO, ONE, ONE, ZERO)


def alternating_sign(n: int) -> Fraction:
    """(-1)**n as an exact scalar; n may be negative (relabeled indices)."""
    return ONE if n % 2 == 0 else -ONE
