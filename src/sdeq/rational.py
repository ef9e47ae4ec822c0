"""Exact rational scalars: the literal grammar, printing, and small helpers.

Every value handled by this package is an arbitrary-precision rational
(`fractions.Fraction`, or on the comparison path a reduced pair of ints);
floats are rejected at the boundary so no rounding can creep into a
computation.

* `parse_rational` reads the one literal grammar (``-1/2``) of the CLI
  flags, and `format_rational`, `format_sequence` and `format_pairs` write
  it in every report, `format_pairs` from reduced (numerator, denominator)
  pairs of ints.  The long entries of an orbit or a sweep are written by
  ``printing.format_telescoping`` in the exact decimal context `_EXACT`.
  A report marks its literals (`_Literals`, `_Literal`, `_lit_map`), and
  ``cli._jdump`` writes them unescaped: the grammar needs no escaping.
* `rat` coerces an int, literal or Fraction and refuses floats.
"""

from __future__ import annotations

import decimal
import re
from fractions import Fraction

# optional '-', digits, optionally '/' and digits (denominator nonzero); it
# ends in "$" because cli._Parser hands it to argparse, which calls .match
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?$")


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


class _Literals(list):
    """Rational literals from this module's formatters.  They hold only
    digits, '-' and '/', which JSON never escapes, so cli._jdump writes
    them as they are."""


class _Literal:
    """One such literal, marked for cli._jdump as the items of _Literals are."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _lit_map(record) -> dict:
    return {k: format_rational(v) for k, v in record._asdict().items()}


# str(int) and int(str) take quadratic time and refuse more than 4300
# digits by default.  Past the sizes below, both conversions split the
# number in halves and recombine the halves (the divide and conquer of
# CPython 3.12's _pylong, printing._to_decimal for str); leaves stay under
# the limit.  Below _FORMAT_STR_BITS (3,600 digits) str() beats the divide
# and conquer.
_FORMAT_STR_BITS = 12_000
_PARSE_SPLIT_DIGITS = 3000


# Every operation in this context is exact or raises: at MAX_PREC integer
# sums, products and exact quotients need no rounding, and Inexact is
# trapped, so a step that would round raises instead of losing digits.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
)


def _digits(n: int) -> str:
    """The decimal digits of a nonnegative int; a long one is converted
    by ``printing._to_decimal``, loaded only then."""
    if n.bit_length() < _FORMAT_STR_BITS:
        return str(n)
    from .printing import _to_decimal

    with decimal.localcontext(_EXACT):
        return str(_to_decimal(n))


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
    """Coerce an int, rational literal, or Fraction to a Fraction.

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
