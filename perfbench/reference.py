"""Independent exact reference for checking sdeq's outputs.

Plain ``fractions.Fraction`` code written from the defining recurrences;
it deliberately does not import sdeq, so a defect in the package cannot
hide in its own checker.  Literal parsing avoids ``int(str)`` on long
digit strings, because the interpreter's default limit of 4300 digits
would otherwise make correct large outputs uncheckable.
"""

from __future__ import annotations

import math
from fractions import Fraction

_CHUNK = 4000  # digits per int() call; below the interpreter's 4300 limit


def orbit(system: str, params, ics, n: int):
    """Iterate System A or B from index 0 up to ``n``.

    Returns ``(first, second, step)`` where ``step`` is the index of the
    first entry that cannot be computed (a vanishing denominator), or None.
    The lists then hold exactly the entries below ``step``.
    """
    if system == "A":
        a, b = params
        u0, u1, v0, v1 = ics
        first, second = [u0, u1], [v0, v1]
        for k in range(n - 1):
            den_u = a + first[k] * second[k + 1]
            den_v = b + second[k] * first[k + 1]
            if den_u == 0 or den_v == 0:
                return first, second, k + 2
            first.append(first[k] / den_u)
            second.append(second[k] / den_v)
        return first, second, None
    a, b, c, d = params
    x0, x1, x2, y0, y1, y2 = ics
    first, second = [x0, x1, x2], [y0, y1, y2]
    for k in range(n - 2):
        den_x = second[k + 2] * (a + b * first[k] * second[k + 1])
        den_y = first[k + 2] * (c + d * second[k] * first[k + 1])
        if den_x == 0 or den_y == 0:
            return first, second, k + 3
        first.append(first[k] * second[k + 1] / den_x)
        second.append(second[k] * first[k + 1] / den_y)
    return first, second, None


def seeds(system: str, ics):
    """Seeds of the auxiliary sequences: A has S[0], T[0]; B has S[0..1], T[0..1]."""
    if system == "A":
        u0, u1, v0, v1 = ics
        return [1 / (v0 * u1)], [1 / (u0 * v1)]
    x0, x1, x2, y0, y1, y2 = ics
    return [1 / (x0 * y1), 1 / (x1 * y2)], [1 / (y0 * x1), 1 / (y1 * x2)]


def auxiliary(system: str, params, seed_s, seed_t, count: int):
    """S and T for indices below ``count`` from the linear recurrences

    A:  S[n+1] = a*T[n] + 1,  T[n+1] = b*S[n] + 1
    B:  S[n+2] = c*T[n] + d,  T[n+2] = a*S[n] + b
    """
    if system == "A":
        p, q, r, s = params[0], 1, params[1], 1
    else:
        p, q, r, s = params[2], params[3], params[0], params[1]
    S, T = list(seed_s), list(seed_t)
    lag = len(S)
    while len(S) < count:
        n = len(S) - lag
        S.append(p * T[n] + q)
        T.append(r * S[n] + s)
    return S[:count], T[:count]


def singular_at(system: str, params, ics, m: int):
    """Initial conditions equal to ``ics`` except for the component that
    only S[0] depends on (v0 for A, x0 for B), chosen so that S[m] = 0.

    S[m] is affine in S[0] when the other seeds are fixed, so two
    evaluations give its slope and offset.  Returns None when S[m] does not
    depend on S[0] or the solution needs S[0] = 0.
    """
    seed_s, seed_t = seeds(system, ics)
    at_zero = auxiliary(system, params, [0] + seed_s[1:], seed_t, m + 1)[0][m]
    at_one = auxiliary(system, params, [1] + seed_s[1:], seed_t, m + 1)[0][m]
    slope = at_one - at_zero
    if slope == 0 or at_zero == 0:
        return None
    s0 = -at_zero / slope
    ics = list(ics)
    if system == "A":
        ics[2] = 1 / (s0 * ics[1])  # S[0] = 1/(v0*u1)
    else:
        ics[0] = 1 / (s0 * ics[4])  # S[0] = 1/(x0*y1)
    return tuple(ics)


def is_orbit(system: str, params, first, second) -> bool:
    """True when the sequences satisfy the system's recurrence entrywise."""
    if system == "A":
        a, b = params
        return all(
            first[k + 2] * (a + first[k] * second[k + 1]) == first[k]
            and second[k + 2] * (b + second[k] * first[k + 1]) == second[k]
            for k in range(len(first) - 2)
        )
    a, b, c, d = params
    return all(
        first[k + 3] * second[k + 2] * (a + b * first[k] * second[k + 1])
        == first[k] * second[k + 1]
        and second[k + 3] * first[k + 2] * (c + d * second[k] * first[k + 1])
        == second[k] * first[k + 1]
        for k in range(len(first) - 3)
    )


def _parse_digits(digits: str) -> int:
    if len(digits) <= _CHUNK:
        return int(digits)
    low = len(digits) // 2
    return _parse_digits(digits[:-low]) * 10**low + _parse_digits(digits[-low:])


def literal(text: str) -> tuple[int, int]:
    """(numerator, denominator) of a literal ``p`` or ``p/q``, without
    normalising: a correct report writes reduced fractions."""
    num, _, den = text.partition("/")
    sign = -1 if num.startswith("-") else 1
    value = sign * _parse_digits(num.lstrip("-"))
    return value, (_parse_digits(den) if den else 1)


def same(text: str, value: Fraction) -> bool:
    """True when the literal ``text`` writes exactly ``value``."""
    if not text or not text.lstrip("-").replace("/", "", 1).isdigit():
        return False
    return literal(text) == (value.numerator, value.denominator)


def size(value: Fraction) -> tuple[int, int]:
    """Bit lengths of the numerator and the denominator."""
    return abs(value.numerator).bit_length(), value.denominator.bit_length()


def growth_order(first, second) -> float:
    """Least-squares slope of log(bits) against log(index) over the last
    three quarters of an orbit: about 2 for quadratic bit growth, about 1
    for linear growth."""
    n = len(first) - 1
    xs, ys = [], []
    for k in range(max(2, n // 4), n + 1):
        bits = max(max(size(first[k])), max(size(second[k])), 1)
        xs.append(math.log(k))
        ys.append(math.log(bits))
    if len(xs) < 2:
        return 0.0
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
