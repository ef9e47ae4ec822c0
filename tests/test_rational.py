import random
from fractions import Fraction as F

import pytest

from sdeq.rational import (
    alternating_sign,
    format_rational,
    geometric_sum,
    parity_selectors,
    parse_rational,
    rat,
)


def test_parse_rational_accepts_grammar():
    assert parse_rational("3") == F(3)
    assert parse_rational("-1/2") == F(-1, 2)
    assert parse_rational("0") == 0
    assert parse_rational("10/4") == F(5, 2)  # stored reduced


@pytest.mark.parametrize(
    "bad", ["+3", "1.5", "3/0", "", "a/b", " 3", "3 ", "1/-2", "1e3", "--1", "1/2/3"]
)
def test_parse_rational_rejects_non_grammar(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_round_trip():
    for text in ["3", "-1/2", "0", "7/9", "-12345/7"]:
        assert format_rational(parse_rational(text)) == text


def _reference_digits(n: int) -> str:
    # base-10**100 chunks, each far below the interpreter's str() digit limit
    chunks = []
    while n:
        n, chunk = divmod(n, 10**100)
        chunks.append(chunk)
    return str(chunks[-1]) + "".join(str(c).zfill(100) for c in reversed(chunks[:-1]))


def test_long_literals_round_trip():
    # past 4300 digits str(int) and int(str) refuse by default
    rng = random.Random(7)
    for bits in (2_000, 11_999, 12_000, 14_300, 60_000, 200_000):
        num = rng.getrandbits(bits) | (1 << (bits - 1))
        den = rng.getrandbits(bits // 2) | 1
        value = F(-num, den)
        text = format_rational(value)
        expected = _reference_digits(-value.numerator), _reference_digits(value.denominator)
        assert text == "-%s/%s" % expected
        assert parse_rational(text) == value
        assert format_rational(F(num)) == _reference_digits(num)
    assert parse_rational("0" * 5000 + "7/" + "0" * 5000 + "21") == F(1, 3)
    with pytest.raises(ValueError):
        parse_rational("1/" + "0" * 5000)


def test_rat_coercion():
    assert rat(3) == F(3)
    assert rat("-1/2") == F(-1, 2)
    assert rat(F(2, 4)) == F(1, 2)
    with pytest.raises(TypeError):
        rat(0.5)  # floats would launder rounding error into exact code


def test_normalization_idempotent():
    x = F(6, 4)
    assert (x.numerator, x.denominator) == (3, 2)
    assert F(x.numerator, x.denominator) == x
    assert F(3, 2) == F(-3, -2)  # value equality p*s == r*q


def test_geometric_sum_examples():
    assert geometric_sum(F(2), 2) == 7  # 1 + 2 + 4
    assert geometric_sum(F(1), 3) == 4  # four ones
    assert geometric_sum(F(5, 3), -1) == 0  # empty sum convention
    assert geometric_sum(F(0), 4) == 1  # 0**0 == 1 leading term


def test_geometric_sum_matches_term_by_term():
    rng = random.Random(42)
    for _ in range(200):
        q = F(rng.randint(-9, 9), rng.randint(1, 9))
        m = rng.randint(-3, 25)
        expected = sum((q**i for i in range(m + 1)), F(0))
        assert geometric_sum(q, m) == expected


def test_geometric_sum_telescoping_identity():
    rng = random.Random(7)
    for _ in range(200):
        q = F(rng.randint(-9, 9), rng.randint(1, 9))
        if q == 1:
            continue
        m = rng.randint(-1, 30)
        assert geometric_sum(q, m) * (q - 1) == q ** (m + 1) - 1


def test_parity_selectors_examples():
    assert parity_selectors(0) == (1, 0, 0, 1)
    assert parity_selectors(1) == (0, 1, 1, 0)
    assert parity_selectors(7) == (0, 1, 1, 0)


def test_parity_selectors_properties():
    for r in range(40):
        alpha, beta, gamma, lam = parity_selectors(r)
        assert alpha + beta == 1
        assert gamma + lam == 1
        assert alpha * beta == 0
        assert gamma * lam == 0
    with pytest.raises(ValueError):
        parity_selectors(-1)


def test_alternating_sign():
    assert alternating_sign(0) == 1
    assert alternating_sign(1) == -1
    assert alternating_sign(-1) == -1  # shifted-back labels may be negative
    assert alternating_sign(-2) == 1
