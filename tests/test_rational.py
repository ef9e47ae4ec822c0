import decimal
import random
from fractions import Fraction as F

import pytest

from sdeq import rational
from sdeq.rational import (
    alternating_sign,
    format_rational,
    format_sequence,
    geometric_sum,
    parity_selectors,
    parse_rational,
    rat,
)
from sdeq.systems import (
    SystemAInitial,
    SystemAParams,
    SystemBInitial,
    SystemBParams,
    iterate_a,
    iterate_b,
)


def test_parse_rational_accepts_grammar():
    assert parse_rational("3") == F(3)
    assert parse_rational("-1/2") == F(-1, 2)
    assert parse_rational("0") == 0
    assert parse_rational("10/4") == F(5, 2)  # stored reduced


@pytest.mark.parametrize(
    "bad",
    ["+3", "1.5", "3/0", "", "a/b", " 3", "3 ", "1/-2", "1e3", "--1", "1/2/3", "3\n", "-1/2\n"],
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


def _counting(monkeypatch, name: str, module=rational) -> list:
    """Count the calls of ``module.name`` from here on."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_format_sequence_chains_deep_orbits(monkeypatch):
    # the deep-nonunit inputs at n = 300: System A reaches 49k bits, B 13k
    a = iterate_a(
        SystemAParams(F(2, 3), F(-5, 7)), SystemAInitial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8)), 300
    )
    b = iterate_b(
        SystemBParams(F(2, 3), F(-5, 7), F(3, 5), F(4, 9)),
        SystemBInitial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8), F(-3, 4), F(7, 6)),
        300,
    )
    for orbit in (a.first, a.second, b.first, b.second):
        expected = [format_rational(v) for v in orbit]
        long_ints = sum(n.bit_length() >= 12_000 for v in orbit for n in v.as_integer_ratio())
        assert long_ints >= 20
        converted = _counting(monkeypatch, "_to_decimal")
        assert format_sequence(orbit) == expected
        # one conversion from scratch per index parity, for numerators and
        # denominators; every other long entry comes from the one two back
        assert len(converted) <= 4
        monkeypatch.undo()


def test_format_sequence_stops_chaining_on_unrelated_values(monkeypatch):
    rng = random.Random(11)
    unrelated = [F(rng.getrandbits(40_000), rng.getrandbits(30_000) | 1) for _ in range(8)]
    chain = [F(3**20_000 * 5**k) for k in range(9)]
    # a chained run, one unrelated value, then the rest of the run
    mixed = chain[:6] + unrelated[:1] + chain[6:]
    for values, expected_gcds, expected_converted in (
        # the first chain attempt fails for numerators and for denominators
        (unrelated, 2, 16),
        # four chained entries and the failed attempt; from there on every
        # long int is converted from scratch (the unrelated value's
        # denominator is the only long one)
        (mixed, 5, 7),
    ):
        expected = [format_rational(v) for v in values]
        gcds = _counting(monkeypatch, "gcd", rational.math)
        converted = _counting(monkeypatch, "_to_decimal")
        assert format_sequence(values) == expected
        assert (len(gcds), len(converted)) == (expected_gcds, expected_converted)
        monkeypatch.undo()


def test_format_sequence_signs_zeros_and_integers():
    big = 7**9_000  # 25k bits
    values = [F(0), F(-1), F(5), F(-big), F(big, 3), F(0), F(-big * 49), F(big * 343, 3),
              F(-big * 7**4), F(-2, 9)]
    texts = format_sequence(values)
    assert texts == [format_rational(v) for v in values]
    assert texts[:3] == ["0", "-1", "5"] and texts[-1] == "-2/9"
    assert texts[3] == "-" + _reference_digits(big)


def test_format_sequence_straddles_the_split():
    # numerators 5**k grow by 46 bits per entry across 12,000 bits, signs
    # alternate, denominators stay short; then lengths 11,999 to 12,001
    values = [F((-1) ** k * 5**k, 3 ** (k // 2)) for k in range(5_050, 5_250, 20)]
    values += [F((1 << bits) - 1, 7) for bits in (11_999, 12_000, 12_001)]
    assert {v.numerator.bit_length() >= 12_000 for v in values} == {True, False}
    assert format_sequence(values) == [format_rational(v) for v in values]


def test_format_sequence_short_lists():
    big = F(3**30_000, 2**20_000 + 1)
    for values in ([], [big], [big, -big], [F(1, 2), big], (big, big * 9)):
        assert format_sequence(values) == [format_rational(v) for v in values]


def test_format_sequence_exact_in_any_decimal_context():
    values = [F(3**k) for k in range(8_000, 8_100, 10)]  # 12.7k bits, chained
    expected = [_reference_digits(v.numerator) for v in values]
    with decimal.localcontext() as ctx:
        ctx.prec = 6
        ctx.traps[decimal.Inexact] = False
        assert format_sequence(values) == expected
    # a step that would round raises instead
    with decimal.localcontext(rational._EXACT):
        with pytest.raises(decimal.Inexact):
            decimal.Decimal("1.5").to_integral_exact()


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
