import decimal
import random
from fractions import Fraction as F

import pytest

from fraction_kernels import fractions
from sdeq import closed_form, rational, systems
from sdeq.rational import (
    alternating_sign,
    format_rational,
    format_sequence,
    geometric_sum,
    parse_rational,
    rat,
)
from sdeq.systems import (
    SystemAInitial,
    SystemAParams,
    SystemBInitial,
    SystemBParams,
    iterate_a,
)

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # only the property test needs hypothesis
    given = None


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


def _counting(monkeypatch, name: str) -> list:
    """Count the calls of ``rational.name`` from here on."""
    calls = []
    real = getattr(rational, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rational, name, counted)
    return calls


def _from_scratch(monkeypatch) -> list:
    """Count the long ints converted from scratch from here on: with the
    str() bound lowered to the split, every long int that does not chain
    goes through _to_decimal."""
    monkeypatch.setattr(rational, "_FORMAT_STR_BITS", rational._FORMAT_SPLIT_BITS)
    return _counting(monkeypatch, "_to_decimal")


DEEP_A = (
    SystemAParams(F(2, 3), F(-5, 7)), SystemAInitial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8))
)
DEEP_B = (
    SystemBParams(F(2, 3), F(-5, 7), F(3, 5), F(4, 9)),
    SystemBInitial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8), F(-3, 4), F(7, 6)),
)
# (system, tag) of every pure-power case
PURE_POWER = [("A", "NegNeg"), ("A", "Aeq1Bneg1"), ("A", "Beq1Aneg1"), ("B", "UnitBD")]


def test_format_sequence_chains_deep_orbits(monkeypatch):
    # pure-power sweeps grow by 1 to 3 bits per index, so with the split
    # lowered to 64 bits most entries at n = 120 are long and chain
    # from the entry two back by the divisor the period extension used;
    # with the str() bound lowered too, every long int that does not chain
    # is converted by divide and conquer, and counted
    monkeypatch.setattr(rational, "_FORMAT_SPLIT_BITS", 64)
    converted = _from_scratch(monkeypatch)
    for system, tag in PURE_POWER:
        params = closed_form.CASES[system][tag].fixed
        ics = (DEEP_A if system == "A" else DEEP_B)[1]
        built = closed_form.case_telescoping(system, tag, params, ics, 120)
        for values, divisors in zip(map(built.entries, (0, 1)), built.divisors):
            # the divisors are the extension's steps at every index
            assert len(divisors) == len(values) - 2
            steps = fractions(divisors)
            assert all(steps[i - 2] == values[i - 2] / values[i] for i in range(2, len(values)))
            expected = [format_rational(v) for v in values]
            assert sum(x.bit_length() >= 64 for side in _sides(values) for x in side) > 100
            converted.clear()
            assert format_sequence(values, divisors) == expected
            # one conversion from scratch per index parity, for numerators
            # and denominators
            assert len(converted) <= 4


def test_format_sequence_stops_chaining_on_unrelated_values(monkeypatch):
    rng = random.Random(11)
    unrelated = [F(rng.getrandbits(40_000), rng.getrandbits(30_000) | 1) for _ in range(8)]
    orbit = iterate_a(*DEEP_A, 300).first
    converted = _from_scratch(monkeypatch)
    # divisors that built none of the entries, and no divisors at all
    for values, divisors in ((unrelated, [(5, 3)] * 6), (unrelated, None), (orbit, None)):
        expected = [format_rational(v) for v in values]
        converted.clear()
        assert format_sequence(values, divisors) == expected
        # every long int is converted from scratch
        split = rational._FORMAT_SPLIT_BITS
        long = sum(x.bit_length() >= split for side in _sides(values) for x in side)
        assert len(converted) == long


def _sequences(system: str, params, ics, n: int) -> list:
    """(values, divisors) of both components of the orbit and, unless the
    closed forms are undefined there, of the product-route sweep."""
    _, orbit = systems.orbit_telescoping(system, params, ics, n)
    sequences = [(orbit.entries(k), orbit.divisors[k]) for k in (0, 1)]
    try:
        sweep = closed_form.case_telescoping(system, "Product", params, ics, n)
    except closed_form.ForbiddenInputError:
        return sequences
    return sequences + [(sweep.entries(k), sweep.divisors[k]) for k in (0, 1)]


def _chained(ints: list) -> set:
    """Indices of the long ints of ``ints`` whose entry two back is long:
    the ones a chain derives from that entry."""
    long = [x.bit_length() >= rational._FORMAT_SPLIT_BITS for x in ints]
    return {i for i in range(2, len(ints)) if long[i] and long[i - 2]}


def _sides(values) -> tuple:
    return [abs(v.numerator) for v in values], [v.denominator for v in values]


class _Reads(list):
    """A divisor list that records the entry index i of each divisor read,
    divisors[i-2]."""

    def __init__(self, divisors):
        super().__init__(divisors)
        self.read = []

    def __getitem__(self, index):
        self.read.append(index + 2)
        return super().__getitem__(index)


@pytest.mark.parametrize("system, inputs", [("A", DEEP_A), ("B", DEEP_B)])
def test_format_sequence_with_step_ratios_needs_no_gcd(monkeypatch, system, inputs):
    # the deep-nonunit inputs at n = 300, orbits and product-route sweeps
    for values, divisors in _sequences(system, *inputs, 300):
        expected = [format_rational(v) for v in values]
        converted = _from_scratch(monkeypatch)
        reads = _Reads(divisors)
        assert format_sequence(values, reads) == expected
        # the first long entry of each parity, numerators and denominators
        assert len(converted) == 4
        # a divisor is read once for each entry that chains, and for no other
        numerators, denominators = _sides(values)
        assert sorted(reads.read) == sorted(_chained(numerators) | _chained(denominators))
        monkeypatch.undo()


@pytest.mark.parametrize(
    "corrupt, fallbacks",
    [
        # the numerators' G is three times the denominators'
        (lambda divisors: {201: divisors[199] / 3}, 2),
        # absolute values are unchanged, so no entry falls back
        (lambda divisors: {i: -value for i, value in enumerate(divisors, 2)}, 0),
        # two entries built with each other's divisor
        (lambda divisors: {201: divisors[201], 203: divisors[199]}, 4),
    ],
)
def test_format_sequence_falls_back_on_a_wrong_ratio(monkeypatch, corrupt, fallbacks):
    # ``corrupt`` maps entry indices i to the wrong divisors[i-2]
    _, orbit = systems.orbit_telescoping("A", *DEEP_A, 300)
    divisors = list(orbit.divisors[0])
    for i, value in corrupt(fractions(orbit.divisors[0])).items():
        divisors[i - 2] = value.as_integer_ratio()
    values = orbit.entries(0)
    assert values[201].numerator.bit_length() >= rational._FORMAT_SPLIT_BITS
    expected = [format_rational(v) for v in values]
    converted = _from_scratch(monkeypatch)
    assert format_sequence(values, divisors) == expected
    assert len(converted) == 4 + fallbacks


def test_format_sequence_converts_with_str_below_its_bound(monkeypatch):
    # a long int that does not chain is converted by str() under
    # _FORMAT_STR_BITS and by divide and conquer from there on; the deep
    # orbit's first long entries of each parity are under the bound, and
    # every later entry chains, from str()'s digits or from a chained one
    _, orbit = systems.orbit_telescoping("A", *DEEP_A, 300)
    values, divisors = orbit.entries(0), orbit.divisors[0]
    ints = [x for side in _sides(values) for x in side]
    split, bound = rational._FORMAT_SPLIT_BITS, rational._FORMAT_STR_BITS
    assert sum(split <= x.bit_length() < bound for x in ints) > 4
    expected = [format_rational(v) for v in values]
    converted = _counting(monkeypatch, "_to_decimal")
    assert format_sequence(values) == expected
    assert len(converted) == sum(x.bit_length() >= bound for x in ints) > 0
    converted.clear()
    assert format_sequence(values, divisors) == expected
    assert converted == []


def test_exact_quotient_from_leading_bits():
    rng = random.Random(5)
    for _ in range(300):
        # a*f = b*q with f = f1*f2, b = f1*b1, q = f2*q1 and a = b1*q1
        widths = (400, 400, 30_000, 2_000)
        f1, f2, b1, q1 = (rng.getrandbits(rng.randint(1, bits)) | 1 for bits in widths)
        a, b, f, q = b1 * q1, f1 * b1, f1 * f2, f2 * q1
        assert rational._exact_quotient(a, b, f) == q
        assert rational._exact_quotient(a * f, b) == q
        # q is odd, so a*f/(2*b) ends in one half
        assert rational._exact_quotient(a, 2 * b, f) is None
    assert rational._exact_quotient(5, 7) is None
    assert rational._exact_quotient(5, 0) is None


def test_format_sequence_with_unreduced_ratios(monkeypatch):
    # values[i-2]/values[i] = 25/441, given as 275/4851: G absorbs the 11
    values = [F(21**k, 5**k) for k in range(7_000, 7_020)]  # 31k and 16k bits
    unreduced = (25 * 11, 441 * 11)
    expected = [format_rational(v) for v in values]
    converted = _counting(monkeypatch, "_to_decimal")
    assert format_sequence(values, [unreduced] * (len(values) - 2)) == expected
    assert len(converted) == 4


if given is not None:
    # small values, often 0 and +-1, so that zero components of System A
    # and vanishing denominators occur, mixed with long ones
    _values = st.one_of(
        st.sampled_from([F(0), F(1), F(-1), F(2), F(-1, 2)]),
        st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
        st.builds(F, st.integers(-(2**40), 2**40), st.integers(1, 2**40)),
    )

    @st.composite
    def _inputs(draw):
        system = draw(st.sampled_from("AB"))
        shape = systems.SHAPES[system]
        values = _values if system == "A" else _values.filter(bool)
        params = shape.params(*(draw(_values) for _ in shape.params._fields))
        ics = shape.initial(*(draw(values) for _ in shape.initial._fields))
        return system, params, ics, draw(st.integers(2, 30)), draw(st.sampled_from([2, 8, 64]))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_inputs())
    # u1 = 0 and v0 = 0 zero every other entry of a component and of w
    @example(("A", DEEP_A[0], SystemAInitial(F(3, 5), 0, F(4, 9), F(5, 8)), 30, 2))
    @example(("A", DEEP_A[0], SystemAInitial(F(3, 5), F(-2, 7), 0, F(5, 8)), 30, 2))
    def test_format_sequence_with_step_ratios_on_draws(inputs):
        # every int at or past ``split`` bits is long, so short orbits chain,
        # and every long int that does not chain is converted by divide and
        # conquer; 0 and 1 stay short
        system, params, ics, n, split = inputs
        for values, divisors in _sequences(system, params, ics, n):
            expected = [format_rational(v) for v in values]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(rational, "_FORMAT_SPLIT_BITS", split)
                patch.setattr(rational, "_FORMAT_STR_BITS", split)
                converted = []
                real = rational._to_decimal
                patch.setattr(rational, "_to_decimal", lambda x: converted.append(x) or real(x))
                assert format_sequence(values, divisors) == expected
                # no entry that chains falls back
                long = sum(x.bit_length() >= split for side in _sides(values) for x in side)
                assert len(converted) == long - sum(len(_chained(side)) for side in _sides(values))


def test_format_sequence_signs_zeros_and_integers():
    big = 7**9_000  # 25k bits
    values = [F(0), F(-1), F(5), F(-big), F(big, 3), F(0), F(-big * 49), F(big * 343, 3),
              F(-big * 7**4), F(-2, 9)]
    texts = format_sequence(values)
    assert texts == [format_rational(v) for v in values]
    assert texts[:3] == ["0", "-1", "5"] and texts[-1] == "-2/9"
    assert texts[3] == "-" + _reference_digits(big)


def test_format_sequence_straddles_the_split():
    # numerators 5**k grow by 46 bits per entry across the split, signs
    # alternate, denominators stay short; then lengths split - 1 to split + 1
    split = rational._FORMAT_SPLIT_BITS
    start = split * 1000 // 2322 - 100  # 5**start has about split - 232 bits
    values = [F((-1) ** k * 5**k, 3 ** (k // 2)) for k in range(start, start + 200, 20)]
    values += [F((1 << bits) - 1, 7) for bits in (split - 1, split, split + 1)]
    assert {v.numerator.bit_length() >= split for v in values} == {True, False}
    assert format_sequence(values) == [format_rational(v) for v in values]


def test_format_sequence_short_lists():
    big = F(3**30_000, 2**20_000 + 1)
    for values in ([], [big], [big, -big], [F(1, 2), big], (big, big * 9)):
        assert format_sequence(values) == [format_rational(v) for v in values]


def test_format_sequence_exact_in_any_decimal_context():
    values = [F(3**k) for k in range(8_000, 8_100, 10)]  # 12.7k bits
    expected = [_reference_digits(v.numerator) for v in values]
    with decimal.localcontext() as ctx:
        ctx.prec = 6
        ctx.traps[decimal.Inexact] = False
        assert format_sequence(values) == expected
        # chained, from the entry two back divided by 1/3**20
        assert format_sequence(values, [(1, 3**20)] * (len(values) - 2)) == expected
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


def test_alternating_sign():
    assert alternating_sign(0) == 1
    assert alternating_sign(1) == -1
    assert alternating_sign(-1) == -1  # shifted-back labels may be negative
    assert alternating_sign(-2) == 1


def test_unit_orbit_chains_past_the_split(monkeypatch):
    # System A with a = b = 1 grows linearly, to about 4,200 bits at
    # n = 2000; entries past the split chain, so with the orbit's divisors
    # each component converts only its first long numerator and denominator
    # of each index parity from scratch
    params = SystemAParams(1, 1)
    ics = SystemAInitial(F(3, 5), F(2, 7), F(4, 9), F(5, 8))
    _, orbit = systems.orbit_telescoping("A", params, ics, 2000)
    for values, divisors in zip(map(orbit.entries, (0, 1)), orbit.divisors):
        numerators, denominators = _sides(values)
        longest = max(x.bit_length() for x in numerators + denominators)
        assert rational._FORMAT_SPLIT_BITS < longest < 5_000
        expected = [format_rational(v) for v in values]
        converted = _from_scratch(monkeypatch)
        assert format_sequence(values, divisors) == expected
        assert len(converted) == 4
        assert len(_chained(numerators)) + len(_chained(denominators)) > 1_000
        monkeypatch.undo()
