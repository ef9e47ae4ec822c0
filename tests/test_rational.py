import decimal
import random
from fractions import Fraction as F

import pytest

from fraction_kernels import fractions
from sdeq import closed_form, printing, rational, systems
from sdeq.orbit import Telescoping, carry, orbit_telescoping
from sdeq.rational import format_rational, format_sequence, parse_rational, rat
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
    """Count the calls of ``printing.name`` from here on."""
    calls = []
    real = getattr(printing, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(printing, name, counted)
    return calls


def _from_scratch(monkeypatch) -> list:
    """Count the ints converted from scratch from here on: with the str()
    bound lowered to 64 bits, every int of 64 bits or more that is
    converted goes through _to_decimal."""
    monkeypatch.setattr(rational, "_FORMAT_STR_BITS", 64)
    return _counting(monkeypatch, "_to_decimal")


def _reference(value: F) -> str:
    """The literal of ``value`` from _reference_digits."""
    num, den = abs(value.numerator), value.denominator
    text = ("-" if value < 0 else "") + (_reference_digits(num) if num else "0")
    return text if den == 1 else text + "/" + _reference_digits(den)


DEEP_A = (
    SystemAParams(F(2, 3), F(-5, 7)), SystemAInitial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8))
)
DEEP_B = (
    SystemBParams(F(2, 3), F(-5, 7), F(3, 5), F(4, 9)),
    SystemBInitial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8), F(-3, 4), F(7, 6)),
)
# (system, tag) of every pure-power case
PURE_POWER = [("A", "NegNeg"), ("A", "Aeq1Bneg1"), ("A", "Beq1Aneg1"), ("B", "UnitBD")]


def test_telescoping_literals_of_pure_power_sweeps(monkeypatch):
    # pure-power sweeps grow by 1 to 3 bits per index, so most entries at
    # n = 120 have 64 bits or more; each is printed from the entry two back
    # and the divisor the period extension used, so with the str() bound
    # lowered to 64 bits no int is converted from scratch
    converted = _from_scratch(monkeypatch)
    for system, tag in PURE_POWER:
        params = closed_form.CASES[system][tag].fixed
        ics = (DEEP_A if system == "A" else DEEP_B)[1]
        built = closed_form.case_telescoping(system, tag, params, ics, 120)
        for k, divisors in enumerate(built.divisors):
            values = built.entries(k)
            # the divisors are the extension's steps at every index
            assert len(divisors) == len(values) - 2
            steps = fractions(divisors)
            assert all(steps[i - 2] == values[i - 2] / values[i] for i in range(2, len(values)))
            assert sum(x.bit_length() >= 64 for side in _sides(values) for x in side) > 100
            converted.clear()
            literals = printing.format_telescoping(built.starts[k], divisors, built.last)
            assert literals == [_reference(v) for v in values]
            assert converted == []


def test_format_sequence_converts_each_value_from_scratch(monkeypatch):
    # format_sequence prints each value on its own: every long int is
    # converted from scratch, whether the values are related or not
    rng = random.Random(11)
    unrelated = [F(rng.getrandbits(40_000), rng.getrandbits(30_000) | 1) for _ in range(8)]
    orbit = iterate_a(*DEEP_A, 300).first
    converted = _from_scratch(monkeypatch)
    for values in (unrelated, orbit):
        converted.clear()
        assert format_sequence(values) == [_reference(v) for v in values]
        long = sum(x.bit_length() >= 64 for side in _sides(values) for x in side)
        assert len(converted) == long


def _telescopings(system: str, params, ics, n: int) -> list:
    """The orbit's telescoping and, unless the closed forms are undefined
    there, the product-route sweep's."""
    _, orbit = orbit_telescoping(system, params, ics, n)
    try:
        sweep = closed_form.case_telescoping(system, "Product", params, ics, n)
    except closed_form.ForbiddenInputError:
        return [orbit]
    return [orbit, sweep]


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
def test_format_telescoping_takes_no_gcd_of_a_long_int(monkeypatch, system, inputs):
    # the deep-nonunit inputs at n = 300, orbits and product-route sweeps,
    # whose entries pass 10k bits: the kernel reads each divisor once, for
    # the entry it builds, takes no gcd of a long int, only of the short
    # remainders and divisors, and converts no int from scratch
    for built in _telescopings(system, *inputs, 300):
        for k, divisors in enumerate(built.divisors):
            values = built.entries(k)
            assert max(x.bit_length() for side in _sides(values) for x in side) > 10_000
            expected = [_reference(v) for v in values]
            converted = _from_scratch(monkeypatch)
            gcds = _counting(monkeypatch, "gcd")
            reads = _Reads(divisors)
            assert printing.format_telescoping(built.starts[k], reads, built.last) == expected
            assert converted == []
            assert reads.read == list(range(len(built.starts[k]), built.last + 1))
            short = max(x.bit_length() for pair in divisors for x in pair)
            assert gcds and max(x.bit_length() for pair in gcds for x in pair) <= short
            monkeypatch.undo()


def test_format_sequence_converts_with_str_below_its_bound(monkeypatch):
    # an int is converted by str() under _FORMAT_STR_BITS and by divide and
    # conquer from there on
    _, orbit = orbit_telescoping("A", *DEEP_A, 300)
    values = orbit.entries(0)
    ints = [x for side in _sides(values) for x in side]
    bound = rational._FORMAT_STR_BITS
    assert sum(2_000 <= x.bit_length() < bound for x in ints) > 4
    expected = [format_rational(v) for v in values]
    converted = _counting(monkeypatch, "_to_decimal")
    assert format_sequence(values) == expected
    assert len(converted) == sum(x.bit_length() >= bound for x in ints) > 0


def test_format_telescoping_refuses_a_zero_divisor():
    # as Fraction division does, for a zero and a nonzero entry two back
    for starts in ([F(1, 2), F(3)], [F(0), F(3)]):
        with pytest.raises(ZeroDivisionError):
            Telescoping((starts, starts), ([(0, 1)], [(0, 1)]), 2).entries(0)
        with pytest.raises(decimal.InvalidOperation):
            printing.format_telescoping(starts, [(0, 1)], 2)


if given is not None:
    from test_pair_kernels import EXAMPLES as PAIR_EXAMPLES

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
        pinned = [case.fixed for case in closed_form.CASES[system].values() if case.period]
        params = draw(st.sampled_from([None, *pinned]))
        if params is None:
            params = shape.params(*(draw(_values) for _ in shape.params._fields))
        ics = shape.initial(*(draw(values) for _ in shape.initial._fields))
        return system, params, ics, draw(st.integers(2, 40))

    # the pair kernels' examples (both systems, unit and non-unit parameters,
    # every pure-power tag, System A's zero components, a singular step in
    # each component), all-ones System B, whose entry 4 is the integer 1,
    # and one deep orbit, whose entries pass 40k bits
    EXAMPLES = [
        *PAIR_EXAMPLES,
        ("B", SystemBParams(1, 1, 1, 1), SystemBInitial(1, 1, 1, 1, 1, 1), 10),
        ("A", *DEEP_A, 300),
    ]

    def _literal_telescopings(system, params, ics, n) -> list:
        """The orbit's telescoping and the route telescopings of the most
        specific case tag, where the closed forms are defined."""
        _, orbit = orbit_telescoping(system, params, ics, n)
        tag = closed_form.auto_case(system, params)
        try:
            routes = closed_form.route_telescopings(system, tag, params, ics, n)
        except closed_form.ForbiddenInputError:
            return [orbit]
        return [orbit, *routes.values()]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_inputs())
    def _literals_equal_the_oracle(inputs):
        for built in _literal_telescopings(*inputs):
            for k in (0, 1):
                expected = [format_rational(v) for v in built.entries(k)]
                inputs = built.starts[k], built.divisors[k], built.last
                assert printing.format_telescoping(*inputs) == expected
                # an ambient context that rounds to 5 digits and lets it pass
                with decimal.localcontext() as ctx:
                    ctx.prec = 5
                    ctx.traps[decimal.Inexact] = False
                    assert printing.format_telescoping(*inputs) == expected

    for _example in EXAMPLES:
        _literals_equal_the_oracle = example(_example)(_literals_equal_the_oracle)

    def test_telescoping_literals_on_draws():
        # the oracle of printing.format_telescoping, the kernel that prints
        # orbits and sweeps from their divisors, is format_rational of each
        # entry Telescoping.entries builds
        _literals_equal_the_oracle()

    def test_telescoping_literals_examples_cover_each_case():
        tags, zeros, singular, negative, integers, longest = set(), 0, set(), 0, 0, 0
        for system, params, ics, n in EXAMPLES:
            tags.add(closed_form.auto_case(system, params))
            zeros += not all(ics._astuple())
            found = carry(system, params, ics, n).singular
            if found is not None:
                singular.add((system, found.component))
            for built in _literal_telescopings(system, params, ics, n):
                for k, divisors in enumerate(built.divisors):
                    negative += any(num < 0 for num, _ in divisors)
                    values = built.entries(k)[len(built.starts[k]) :]
                    integers += any(v.denominator == 1 and v for v in values)
                    longest = max([longest, *(v.numerator.bit_length() for v in values)])
        cases = [case for cases in closed_form.CASES.values() for case in cases.items()]
        assert {tag for tag, case in cases if case.period} <= tags
        assert {"ABneq1", "OnesOnes", "ACneq1", "ACeq1", "AllOnes"} <= tags
        assert zeros == 3
        assert singular == {(s, k) for s in systems.SHAPES for k in ("first", "second")}
        assert negative > 0 and integers > 0 and longest > 40_000


def test_format_sequence_signs_zeros_and_integers():
    big = 7**9_000  # 25k bits
    values = [F(0), F(-1), F(5), F(-big), F(big, 3), F(0), F(-big * 49), F(big * 343, 3),
              F(-big * 7**4), F(-2, 9)]
    texts = format_sequence(values)
    assert texts == [format_rational(v) for v in values]
    assert texts[:3] == ["0", "-1", "5"] and texts[-1] == "-2/9"
    assert texts[3] == "-" + _reference_digits(big)


def test_format_sequence_straddles_the_split():
    # numerators 5**k grow by 46 bits per entry across the split between
    # str() and divide and conquer, signs alternate, denominators stay
    # short; then lengths split - 1 to split + 1
    split = rational._FORMAT_STR_BITS
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
        # built from the entry two back divided by 1/3**20
        divisors = [(1, 3**20)] * (len(values) - 2)
        assert printing.format_telescoping(values[:2], divisors, len(values) - 1) == expected
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


def test_telescoping_literals_of_a_unit_orbit_past_the_split(monkeypatch):
    # System A with a = b = 1 grows linearly, to about 4,200 bits at
    # n = 2000; every entry past the start values is printed from the entry
    # two back and its divisor, so no int is converted from scratch
    params = SystemAParams(1, 1)
    ics = SystemAInitial(F(3, 5), F(2, 7), F(4, 9), F(5, 8))
    _, orbit = orbit_telescoping("A", params, ics, 2000)
    for k in (0, 1):
        values = orbit.entries(k)
        numerators, denominators = _sides(values)
        longest = max(x.bit_length() for x in numerators + denominators)
        assert 2_000 < longest < 5_000
        expected = [_reference(v) for v in values]
        converted = _from_scratch(monkeypatch)
        literals = printing.format_telescoping(orbit.starts[k], orbit.divisors[k], orbit.last)
        assert literals == expected
        assert converted == []
        monkeypatch.undo()
