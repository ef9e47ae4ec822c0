"""Value semantics of the public records: construction, coercion, equality
and hash, immutability, repr, pickling and copying."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from sdeq.cli import Subcommand
from sdeq.closed_form import Case
from sdeq.forbidden import ForbiddenReport, Violation
from sdeq.reduction import InvariantSeq, LinearSeq
from sdeq.symmetry import Characteristic, GroupAction
from sdeq.systems import (
    Singularity,
    SystemAInitial,
    SystemAParams,
    SystemBInitial,
    SystemBParams,
    Trajectory,
)

# (record class, constructor arguments by field, every stored field value
# including defaults, repr)
CASES = [
    (
        SystemAParams,
        {"a": 1, "b": "-2/3"},
        {"a": F(1), "b": F(-2, 3)},
        "SystemAParams(a=Fraction(1, 1), b=Fraction(-2, 3))",
    ),
    (
        SystemBParams,
        {"a": "1/2", "b": 0, "c": F(3), "d": "-4"},
        {"a": F(1, 2), "b": F(0), "c": F(3), "d": F(-4)},
        "SystemBParams(a=Fraction(1, 2), b=Fraction(0, 1), c=Fraction(3, 1), d=Fraction(-4, 1))",
    ),
    (
        SystemAInitial,
        {"u0": "3/5", "u1": 2, "v0": F(4, 9), "v1": "10/16"},
        {"u0": F(3, 5), "u1": F(2), "v0": F(4, 9), "v1": F(5, 8)},
        "SystemAInitial(u0=Fraction(3, 5), u1=Fraction(2, 1), v0=Fraction(4, 9), "
        "v1=Fraction(5, 8))",
    ),
    (
        SystemBInitial,
        {"x0": 1, "x1": "2", "x2": "-3/4", "y0": F(5), "y1": 6, "y2": "7/8"},
        {"x0": F(1), "x1": F(2), "x2": F(-3, 4), "y0": F(5), "y1": F(6), "y2": F(7, 8)},
        "SystemBInitial(x0=Fraction(1, 1), x1=Fraction(2, 1), x2=Fraction(-3, 4), "
        "y0=Fraction(5, 1), y1=Fraction(6, 1), y2=Fraction(7, 8))",
    ),
    (
        Singularity,
        {"step": 4, "component": "first", "denominator_expression": "a + u2*v3 = 0"},
        {"step": 4, "component": "first", "denominator_expression": "a + u2*v3 = 0"},
        "Singularity(step=4, component='first', denominator_expression='a + u2*v3 = 0')",
    ),
    (
        Trajectory,
        {"labels": ("u", "v"), "first": (F(1), F(2)), "second": (F(3), F(1, 2))},
        {
            "labels": ("u", "v"),
            "first": (F(1), F(2)),
            "second": (F(3), F(1, 2)),
            "singular": None,
        },
        "Trajectory(labels=('u', 'v'), first=(Fraction(1, 1), Fraction(2, 1)), "
        "second=(Fraction(3, 1), Fraction(1, 2)), singular=None)",
    ),
    (
        InvariantSeq,
        {"w": (F(1, 2),), "z": (F(3),)},
        {"w": (F(1, 2),), "z": (F(3),)},
        "InvariantSeq(w=(Fraction(1, 2),), z=(Fraction(3, 1),))",
    ),
    (
        LinearSeq,
        {"S": (F(2),), "T": (F(1, 3),)},
        {"S": (F(2),), "T": (F(1, 3),)},
        "LinearSeq(S=(Fraction(2, 1),), T=(Fraction(1, 3),))",
    ),
    (
        Violation,
        {"restriction_id": "S_even", "r": 3},
        {"restriction_id": "S_even", "r": 3},
        "Violation(restriction_id='S_even', r=3)",
    ),
    (
        ForbiddenReport,
        {"violated": (Violation("w0_zero", 0),), "predicted_singular_step": None},
        {"violated": (Violation("w0_zero", 0),), "predicted_singular_step": None},
        "ForbiddenReport(violated=(Violation(restriction_id='w0_zero', r=0),), "
        "predicted_singular_step=None)",
    ),
    (
        Characteristic,
        {"c1": 1, "c2": "-2/3"},
        {"c1": F(1), "c2": F(-2, 3)},
        "Characteristic(c1=Fraction(1, 1), c2=Fraction(-2, 3))",
    ),
    (
        GroupAction,
        {"generator": "X2", "scale": "3/2"},
        {"generator": "X2", "scale": F(3, 2)},
        "GroupAction(generator='X2', scale=Fraction(3, 2))",
    ),
]


@pytest.mark.parametrize("cls, given, stored, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_value_semantics(cls, given, stored, text):
    record = cls(*given.values())
    for name, value in stored.items():
        # int and str literals are stored as Fractions, defaults as declared
        assert getattr(record, name) == value
        assert type(getattr(record, name)) is type(value)
    assert cls(**given) == record
    assert hash(cls(**given)) == hash(record)
    assert record != tuple(stored.values())
    assert repr(record) == text
    first = next(iter(stored))
    with pytest.raises(AttributeError):
        setattr(record, first, stored[first])
    with pytest.raises(AttributeError):
        delattr(record, first)
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is cls
        assert clone == record
        assert repr(clone) == text


def test_records_with_equal_values_differ_across_classes():
    assert Characteristic(1, 2) != SystemAParams(1, 2)
    assert SystemAParams(1, 2) != Characteristic(1, 2)
    assert InvariantSeq((F(1),), (F(2),)) != LinearSeq((F(1),), (F(2),))
    assert SystemAParams(1, 2) != SystemAParams(1, 3)
    assert len({SystemAParams(1, 2), SystemAParams("1", "4/2"), Characteristic(1, 2)}) == 2


def test_record_constructor_rejects_bad_calls():
    with pytest.raises(TypeError):
        SystemAParams(1)
    with pytest.raises(TypeError):
        SystemAParams(1, 2, 3)
    with pytest.raises(TypeError):
        SystemAParams(1, b=2, c=3)
    with pytest.raises(TypeError):
        SystemAParams(1, 2, a=1)
    with pytest.raises(TypeError):
        SystemAParams(0.5, 1)  # floats are refused, not rounded
    with pytest.raises(ValueError):
        Characteristic("1/0", 1)
    singular = Singularity(2, "second", "b + v0*u1 = 0")
    assert Trajectory(("u", "v"), (), (), singular=singular).singular is singular


def _never(params):
    return False


# records with defaults: (class, every field given by position, the
# required fields alone, by keyword)
DEFAULTED = [
    (
        Trajectory,
        (("u", "v"), (F(1),), (F(2),), Singularity(1, "first", "a + u0*v1 = 0")),
        {"labels": ("x", "y"), "first": (), "second": ()},
    ),
    (
        Case,
        (_never, "vanishing residue-4 denominator", 4, SystemAParams(1, -1)),
        {"applies": _never},
    ),
    (
        Subcommand,
        ("printing _run_iterate", "iterate a system", ("n",), (), 4),
        {"runner": "printing _run_iterate", "help": "h", "takes": (), "flags": ()},
    ),
]


@pytest.mark.parametrize("cls, full, required", DEFAULTED, ids=[c[0].__name__ for c in DEFAULTED])
def test_keyword_calls_bind_by_one_rule(cls, full, required):
    fields = cls._fields
    by_name = dict(zip(fields, full))
    assert cls(**by_name) == cls(*full) == cls(*full[:2], **dict(list(by_name.items())[2:]))
    # a keyword call that leaves a default in place
    record = cls(**required)
    for name in fields:
        assert getattr(record, name) == required.get(name, getattr(cls, name, None))
    assert record == cls(*required.values())
    # one TypeError, which names the record, its fields and the arguments
    signature = f"{cls.__name__}({', '.join(fields)}) cannot take"
    bad_calls = [
        (full[:1], {fields[0]: full[0]}),  # a keyword that repeats a positional
        ((), {**required, "extra": 1}),  # an unknown keyword
        ((*full, None), {}),  # too many positionals
        ((), {name: value for name, value in required.items() if name != fields[0]}),  # missing
    ]
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError) as raised:
            cls(*args, **kwargs)
        assert str(raised.value) == f"{signature} positional {args} and keyword {kwargs}"
