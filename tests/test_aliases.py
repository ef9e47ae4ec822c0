"""Every per-system name of a system-keyed function (``solve_a_case`` for
``closed_form.case_point("A", ...)`` and the like) is a real function of
that name, and on seeded inputs it gives what its keyed call gives: the
same value, or the same exception type and arguments."""

import random
import re
import sys
import types

import pytest

import sdeq
from sdeq import closed_form, forbidden, reduction, sampling, symmetry, systems
from sdeq.sampling import draw_params, draw_rational

# the names that stay written out per system: the systems' own equations
PER_SYSTEM = {"iterate_a", "iterate_b"}

ALIASES = sorted(
    {name for name in sdeq.__all__ if re.search(r"_[ab](_|$)", name)} - PER_SYSTEM
    | {"draw_admissible_a", "draw_admissible_b"}
)


def _ics(rng, system):
    """Initial values that may be zero, so the error paths run too."""
    initial = systems.SHAPES[system].initial
    return initial(*(draw_rational(rng) for _ in initial._fields))


def _tag(rng, system):
    return rng.choice([*closed_form.CASES[system], "nope"])


def _seeds(rng, system):
    return [draw_rational(rng) for _ in range(2 * systems.SHAPES[system].lag)]


def _orbit(rng, system):
    params, ics = draw_params(rng, system), _ics(rng, system)
    try:
        return systems.iterate(system, params, ics, rng.randint(2, 8))
    except systems.ZeroInitialError:
        return systems.iterate(system, params, sampling.draw_ics(rng, system), 8)


def _plain(keyed, make):
    """The alias called with make(rng, system), the keyed function with the
    system and then the same arguments."""

    def build(rng, system):
        args = make(rng, system)
        return (lambda alias: alias(*args)), (lambda: keyed(system, *args))

    return build


def _spread(keyed, last):
    """The alias takes the seeds one by one, the keyed function as a tuple."""

    def build(rng, system):
        params, seeds, n = draw_params(rng, system), _seeds(rng, system), rng.randint(-1, last)
        return (lambda alias: alias(params, *seeds, n)), (
            lambda: keyed(system, params, tuple(seeds), n)
        )

    return build


def _admissible(rng, system):
    seed, n, tag = rng.randrange(1000), rng.randint(2, 12), rng.choice([None, None, "Product"])
    return (lambda alias: alias(random.Random(seed), n, tag)), (
        lambda: sampling.draw_admissible(random.Random(seed), system, n, tag)[:2]
    )


def _point(rng, system):
    return _tag(rng, system), draw_params(rng, system), _ics(rng, system), rng.randint(-1, 9)


def _residual(rng, system):
    """Values that are often 0, 1 or -1, so zero components and vanishing
    update denominators occur."""
    shape = systems.SHAPES[system]

    def draw():
        return rng.choice([0, 1, -1, draw_rational(rng)])

    ch = symmetry.Characteristic(draw_rational(rng), draw_rational(rng))
    params = shape.params(*(draw() for _ in shape.params._fields))
    point = tuple(draw() for _ in shape.initial._fields)
    return ch, params, rng.randint(0, 1), point, rng.choice(symmetry.VARIANTS)


def _reconstruct(rng, system):
    lin = reduction.LinearSeq(*(tuple(_seeds(rng, system)) for _ in "ST"))
    return lin, draw_rational(rng), draw_rational(rng)


# per name, with the system's letter as {}: how to call the alias and the
# keyed function on the same draws
BUILDERS = {
    "auto_case_{}": _plain(closed_form.auto_case, lambda rng, s: (draw_params(rng, s),)),
    "case_{}_applies": _plain(
        closed_form.case_applies, lambda rng, s: (_tag(rng, s), draw_params(rng, s))
    ),
    "seeds_{}": _plain(closed_form.seeds, lambda rng, s: (_ics(rng, s),)),
    "solve_{}_case": _plain(closed_form.case_point, _point),
    "solve_{}_case_sweep": _plain(closed_form.case_sweep, _point),
    "solve_{}_product": _plain(closed_form.product_point, lambda rng, s: _point(rng, s)[1:]),
    "solve_{}_product_sweep": _plain(
        closed_form.product_sweep, lambda rng, s: _point(rng, s)[1:]
    ),
    "check_forbidden_{}": _plain(
        forbidden.check_forbidden,
        lambda rng, s: (draw_params(rng, s), _ics(rng, s), rng.randint(-1, 4)),
    ),
    "closed_ST_{}": _spread(reduction.closed_ST, 9),
    "solve_linear_{}": _spread(reduction.solve_linear, 9),
    "invariants_{}": _plain(reduction.invariants, lambda rng, s: (_orbit(rng, s),)),
    "reconstruct_{}": _plain(reduction.reconstruct, _reconstruct),
    "draw_admissible_{}": _admissible,
    "slsc_residual_{}": _plain(symmetry.residual, _residual),
}

def _outcome(call):
    try:
        return "value", call()
    except Exception as exc:  # the exception is the outcome compared
        return "raised", type(exc), exc.args


@pytest.mark.parametrize("name", ALIASES)
def test_alias_equals_its_keyed_call(name):
    system = re.search(r"_([ab])(?=_|$)", name).group(1).upper()
    alias = getattr(sdeq, name) if name in sdeq.__all__ else getattr(sampling, name)
    assert isinstance(alias, types.FunctionType)
    assert alias.__name__ == name
    # the layer that defines the keyed function defines the alias
    assert getattr(sys.modules[alias.__module__], name) is alias
    build = BUILDERS[re.sub(r"_[ab](?=_|$)", "_{}", name)]
    rng = random.Random(name)
    outcomes = set()
    for _ in range(40):
        call_alias, call_keyed = build(rng, system)
        got = _outcome(lambda: call_alias(alias))
        assert got == _outcome(call_keyed)
        outcomes.add(got[0])
    if name.startswith(("solve_", "check_", "seeds_", "reconstruct_", "slsc_")):
        assert outcomes == {"value", "raised"}  # both paths ran
