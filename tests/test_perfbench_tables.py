"""The benchmark in perfbench/ restates a few per-system facts of sdeq,
because its workload generator stays independent of the package; these
tests check each restated table against the one sdeq keeps."""

import importlib
from pathlib import Path

import pytest

from sdeq import closed_form, sampling, systems

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's workloads and replay modules, imported from its directory
    (the replay imports workloads and reference as top-level modules)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("workloads"), importlib.import_module("replay")


def test_workload_flags_and_periods_equal_shapes(perfbench):
    workloads, _ = perfbench
    shapes = systems.SHAPES
    assert workloads.PARAM_FLAGS == {s: shape.params._fields for s, shape in shapes.items()}
    assert workloads.IC_FLAGS == {s: shape.initial._fields for s, shape in shapes.items()}
    assert workloads.PERIOD == {s: shape.period for s, shape in shapes.items()}


def test_replay_strata_equal_the_cli_strata(perfbench):
    _, replay = perfbench
    assert replay._B_STRATA == sampling.STRATA["B"]


def test_pure_power_families_are_periodic_cases(perfbench):
    workloads, _ = perfbench
    assert workloads.PURE_POWER
    for family in workloads.PURE_POWER:
        system, tag = family.split("-", 1)
        assert workloads.UNIT[family][0] == system
        assert closed_form.CASES[system][tag].period > 0
