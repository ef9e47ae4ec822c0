"""The start-up contract: ``import sdeq`` and ``import sdeq.cli`` load no
layer beyond rational and systems, each subcommand imports only the layers
it runs, and the package still exports every public name."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdeq

SRC = str(Path(sdeq.__file__).resolve().parents[1])

# the modules every CLI process loads
BASE = {"sdeq", "sdeq.cli", "sdeq.rational", "sdeq.systems"}

# stdlib modules that no sdeq process loads
UNLOADED = {"dataclasses", "inspect", "typing"}

A_FLAGS = ["--a", "2", "--b", "3", "--u0", "1", "--u1", "2", "--v0", "3", "--v1", "1/2"]

# subcommand invocation -> the layers it loads beyond BASE
SUBCOMMANDS = {
    "iterate": (["iterate", "--system", "A", *A_FLAGS, "--n", "6"], set()),
    "reduce": (["reduce", "--system", "A", *A_FLAGS, "--n", "6"], {"reduction"}),
    "solve": (["solve", "--system", "A", *A_FLAGS, "--n", "6"], {"closed_form", "reduction"}),
    "verify": (["verify", "--system", "A", *A_FLAGS, "--n", "6"], {"closed_form", "reduction"}),
    "check-forbidden": (
        ["check-forbidden", "--system", "A", *A_FLAGS, "--horizon", "4"],
        {"forbidden"},
    ),
    "difftest": (
        ["difftest", "--system", "A", "--trials", "2", "--n", "4", "--seed", "1"],
        {"sampling", "closed_form", "forbidden", "reduction"},
    ),
    "symmetry-check": (
        ["symmetry-check", "--system", "A", "--pairs", "1", "--samples", "2", "--seed", "1"],
        {"symmetry", "sampling"},
    ),
}

# the package's public names by defining module
EXPORTS = {
    "closed_form": [
        "CASE_TAGS_A", "CASE_TAGS_B", "CaseParamError", "ForbiddenInputError",
        "auto_case_a", "auto_case_b", "seeds_a", "seeds_b", "solve_a_case",
        "solve_a_case_sweep", "solve_a_product_sweep", "solve_b_case", "solve_b_case_sweep",
        "solve_b_product_sweep",
    ],
    "forbidden": [
        "ForbiddenReport", "PredictVerdict", "Violation", "check_forbidden_a",
        "check_forbidden_b", "predict_vs_observe",
    ],
    "rational": [
        "ExactScalar", "alternating_sign", "format_rational", "format_sequence",
        "geometric_sum", "parse_rational", "rat",
    ],
    "reduction": [
        "InvariantSeq", "LinearSeq", "ZeroDivisorError", "ZeroInvariantError", "closed_ST_a",
        "closed_ST_b", "invariants_a", "invariants_b", "linearize", "reconstruct_a",
        "reconstruct_b", "solve_linear_a", "solve_linear_b",
    ],
    "symmetry": [
        "Characteristic", "GroupAction", "group_transform", "invariant_annihilation",
        "slsc_residual_a", "slsc_residual_b",
    ],
    "systems": [
        "Singularity", "SystemAInitial", "SystemAParams", "SystemBInitial", "SystemBParams",
        "Trajectory", "ZeroInitialError", "iterate_a", "iterate_b", "shift_back",
    ],
}


def _added_modules(code: str) -> set:
    """The modules a fresh interpreter adds to sys.modules while running
    ``code``.  It runs without ``site`` (``-S``), so that what a ``.pth``
    file imports at start-up cannot hide a module that sdeq loads."""
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(result.stdout.splitlines()[-1]))


def _sdeq_modules(modules: set) -> set:
    return {name for name in modules if name == "sdeq" or name.startswith("sdeq.")}


def test_import_loads_no_layer():
    assert _sdeq_modules(_added_modules("import sdeq")) == {"sdeq"}
    added = _added_modules("import sdeq.cli")
    assert _sdeq_modules(added) == BASE
    assert not added & UNLOADED


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_loads_only_its_layers(command):
    argv, layers = SUBCOMMANDS[command]
    # what ``python -m sdeq ...`` runs, with the report sent to the null device
    code = (
        "import os, runpy\n"
        f"sys.argv = ['sdeq', *{argv!r}, '--out', os.devnull]\n"
        "try:\n"
        "    runpy.run_module('sdeq', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    added = _added_modules(code)
    assert _sdeq_modules(added) == BASE | {f"sdeq.{layer}" for layer in layers}
    assert not added & UNLOADED


def test_sampling_imports_its_restriction_checks_on_first_use():
    code = (
        "import sdeq.sampling as sampling\n"
        "assert 'sdeq.forbidden' not in sys.modules\n"
        "assert not hasattr(sampling, 'check_forbidden_c')\n"
        "check = sampling.check_forbidden_b\n"
        "assert check is sys.modules['sdeq.forbidden'].check_forbidden_b\n"
        "assert vars(sampling)['check_forbidden_b'] is check\n"
    )
    assert "sdeq.forbidden" in _added_modules(code)


def test_package_exports_every_public_name():
    expected = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])
    assert len(expected) == 62
    assert sdeq.__all__ == expected
    for module, names in EXPORTS.items():
        layer = importlib.import_module(f"sdeq.{module}")
        assert getattr(sdeq, module) is layer
        for name in names:
            assert getattr(sdeq, name) is getattr(layer, name)
    with pytest.raises(AttributeError):
        sdeq.no_such_name


def test_star_and_name_imports_in_a_fresh_interpreter():
    code = (
        "from sdeq import iterate_a\n"
        "from sdeq import closed_form\n"
        "assert iterate_a is sys.modules['sdeq.systems'].iterate_a\n"
        "assert closed_form is sys.modules['sdeq.closed_form']\n"
        "namespace = {}\n"
        "exec('from sdeq import *', namespace)\n"
        "import sdeq\n"
        "assert sorted(set(namespace) - {'__builtins__'}) == sdeq.__all__\n"
        "assert all(namespace[name] is getattr(sdeq, name) for name in sdeq.__all__)\n"
    )
    layers = {f"sdeq.{module}" for module in EXPORTS}
    assert _sdeq_modules(_added_modules(code)) == {"sdeq"} | layers
