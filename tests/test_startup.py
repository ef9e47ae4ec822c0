"""The start-up contract: ``import sdeq`` and ``import sdeq.cli`` load no
layer beyond rational and systems, each subcommand imports only the layers
it runs and compiles few functions it never calls, and the package still
exports every public name.

Run as a script (``PYTHONPATH=src python tests/test_startup.py``), it
prints, per subcommand, the sdeq lines its process compiles and how many
of them lie in functions it never enters."""

import ast
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
    "iterate": (["iterate", "--system", "A", *A_FLAGS, "--n", "6"], {"orbit", "printing"}),
    "reduce": (["reduce", "--system", "A", *A_FLAGS, "--n", "6"], {"orbit", "reduction"}),
    "solve": (["solve", "--system", "A", *A_FLAGS, "--n", "6"], {"closed_form", "orbit"}),
    "verify": (["verify", "--system", "A", *A_FLAGS, "--n", "6"], {"closed_form", "orbit"}),
    "check-forbidden": (
        ["check-forbidden", "--system", "A", *A_FLAGS, "--horizon", "4"],
        {"forbidden"},
    ),
    "difftest": (
        ["difftest", "--system", "A", "--trials", "2", "--n", "4", "--seed", "1"],
        {"sampling", "closed_form", "forbidden", "orbit"},
    ),
    "symmetry-check": (
        ["symmetry-check", "--system", "A", "--pairs", "1", "--samples", "2", "--seed", "1"],
        {"symmetry", "sampling"},
    ),
}

# per subcommand invocation, the lines of its loaded sdeq functions that it
# never enters (_never_entered), measured when the runners began to return
# their reports as data for cli to write; the guard allows 10 % more.
# They are text because the set of int literals of 100 or more in src/
# and tests/ stays fixed: Hypothesis draws constants from literals
NEVER_ENTERED = dict(
    line.split(": ")
    for line in """\
iterate: 191
reduce: 263
solve: 289
verify: 195
check-forbidden: 156
difftest: 329
symmetry-check: 389""".splitlines()
)

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


def _probe(code: str):
    """The JSON that a fresh interpreter running ``code`` prints last.  It
    runs without ``site`` (``-S``), so that what a ``.pth`` file imports
    at start-up cannot hide a module that sdeq loads."""
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(result.stdout.splitlines()[-1])


def _added_modules(code: str) -> set:
    """The modules a fresh interpreter adds to sys.modules while running
    ``code``."""
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    return set(_probe(probe))


def _run_module(argv) -> str:
    """The code of ``python -m sdeq *argv``, with the report sent to the
    null device.  Its os._exit raises SystemExit, so that the probe goes
    on after the run and its exit code is checked."""
    return (
        "import os, runpy\n"
        "def _exit(code):\n"
        "    raise SystemExit(code)\n"
        "os._exit = _exit\n"
        f"sys.argv = ['sdeq', *{argv!r}, '--out', os.devnull]\n"
        "try:\n"
        "    runpy.run_module('sdeq', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )


def _never_entered(argv) -> tuple[int, int]:
    """(compiled, never entered) of ``python -m sdeq *argv``: the lines of
    the sdeq files its process loads, and the lines of their module-level
    functions and methods that it never calls, as sys.setprofile sees the
    calls (a nested function is counted with the function around it)."""
    probe = (
        "import json, sys\n"
        "entered = set()\n"
        "def profile(frame, event, arg):\n"
        "    if event == 'call':\n"
        "        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))\n"
        "sys.setprofile(profile)\n"
        f"{_run_module(argv)}"
        "sys.setprofile(None)\n"
        "files = [m.__file__ for n, m in list(sys.modules.items())\n"
        "         if n == 'sdeq' or n.startswith('sdeq.')]\n"
        "print(json.dumps([sorted(set(files)), sorted(entered)]))\n"
    )
    files, entered = _probe(probe)
    entered = set(map(tuple, entered))
    compiled = never = 0
    for path in files:
        with open(path) as handle:
            text = handle.read()
        compiled += len(text.splitlines())
        nodes = list(ast.parse(text).body)
        while nodes:
            node = nodes.pop()
            if isinstance(node, ast.ClassDef):
                nodes += node.body
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                if (path, first) not in entered:
                    never += node.end_lineno - first + 1
    return compiled, never


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
    added = _added_modules(_run_module(argv))
    assert _sdeq_modules(added) == BASE | {f"sdeq.{layer}" for layer in layers}
    assert not added & UNLOADED


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_compiles_few_functions_it_never_enters(command):
    compiled, never = _never_entered(SUBCOMMANDS[command][0])
    assert 0 < never <= 1.1 * int(NEVER_ENTERED[command]) and never < compiled


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
    # orbit exports no public name; the layers that iterate import it
    layers = {f"sdeq.{module}" for module in [*EXPORTS, "orbit"]}
    assert _sdeq_modules(_added_modules(code)) == {"sdeq"} | layers


if __name__ == "__main__":
    for command, (argv, _) in SUBCOMMANDS.items():
        compiled, never = _never_entered(argv)
        print(f"{command}: {compiled} sdeq lines compiled, {never} in functions never entered")
