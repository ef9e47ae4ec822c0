"""The start-up contract: ``import sdeq`` and ``import sdeq.cli`` load no
layer beyond rational and systems, each subcommand imports only the layers
it runs and compiles few functions it never calls, every function under
src/sdeq serves an invocation or has a named reason not to (``ALLOWED``),
and the package still exports every public name.

Run as a script (``PYTHONPATH=src python tests/test_startup.py``), it
prints, per subcommand, the sdeq lines its process compiles and how many
of them lie in functions it never enters, then, per reason of
``ALLOWED``, the functions that no invocation of the gate enters, and
last each module's code lines (``_code_lines``), which editing prose
cannot move."""

import ast
import importlib
import io
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import sdeq

SRC = str(Path(sdeq.__file__).resolve().parents[1])
PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

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
# never enters (_never_entered), measured once the names that only forward
# or duplicate were deleted; the guard allows 10 % more.  Plain ints:
# Hypothesis draws constants from the literals of local modules, but from
# no file under a tests/ directory
NEVER_ENTERED = {
    "iterate": 158,
    "reduce": 229,
    "solve": 252,
    "verify": 161,
    "check-forbidden": 62,
    "difftest": 234,
    "symmetry-check": 331,
}

# (exit code, argv) of the documented errors: a usage error that argparse
# finds (no --n), a singular orbit (b + v0*u1 = 0), a zero invariant
# (u0*v1 = 0) and a zero initial value on a pure-power case
EXITS = [
    (1, ["iterate", "--system", "A", *A_FLAGS]),
    (2, ["reduce", "--system", "A", "--a", "1", "--b", "-1", "--u0", "1", "--u1", "1",
         "--v0", "1", "--v1", "1", "--n", "5"]),
    (3, ["reduce", "--system", "A", "--a", "1", "--b", "1", "--u0", "0", "--u1", "1",
         "--v0", "1", "--v1", "1", "--n", "4"]),
    (3, ["solve", "--system", "A", "--a", "-1", "--b", "-1", "--u0", "0", "--u1", "2",
         "--v0", "3", "--v1", "1/2", "--n", "9"]),
]

# a symmetry-check at fixed parameters and one fixed characteristic, as CI
# runs one; the workloads draw both
FIXED_SYMMETRY = [
    "symmetry-check", "--system", "B", "--a", "2", "--b", "3", "--c", "1/2", "--d", "-1",
    "--c1", "1/2", "--c2", "-3", "--seed", "5",
]

# the module-level functions and methods under src/sdeq that no invocation
# of _gate_calls enters, by reason; every other one serves a subcommand
ALLOWED = {
    # the replay times these by name until the benchmark reads per-stage
    # times from the CLI itself (ROADMAP item 1)
    "held by perfbench/replay.py": (
        "cli._sample_residual_input",
        "closed_form.case_sweep",
        "closed_form.product_sweep",
        "reduction.ZeroDivisorError.__init__",
        "reduction.closed_ST",
        "reduction.invariants",
        "reduction.linearize",
        "reduction.reconstruct",
        "reduction.solve_linear",
        "sampling.admissible_pair",
        "symmetry.GroupAction._coerce",
        "symmetry._kernels",
        "symmetry._point_terms",
        "symmetry._residuals",
        "symmetry.group_transform",
        "symmetry.residual",
        "systems.Trajectory.__len__",
    ),
    # the oracles that tests/ checks symmetry-check's kernel and its
    # admissibility test against
    "oracle of a kernel the CLI runs": ("symmetry.defined_at", "symmetry.residual_kernel"),
    # a second process pays only past printing._FORK_BITS, and a
    # divide-and-conquer conversion only past rational._FORMAT_STR_BITS
    "full sizes only": (
        "fork._child", "fork._cpus", "fork.run", "printing._to_decimal",
    ),
    # the literals of a mismatch report
    "exit 4 only": ("closed_form._literal",),
    "record protocol": (
        "systems._Record.__delattr__",
        "systems._Record.__hash__",
        "systems._Record.__repr__",
        "systems._Record.__setattr__",
    ),
    "library entry": ("sdeq.__dir__", "systems.iterate"),
    # the console script, which ends its process by os._exit
    "separate process": ("cli.console_main",),
}

# the package's public names by defining module
EXPORTS = {
    "closed_form": [
        "CaseParamError", "ForbiddenInputError", "auto_case_a", "auto_case_b", "seeds_a",
        "seeds_b", "solve_a_case", "solve_a_case_sweep", "solve_a_product_sweep",
        "solve_b_case", "solve_b_case_sweep", "solve_b_product_sweep",
    ],
    "forbidden": ["ForbiddenReport", "Violation", "check_forbidden_a", "check_forbidden_b"],
    "rational": ["format_rational", "format_sequence", "parse_rational", "rat"],
    "reduction": [
        "InvariantSeq", "LinearSeq", "ZeroDivisorError", "ZeroInvariantError", "closed_ST_a",
        "closed_ST_b", "invariants_a", "invariants_b", "linearize", "reconstruct_a",
        "reconstruct_b", "solve_linear_a", "solve_linear_b",
    ],
    "symmetry": [
        "Characteristic", "GroupAction", "group_transform", "slsc_residual_a",
        "slsc_residual_b",
    ],
    "systems": [
        "Singularity", "SystemAInitial", "SystemAParams", "SystemBInitial", "SystemBParams",
        "Trajectory", "ZeroInitialError", "iterate_a", "iterate_b",
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


def _traced(code: str) -> tuple[list, set]:
    """(files, entered) of a fresh interpreter running ``code`` under
    sys.setprofile: the sdeq files it loaded, and the (file, first line)
    of every function it called."""
    probe = (
        "import json, sys\n"
        "entered = set()\n"
        "def profile(frame, event, arg):\n"
        "    if event == 'call':\n"
        "        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))\n"
        "sys.setprofile(profile)\n"
        f"{code}"
        "sys.setprofile(None)\n"
        "files = [m.__file__ for n, m in list(sys.modules.items())\n"
        "         if n == 'sdeq' or n.startswith('sdeq.')]\n"
        "print(json.dumps([sorted(set(files)), sorted(entered)]))\n"
    )
    files, entered = _probe(probe)
    return files, set(map(tuple, entered))


def _functions(path: str):
    """(name, first line, last line) of each module-level function and
    method of the sdeq file ``path``, named ``module.function`` or
    ``module.Class.method`` (``sdeq.`` for the package itself); a nested
    function is counted with the function around it."""
    with open(path) as handle:
        body = ast.parse(handle.read()).body
    stem = Path(path).stem
    nodes = [("sdeq" if stem == "__init__" else stem, node) for node in body]
    while nodes:
        prefix, node = nodes.pop()
        if isinstance(node, ast.ClassDef):
            nodes += [(f"{prefix}.{node.name}", child) for child in node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            yield f"{prefix}.{node.name}", first, node.end_lineno


def _never_entered(argv) -> tuple[int, int]:
    """(compiled, never entered) of ``python -m sdeq *argv``: the lines of
    the sdeq files its process loads, and the lines of their module-level
    functions and methods that it never calls, as sys.setprofile sees the
    calls."""
    files, entered = _traced(_run_module(argv))
    compiled = never = 0
    for path in files:
        with open(path) as handle:
            compiled += len(handle.read().splitlines())
        for _, first, last in _functions(path):
            if (path, first) not in entered:
                never += last - first + 1
    return compiled, never


def _code_lines(path: str) -> int:
    """The lines of the file ``path`` that hold code: not blank, not only
    a comment and not inside a docstring (a statement that is only a
    string, such as a module's, a class's or a function's first)."""
    with open(path) as handle:
        source = handle.read()
    layout = {"COMMENT", "NL", "NEWLINE", "INDENT", "DEDENT", "ENDMARKER"}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if tokenize.tok_name[token.type] not in layout:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        value = node.value if isinstance(node, ast.Expr) else None
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def _gate_calls() -> list:
    """(argv, exit code) of each invocation the gate traces: the three
    workloads' tiny lists at seed 1 (perfbench/ is only read), FIXED_SYMMETRY,
    every --help, and EXITS."""
    sys.path.insert(0, PERFBENCH)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)
    calls = [
        (call.argv, call.expected_code)
        for name in workloads.WORKLOADS
        for call in workloads.generate(name, 1, tiny=True)
    ]
    calls += [(FIXED_SYMMETRY, 0), (["--help"], 0)]
    calls += [([command, "--help"], 0) for command in SUBCOMMANDS]
    return calls + [(argv, code) for code, argv in EXITS]


def _gate_never_entered() -> set:
    """The names (_functions) of the functions under src/sdeq that one
    interpreter never enters while cli.main runs every _gate_calls
    invocation in turn, each with the exit code it expects."""
    code = (
        "import os\n"
        "from sdeq import cli\n"
        "with open(os.devnull, 'w') as null:\n"
        "    sys.stdout = sys.stderr = null\n"
        f"    for argv, expected in {_gate_calls()!r}:\n"
        "        try:\n"
        "            code = cli.main(argv)\n"
        "        except SystemExit as exc:  # --help\n"
        "            code = exc.code\n"
        "        assert code == expected, (argv, code)\n"
        "sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__\n"
    )
    _, entered = _traced(code)
    paths = sorted(str(path) for path in Path(SRC, "sdeq").glob("*.py"))
    return {
        name
        for path in paths
        for name, first, _ in _functions(path)
        if (path, first) not in entered
    }


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
    assert 0 < never <= 1.1 * NEVER_ENTERED[command] and never < compiled


def test_every_function_serves_an_invocation():
    # names, not a count: a function that stops serving an invocation, or
    # one that no invocation reaches, fails here by name
    assert _gate_never_entered() == {name for names in ALLOWED.values() for name in names}


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
    assert len(expected) == 53
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
    never = _gate_never_entered()
    print(f"functions no invocation of the gate enters ({len(_gate_calls())} invocations):")
    for reason, names in ALLOWED.items():
        print(f"  {reason}: {', '.join(sorted(never.intersection(names))) or '-'}")
    unlisted = never.difference(*ALLOWED.values())
    print(f"  not allowed: {', '.join(sorted(unlisted)) or '-'}")
    paths = sorted(Path(SRC, "sdeq").glob("*.py"))
    counts = {path.name: _code_lines(str(path)) for path in paths}
    print("code lines (not blank, a comment or a docstring) per module:")
    for name, count in counts.items():
        print(f"  {name}: {count}")
    print(f"  total: {sum(counts.values())}")
