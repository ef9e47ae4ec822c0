import csv
import errno
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

from sdeq import cli, closed_form, orbit, printing, rational, reduction, sampling, symmetry
from sdeq import systems
from sdeq.cli import main
from sdeq.rational import format_rational, parse_rational
from sdeq.systems import SystemAInitial, SystemAParams, iterate_a

RATIONAL = re.compile(r"^-?[0-9]+(/[0-9]+)?$")

A_FLAGS = ["--a", "1", "--b", "1", "--u0", "1", "--u1", "1", "--v0", "1", "--v1", "1"]
B_FLAGS = [
    "--a", "1", "--b", "1", "--c", "1", "--d", "1",
    "--x0", "1", "--x1", "1", "--x2", "1", "--y0", "1", "--y1", "1", "--y2", "1",
]
SRC = str(Path(cli.__file__).resolve().parents[1])


def _environment(unbuffered: bool | None = None) -> dict:
    """This process's environment for a child, with the ``src`` of these
    sources first on PYTHONPATH (pyproject.toml's pythonpath reaches only
    the pytest process); with PYTHONUNBUFFERED=1 where ``unbuffered``,
    without it where false, so that stdout and stderr are block-buffered
    to a pipe or a file, and as inherited where None."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_iterate_json(capsys):
    code, out, _ = run_cli(capsys, ["iterate", "--system", "A", *A_FLAGS, "--n", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["first"][-1] == "3/8"
    assert payload["singular"] is None
    assert payload["params"] == {"a": "1", "b": "1"}
    for value in payload["first"] + payload["second"]:
        assert RATIONAL.match(value)


def test_iterate_csv(capsys):
    code, out, _ = run_cli(
        capsys, ["iterate", "--system", "A", *A_FLAGS, "--n", "3", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,u,v"
    assert lines[-1] == "3,2/3,2/3"


def test_iterate_singular_is_data(capsys):
    argv = [
        "iterate", "--system", "A",
        "--a", "1", "--b", "1",
        "--u0", "1", "--u1", "5", "--v0", "7", "--v1", "-1",
        "--n", "4",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["singular"] == {"step": 2, "component": "first"}
    assert len(payload["first"]) == 2


def test_solve_matches_iterate_and_verify(capsys):
    solve_argv = [
        "solve", "--system", "A", "--case", "auto",
        "--a", "1", "--b", "-1",
        "--u0", "1", "--u1", "2", "--v0", "1", "--v1", "2",
        "--n", "4", "--sweep",
    ]
    code, out, _ = run_cli(capsys, solve_argv)
    assert code == 0
    records = json.loads(out)["records"]
    assert [r["n"] for r in records] == [0, 1, 2, 3, 4]
    assert records[-1] == {"n": 4, "first": "-1/3", "second": "-3", "case": "Aeq1Bneg1"}

    iterate_argv = [
        "iterate", "--system", "A",
        "--a", "1", "--b", "-1",
        "--u0", "1", "--u1", "2", "--v0", "1", "--v1", "2",
        "--n", "4",
    ]
    code, out, _ = run_cli(capsys, iterate_argv)
    trajectory = json.loads(out)
    assert [r["first"] for r in records] == trajectory["first"]

    verify_argv = [
        "verify", "--system", "A", "--case", "auto",
        "--a", "1", "--b", "-1",
        "--u0", "1", "--u1", "2", "--v0", "1", "--v1", "2",
        "--n", "40",
    ]
    code, out, _ = run_cli(capsys, verify_argv)
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_reduce_json(capsys):
    code, out, _ = run_cli(capsys, ["reduce", "--system", "A", *A_FLAGS, "--n", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["w"] == ["1", "1/2", "1/3", "1/4"]
    assert payload["S"] == ["1", "2", "3", "4"]


def test_reduce_singular_exits_2(capsys):
    argv = [
        "reduce", "--system", "A",
        "--a", "1", "--b", "1",
        "--u0", "1", "--u1", "1", "--v0", "1", "--v1", "-1/2",
        "--n", "10",
    ]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "singular" in err


def test_reduce_inadmissible_exits_3(capsys):
    argv = [
        "reduce", "--system", "A",
        "--a", "1", "--b", "1",
        "--u0", "0", "--u1", "1", "--v0", "1", "--v1", "1",
        "--n", "5",
    ]
    code, _, err = run_cli(capsys, argv)
    assert code == 3
    assert "forbidden" in err


def test_check_forbidden_exit_codes(capsys):
    argv = [
        "check-forbidden", "--system", "A",
        "--a", "1", "--b", "1",
        "--u0", "1", "--u1", "1", "--v0", "1", "--v1", "-1/2",
        "--horizon", "10",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 3
    payload = json.loads(out)
    assert payload["violations"] == [{"restriction": "T_even", "r": 1}]
    assert payload["predicted_singular_step"] == 3

    code, out, _ = run_cli(
        capsys, ["check-forbidden", "--system", "A", *A_FLAGS, "--horizon", "10"]
    )
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_solve_forbidden_exits_3(capsys):
    argv = [
        "solve", "--system", "A", "--case", "auto",
        "--a", "1", "--b", "1",
        "--u0", "1", "--u1", "1", "--v0", "1", "--v1", "-1/2",
        "--n", "10",
    ]
    code, _, err = run_cli(capsys, argv)
    assert code == 3
    assert "forbidden" in err


SYMMETRY_A = ["symmetry-check", "--system", "A"]
DIFFTEST_A = ["difftest", "--system", "A"]

# (argv, SDE_SEED or None, the error) for each usage error of
# cli._config_from_args; the "-before-" cases fail two checks and pin
# which one is reported
USAGE_ERRORS = {
    "malformed-literal": (
        ["iterate", "--system", "A", "--a", "1.5", *A_FLAGS[2:], "--n", "4"], None,
        "--a: not a rational literal: '1.5'",
    ),
    "missing-flag": (
        ["iterate", "--system", "A", *A_FLAGS[:4], "--n", "4"], None,
        "--u0 is required for system A",
    ),
    "n-below-lag": (
        ["iterate", "--system", "B", *B_FLAGS, "--n", "1"], None,
        "--n must be >= 2 for system B",
    ),
    "unknown-case": (
        ["solve", "--system", "A", *A_FLAGS, "--case", "Bogus", "--n", "3"], None,
        "--case must be 'auto' or one of Product, ABneq1, Aeq1, Beq1, Aeq1Bneg1,"
        " Beq1Aneg1, OnesOnes, NegNeg",
    ),
    "no-seed": (
        [*DIFFTEST_A, "--trials", "2", "--n", "5"], None,
        "difftest samples randomly; provide --seed or SDE_SEED",
    ),
    "bad-seed-environment": (
        [*DIFFTEST_A, "--trials", "2", "--n", "5"], "abc",
        "SDE_SEED is not an integer: 'abc'",
    ),
    "c1-without-c2": (
        [*SYMMETRY_A, "--c1", "1", "--seed", "4"], None,
        "--c1 and --c2 must be given together",
    ),
    "some-parameter-flags": (
        [*SYMMETRY_A, "--a", "2", "--seed", "4"], None,
        "give all parameter flags or none for symmetry-check",
    ),
    "zero-samples": (
        [*SYMMETRY_A, "--samples", "0", "--seed", "4"], None,
        "--samples and --pairs must be positive",
    ),
    "zero-pairs": (
        [*SYMMETRY_A, "--pairs", "0", "--seed", "4"], None,
        "--samples and --pairs must be positive",
    ),
    "negative-horizon": (
        ["check-forbidden", "--system", "A", *A_FLAGS, "--horizon", "-1"], None,
        "--horizon must be >= 0",
    ),
    "negative-trials": (
        [*DIFFTEST_A, "--trials", "-1", "--n", "5", "--seed", "1"], None,
        "--trials must be >= 0",
    ),
    "difftest-n-below-2": (
        [*DIFFTEST_A, "--trials", "1", "--n", "1", "--seed", "1"], None,
        "--n must be >= 2 for difftest",
    ),
    "missing-flag-before-n-bound": (
        ["iterate", "--system", "A", *A_FLAGS[:4], "--n", "0"], None,
        "--u0 is required for system A",
    ),
    "seed-environment-before-c1-c2-pairing": (
        [*SYMMETRY_A, "--c1", "1"], "abc",
        "SDE_SEED is not an integer: 'abc'",
    ),
    "trials-before-difftest-n": (
        [*DIFFTEST_A, "--trials", "-1", "--n", "1", "--seed", "1"], None,
        "--trials must be >= 0",
    ),
    # a value that starts with "-" and is no negative literal is an option
    # to argparse, so --a lacks its value; "$" also matches before a final
    # newline, so "-1\n" is a value, which the literal parser refuses
    "dangling-slash": (
        ["iterate", "--system", "A", "--a", "-1/", *A_FLAGS[2:], "--n", "4"], None,
        "argument --a: expected one argument",
    ),
    "trailing-letter": (
        ["iterate", "--system", "A", "--a", "-1/2x", *A_FLAGS[2:], "--n", "4"], None,
        "argument --a: expected one argument",
    ),
    "trailing-newline": (
        ["iterate", "--system", "A", "--a", "-1\n", *A_FLAGS[2:], "--n", "4"], None,
        "--a: not a rational literal: '-1\\n'",
    ),
}


@pytest.mark.parametrize("argv, seed, err", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_errors(capsys, monkeypatch, argv, seed, err):
    if seed is None:
        monkeypatch.delenv("SDE_SEED", raising=False)
    else:
        monkeypatch.setenv("SDE_SEED", seed)
    assert run_cli(capsys, argv) == (1, "", f"error: {err}\n")


@pytest.mark.parametrize("value, printed", [("-01", "-1"), ("-0/3", "0")])
def test_negative_literals_with_leading_zeros_are_values(capsys, value, printed):
    argv = ["iterate", "--system", "A", "--a", value, *A_FLAGS[2:], "--n", "4"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["params"]["a"] == printed


# (argv, the flag refused, the system): a literal flag of the other system
# only, refused before its value is read; every subparser takes both
# systems' flags, so only the check refuses it
FOREIGN_FLAGS = {
    "iterate": (["iterate", "--system", "A", *A_FLAGS, "--n", "4", "--c", "1/0"], "--c", "A"),
    "solve": (["solve", "--system", "B", *B_FLAGS, "--n", "4", "--u0", "1"], "--u0", "B"),
    "reduce": (["reduce", "--system", "A", *A_FLAGS, "--n", "4", "--y2", "2"], "--y2", "A"),
    "verify": (["verify", "--system", "B", *B_FLAGS, "--n", "4", "--v1", "x"], "--v1", "B"),
    "check-forbidden": (
        ["check-forbidden", "--system", "A", *A_FLAGS, "--horizon", "3", "--d", "1"], "--d", "A"
    ),
    "symmetry-check": ([*SYMMETRY_A, "--c", "1", "--seed", "4"], "--c", "A"),
    # refused before a flag of the system's own is found missing
    "before-missing-flag": (["iterate", "--system", "A", "--x0", "1", "--n", "4"], "--x0", "A"),
}


@pytest.mark.parametrize("argv, flag, system", FOREIGN_FLAGS.values(), ids=FOREIGN_FLAGS)
def test_foreign_flags(capsys, argv, flag, system):
    err = f"error: {flag} is not a flag of system {system}\n"
    assert run_cli(capsys, argv) == (1, "", err)


def _literal_flags(*names):
    # a rational-literal flag: optional, no default, no choices, read as text
    return [((f"--{name}",), False, None, None, None) for name in names]


# per subcommand: its --help line and, for each option in --help order, its
# (option strings, required, default, choices, type)
_HELP = (("-h", "--help"), False, "==SUPPRESS==", None, None)
_SYSTEM = (("--system",), True, None, ("A", "B"), None)
_PARAMS = _literal_flags("a", "b", "c", "d")
_ICS = _literal_flags("u0", "u1", "v0", "v1", "x0", "x1", "x2", "y0", "y1", "y2")
_ORBIT = [_HELP, _SYSTEM, *_PARAMS, *_ICS, (("--n",), True, None, None, int)]
_OUT = (("--out",), False, None, None, None)
_FORMAT = (("--format",), False, "json", ("json", "csv"), None)
_CASE = (("--case",), False, "auto", None, None)
_SEED = (("--seed",), False, None, None, int)
ARGUMENT_SURFACE = {
    "iterate": ("iterate a system exactly", [*_ORBIT, _OUT, _FORMAT]),
    "solve": (
        "evaluate a closed-form solution",
        [*_ORBIT, _OUT, _CASE, (("--sweep",), False, False, None, None), _FORMAT],
    ),
    "reduce": ("invariants and auxiliary sequences", [*_ORBIT, _OUT, _FORMAT]),
    "verify": ("closed forms vs iteration", [*_ORBIT, _OUT, _CASE]),
    "symmetry-check": (
        "residual identity check",
        [
            _HELP, _SYSTEM, *_PARAMS, _OUT, *_literal_flags("c1", "c2"),
            (("--samples",), False, 100, None, int),
            (("--pairs",), False, 10, None, int),
            _SEED,
        ],
    ),
    "check-forbidden": (
        "restriction-set report",
        [_HELP, _SYSTEM, *_PARAMS, *_ICS, _OUT, (("--horizon",), True, None, None, int)],
    ),
    "difftest": (
        "differential test driver",
        [
            _HELP, _SYSTEM, (("--n",), True, None, None, int), _OUT,
            (("--trials",), True, None, None, int), _SEED,
        ],
    ),
}


# one valid invocation per subcommand, in the order of cli.SUBCOMMANDS
PARSED = {
    "iterate": ["iterate", "--system", "A", *A_FLAGS, "--n", "4", "--format", "csv"],
    "solve": ["solve", "--system", "B", *B_FLAGS, "--n", "4", "--sweep"],
    "reduce": ["reduce", "--system", "A", *A_FLAGS, "--n", "4"],
    "verify": ["verify", "--system", "B", *B_FLAGS, "--n", "4", "--case", "Product"],
    "symmetry-check": ["symmetry-check", "--system", "A", "--c1", "1", "--c2", "2", "--seed", "3"],
    "check-forbidden": ["check-forbidden", "--system", "A", *A_FLAGS, "--horizon", "3"],
    "difftest": ["difftest", "--system", "B", "--trials", "2", "--n", "5", "--seed", "1"],
}


def _subparsers(parser) -> dict:
    """Subcommand name -> its parser."""
    (action,) = parser._subparsers._group_actions
    return action.choices


def test_argument_surface():
    parser = cli.build_parser()
    for argv in PARSED.values():
        parser.parse_args(argv)  # fills the subcommand's parser
    (subparsers,) = parser._subparsers._group_actions
    helps = {action.dest: action.help for action in subparsers._choices_actions}
    surface = {
        name: (
            helps[name],
            [
                (tuple(a.option_strings), a.required, a.default, a.choices, a.type)
                for a in sub._actions
            ],
        )
        for name, sub in subparsers.choices.items()
    }
    assert surface == ARGUMENT_SURFACE
    assert list(surface) == list(ARGUMENT_SURFACE)


def test_each_subparser_is_filled_on_its_first_parse():
    parser = cli.build_parser()
    subparsers = _subparsers(parser)
    assert list(subparsers) == list(PARSED) == list(cli.SUBCOMMANDS)

    def filled() -> list:
        return [name for name, sub in subparsers.items() if len(sub._actions) > 1]

    assert filled() == []  # each holds its -h/--help alone
    parser.parse_args(PARSED["verify"])
    assert filled() == ["verify"]
    parser.parse_args(PARSED["difftest"])
    assert filled() == ["verify", "difftest"]


def test_one_parser_parses_every_subcommand_in_turn():
    # the benchmark's replay builds one parser and parses every invocation
    # of a pass with it
    parser = cli.build_parser()
    for argv in [*PARSED.values(), *reversed(PARSED.values())]:
        assert parser.parse_args(argv) == cli.build_parser().parse_args(argv)


# (argv, SDE_SEED or None) of each input that the parsers report on
PARSER_REPORTS = {
    "help": (["--help"], None),
    **{f"{name}-help": ([name, "--help"], None) for name in PARSED},
    "no-arguments": ([], None),
    "unknown-subcommand": (["bogus", "--system", "A"], None),
    **{name: (argv, seed) for name, (argv, seed, _) in USAGE_ERRORS.items()},
}


def _outcome(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of main(argv), --help's exit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, seed", PARSER_REPORTS.values(), ids=PARSER_REPORTS)
def test_lazy_parser_reports_what_a_filled_one_reports(capsys, monkeypatch, argv, seed):
    # against a parser whose subparsers are all filled up front, in this
    # interpreter, so that the wording of its argparse version is compared
    if seed is None:
        monkeypatch.delenv("SDE_SEED", raising=False)
    else:
        monkeypatch.setenv("SDE_SEED", seed)
    lazy = _outcome(capsys, argv)
    build = cli.build_parser

    def filled():
        parser = build()
        for sub in _subparsers(parser).values():
            sub.fill()
        return parser

    monkeypatch.setattr(cli, "build_parser", filled)
    assert _outcome(capsys, argv) == lazy
    assert lazy[0] in (0, 1) and (lazy[1] if lazy[0] == 0 else lazy[2])


def test_case_param_mismatch_exits_1(capsys):
    argv = [
        "solve", "--system", "A", "--case", "OnesOnes",
        "--a", "2", "--b", "1",
        "--u0", "1", "--u1", "1", "--v0", "1", "--v1", "1",
        "--n", "4",
    ]
    code, _, err = run_cli(capsys, argv)
    assert code == 1
    assert "inconsistent" in err


VERIFY_A = [
    "verify", "--system", "A", "--a", "2", "--b", "3",
    "--u0", "1", "--u1", "2", "--v0", "3", "--v1", "1/2", "--n", "6",
]
VERIFY_B = [
    "verify", "--system", "B", "--a", "2", "--b", "3", "--c", "5", "--d", "7",
    "--x0", "1", "--x1", "2", "--x2", "3", "--y0", "1/2", "--y1", "1/3", "--y2", "5", "--n", "6",
]


def _with(argv, **flags):
    """``argv`` with the value of each given --flag replaced."""
    argv = list(argv)
    for flag, value in flags.items():
        argv[argv.index(f"--{flag}") + 1] = value
    return argv


@pytest.mark.parametrize(
    "argv, zero, err, zero_err",
    [
        (
            [*VERIFY_A, "--case", "Aeq1"], "u0",
            "error: case Aeq1 is inconsistent with a=2, b=3\n",
            "error: forbidden input: u0 = 0, closed forms undefined"
            " (breaks closed form at index 0)\n",
        ),
        (
            [*VERIFY_B, "--case", "UnitBD"], "x0",
            "error: case UnitBD is inconsistent with a=2, b=3, c=5, d=7\n",
            "error: forbidden input: System B initial components must all be nonzero\n",
        ),
    ],
    ids=["A", "B"],
)
def test_verify_inconsistent_tag_after_forbidden_input(capsys, argv, zero, err, zero_err):
    # the tag is validated after the iteration and the product route, so
    # their errors win over an inconsistent tag
    assert run_cli(capsys, argv) == (1, "", err)
    assert run_cli(capsys, _with(argv, **{zero: "0"})) == (3, "", zero_err)


def test_difftest_zero_trials_vacuous_pass(capsys):
    code, out, _ = run_cli(
        capsys, ["difftest", "--system", "A", "--trials", "0", "--n", "5", "--seed", "1"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["comparisons"] == 0
    assert payload["failures"] == 0
    assert payload["first_counterexample"] is None


def test_difftest_small_runs_clean(capsys):
    for system, n in (("A", 12), ("B", 12)):
        code, out, _ = run_cli(
            capsys,
            ["difftest", "--system", system, "--trials", "8", "--n", str(n), "--seed", "3"],
        )
        assert code == 0
        assert json.loads(out)["failures"] == 0


def test_symmetry_check_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        ["symmetry-check", "--system", "A", "--c1", "1", "--c2", "2",
         "--samples", "20", "--seed", "5"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_zero"] is True
    assert payload["checked"] == 40  # both parities


# symmetry-check --pairs 1 --samples 2 --seed 7 with the frozen coefficient
# rule: (c1, c2, parity, point, residuals) of every reported residual
FROZEN_NONZERO = {
    "A": [
        ("1/3", "3", 0, ["9", "7/4", "-4", "4/7"], ["1102248/75625", "21/8"]),
        ("1/3", "3", 0, ["4", "9/2", "-2", "9/7"], ["96768/9025", "2187/1936"]),
        ("1/3", "3", 1, ["-1", "4/3", "4", "9/5"], ["270/361", "162/25"]),
        ("1/3", "3", 1, ["1", "4", "9", "-3/8"], ["-1296/3025", "864/529"]),
    ],
    "B": [
        ("1/3", "3", 0, ["-4", "4/7", "-7/4", "-7/9", "4", "9/2"], ["-27648/18769", "-24/1369"]),
        ("1/3", "3", 0, ["-1", "4/3", "4", "9/5", "8/3", "-3/2"], ["-448/361", "-432/961"]),
        ("1/3", "3", 1, ["8/7", "1/8", "9/8", "2/5", "-2/3", "-1"], ["-6144/1849", "-128/2064969"]),
        ("1/3", "3", 1, ["-2/3", "4/3", "1/3", "6/7", "-4", "4/3"], ["1575/961", "0"]),
    ],
}


@pytest.mark.parametrize("system", ["A", "B"])
def test_symmetry_check_reports_nonzero_residuals(capsys, monkeypatch, system):
    # the frozen characteristic breaks the identity, so every sample reaches
    # the report path, which both the integer test and the exact residual feed
    from sdeq import symmetry

    coefficients = symmetry._coefficients
    monkeypatch.setattr(
        symmetry,
        "_coefficients",
        lambda ch, n_parity, shift, variant: coefficients(ch, n_parity, shift, "frozen"),
    )
    argv = ["symmetry-check", "--system", system, "--pairs", "1", "--samples", "2",
            "--seed", "7"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (4, "")
    payload = json.loads(out)
    assert (payload["checked"], payload["all_zero"]) == (4, False)
    reported = [
        (entry["c1"], entry["c2"], entry["parity"], entry["point"], entry["residuals"])
        for entry in payload["nonzero_residuals"]
    ]
    assert reported == FROZEN_NONZERO[system]


def test_draw_rational_keeps_the_seeded_stream():
    # the table lookup makes the two randint draws of
    # Fraction(randint(-9, 9), randint(1, 9)), in that order, so every
    # seeded report keeps its bytes
    drawn, reference = random.Random(3), random.Random(3)
    for _ in range(5_000):
        expected = F(reference.randint(-9, 9), reference.randint(1, 9))
        assert sampling.draw_rational(drawn) == expected
    assert drawn.random() == reference.random()


def _stub_rng(bits):
    """A stand-in for random.Random whose getrandbits(k) returns bits[k];
    ``calls`` counts its calls per k."""
    calls = dict.fromkeys(bits, 0)

    def getrandbits(k):
        calls[k] += 1
        return bits[k]

    return SimpleNamespace(getrandbits=getrandbits, calls=calls)


def test_draw_pairs_stops_at_the_retry_cap():
    # getrandbits(5) = 9 is the numerator 0, so no draw is nonzero
    rng = _stub_rng({5: 9, 4: 0})
    with pytest.raises(sampling.RetryCapError, match="drawing a nonzero rational"):
        sampling.draw_pairs(rng, 1, nonzero=True)
    assert rng.calls == {5: sampling.RETRY_CAP, 4: sampling.RETRY_CAP}


def test_draw_params_stops_at_the_retry_cap():
    # getrandbits(5) = 10 and getrandbits(4) = 0 draw the value 1, so every
    # draw has a*b = 1 and ABneq1 never holds
    rng = _stub_rng({5: 10, 4: 0})
    with pytest.raises(sampling.RetryCapError, match="parameters for case ABneq1"):
        sampling.draw_params(rng, "A", "ABneq1")
    assert rng.calls == {5: 2 * sampling.RETRY_CAP, 4: 2 * sampling.RETRY_CAP}


def test_symmetry_check_without_admissible_points_exits_1(capsys):
    # with a = b = 0 no point of System B has both residuals defined
    argv = ["symmetry-check", "--system", "B", "--a", "0", "--b", "0", "--c", "1", "--d", "1",
            "--seed", "1"]
    err = "error: no admissible sample points for the given parameters\n"
    assert run_cli(capsys, argv) == (1, "", err)


def _randint_sample(rng, system, fixed_params):
    """The draw of symmetry-check as first written: Fraction(randint(-9, 9),
    randint(1, 9)) per parameter (unless fixed) and per point coordinate,
    the coordinate redrawn while zero, the whole draw redrawn until the
    residuals are defined."""
    shape = systems.SHAPES[system]

    def value():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    for _ in range(sampling.RETRY_CAP):
        params = fixed_params or shape.params(*(value() for _ in shape.params._fields))
        point = []
        for _ in shape.initial._fields:
            point.append(value())
            while point[-1] == 0:
                point[-1] = value()
        if symmetry.defined_at(system, params, point):
            return params, tuple(point)
    raise AssertionError("no admissible sample point")


# fixed parameters of each system, for the symmetry-check draw tests
FIXED_PARAMS = {
    "A": SystemAParams(F(2, 3), F(-5, 7)),
    "B": systems.SystemBParams(2, 3, F(1, 2), -1),
}


@pytest.mark.parametrize("system", ["A", "B"])
@pytest.mark.parametrize("fixed", [False, True])
def test_sample_residual_input_keeps_the_seeded_stream(system, fixed):
    fixed_params = FIXED_PARAMS[system] if fixed else None
    drawn, reference = random.Random(5), random.Random(5)
    for _ in range(60):
        params, point = cli._sample_residual_input(drawn, system, fixed_params)
        assert (params, point) == _randint_sample(reference, system, fixed_params)
        assert type(params) is systems.SHAPES[system].params
        assert type(point) is tuple and {type(value) for value in point} == {F}
    assert drawn.random() == reference.random()


def _replayed(system, rng, characteristics, samples, fixed_params):
    """Per sample what the benchmark's replay computes,
    cli._sample_residual_input and then residual_kernel: the drawn
    (params, point) pairs, and (ch, parity, point, residuals) of every
    nonzero kernel."""
    drawn, nonzero = [], []
    for ch in characteristics:
        for parity in (0, 1):
            for _ in range(samples):
                params, point = cli._sample_residual_input(rng, system, fixed_params)
                drawn.append((params, point))
                if symmetry.residual_kernel(system, ch, params, parity, point) != (0, 0):
                    residuals = symmetry.residual(system, ch, params, parity, point)
                    nonzero.append((ch, parity, point, residuals))
    return drawn, nonzero


def _characteristics(rng, inputs):
    if inputs == "fixed pair":
        return [symmetry.Characteristic(F(1, 2), -3)]
    draw = sampling.draw_rational
    return [symmetry.Characteristic(draw(rng), draw(rng)) for _ in range(3)]


# per broken coefficient rule: the parities of n at which it is frozen
FROZEN_AT = {"frozen": (0, 1), "frozen at odd n": (1,)}


@pytest.mark.parametrize("system", ["A", "B"])
@pytest.mark.parametrize(
    "inputs", ["drawn", "fixed params", "fixed pair", "frozen", "frozen at odd n"]
)
def test_symmetry_check_loop_equals_replayed_samples(monkeypatch, system, inputs):
    if inputs in FROZEN_AT:  # the seam test_symmetry_check_reports_nonzero_residuals uses
        coefficients = symmetry._coefficients

        def broken(ch, n_parity, shift, variant):
            frozen = n_parity in FROZEN_AT[inputs]
            return coefficients(ch, n_parity, shift, "frozen" if frozen else variant)

        monkeypatch.setattr(symmetry, "_coefficients", broken)
    params = FIXED_PARAMS[system] if inputs.startswith("fixed") else None
    rng, reference = random.Random(11), random.Random(11)
    characteristics = _characteristics(rng, inputs)
    assert _characteristics(reference, inputs) == characteristics
    expected_draws, expected = _replayed(system, reference, characteristics, 20, params)

    draws = []
    sampler = symmetry.sampler

    def recording(system, params=None):
        draw = sampler(system, params)

        def recorded(rng):
            sample = draw(rng)
            drawn, point = (tuple(map(sampling.pair_value, pairs)) for pairs in sample[:2])
            draws.append((params or systems.SHAPES[system].params(*drawn), point))
            return sample

        return recorded

    monkeypatch.setattr(symmetry, "sampler", recording)
    assert symmetry.check(system, rng, characteristics, 20, params) == expected
    assert draws == expected_draws
    assert rng.random() == reference.random()
    assert {parity for _, parity, _, _ in expected} == set(FROZEN_AT.get(inputs, ()))


def test_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("SDE_SEED", "17")
    code, out, _ = run_cli(capsys, ["difftest", "--system", "A", "--trials", "2", "--n", "6"])
    assert code == 0
    assert json.loads(out)["seed"] == 17


def test_bad_seed_environment_reaches_only_sampling(capsys, monkeypatch):
    monkeypatch.delenv("SDE_SEED", raising=False)
    argv = ["iterate", "--system", "A", *A_FLAGS, "--n", "3"]
    expected = run_cli(capsys, argv)
    assert expected[0] == 0
    monkeypatch.setenv("SDE_SEED", "abc")
    assert run_cli(capsys, argv) == expected
    code, out, err = run_cli(capsys, ["difftest", "--system", "A", "--trials", "2", "--n", "6"])
    assert (code, out, err) == (1, "", "error: SDE_SEED is not an integer: 'abc'\n")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    argv = ["iterate", "--system", "A", *A_FLAGS, "--n", "3", "--out", str(target)]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["first"][-1] == "2/3"


def test_out_unwritable_exits_1(tmp_path, capsys):
    argv = ["iterate", "--system", "A", *A_FLAGS, "--n", "3", "--out", str(tmp_path)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"error: cannot write --out {tmp_path}: Is a directory\n"


def test_no_floats_in_machine_output(capsys):
    code, out, _ = run_cli(capsys, ["iterate", "--system", "B", *B_FLAGS, "--n", "12"])
    payload = json.loads(out)

    def walk(node):
        if isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
        else:
            assert not isinstance(node, float)

    walk(payload)
    for value in payload["first"] + payload["second"]:
        assert RATIONAL.match(value)


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "sdeq", "iterate", "--system", "A", *A_FLAGS, "--n", "2"],
        env=_environment(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["first"] == ["1", "1", "1/2"]


DEEP_A_FLAGS = [
    "--a", "2/3", "--b", "-5/7",
    "--u0", "3/5", "--u1", "-2/7", "--v0", "4/9", "--v1", "5/8",
]
_DEEP_A_PARAMS = SystemAParams(F(2, 3), F(-5, 7))
_DEEP_A_ICS = SystemAInitial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8))


def test_iterate_past_the_digit_limit(capsys):
    code, out, _ = run_cli(capsys, ["iterate", "--system", "A", *DEEP_A_FLAGS, "--n", "300"])
    assert code == 0
    payload = json.loads(out)
    assert max(map(len, payload["first"])) > 4300
    params = SystemAParams(F(2, 3), F(-5, 7))
    ics = SystemAInitial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8))
    trajectory = iterate_a(params, ics, 300)
    assert [parse_rational(v) for v in payload["first"]] == list(trajectory.first)
    assert [parse_rational(v) for v in payload["second"]] == list(trajectory.second)


def test_iterate_csv_past_the_digit_limit(capsys):
    argv = ["iterate", "--system", "A", *DEEP_A_FLAGS, "--n", "300", "--format", "csv"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    header, *lines = out.splitlines()
    assert header == "n,u,v"
    rows = [line.split(",") for line in lines]
    assert max(len(row[1]) for row in rows) > 4300
    trajectory = iterate_a(_DEEP_A_PARAMS, _DEEP_A_ICS, 300)
    assert [int(row[0]) for row in rows] == list(range(301))
    assert [parse_rational(row[1]) for row in rows] == list(trajectory.first)
    assert [parse_rational(row[2]) for row in rows] == list(trajectory.second)


def _csv_writer_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def test_csv_matches_csv_writer(capsys):
    # negative components and values past the divide and conquer bound
    n = 160
    t = iterate_a(_DEEP_A_PARAMS, _DEEP_A_ICS, n)

    def lits(values):
        return [format_rational(v) for v in values]

    indices = [str(k) for k in range(n + 1)]
    inv = reduction.invariants_a(t)
    lin = reduction.linearize(inv)
    expected = {
        "iterate": _csv_writer_text(["n", "u", "v"], zip(indices, lits(t.first), lits(t.second))),
        "solve": _csv_writer_text(
            ["n", "first", "second", "case"],
            zip(indices, lits(t.first), lits(t.second), ["ABneq1"] * (n + 1)),
        ),
        "reduce": _csv_writer_text(
            ["n", "w", "z", "S", "T"],
            zip(indices, *map(lits, (inv.w, inv.z, lin.S, lin.T))),
        ),
    }
    assert max(v.numerator.bit_length() for v in t.first) > rational._FORMAT_STR_BITS
    for command, text in expected.items():
        extra = ["--sweep"] if command == "solve" else []
        argv = [command, "--system", "A", *DEEP_A_FLAGS, "--n", str(n), "--format", "csv", *extra]
        code, out, _ = run_cli(capsys, argv)
        assert (code, out) == (0, text), command


def test_zero_initial_b_exits_3(capsys):
    flags = [*B_FLAGS]
    flags[flags.index("--x0") + 1] = "0"
    result = subprocess.run(
        [sys.executable, "-m", "sdeq", "iterate", "--system", "B", *flags, "--n", "5"],
        env=_environment(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error: forbidden input:")
    assert "Traceback" not in result.stderr
    for command in ("reduce", "verify", "solve"):
        code, out, err = run_cli(capsys, [command, "--system", "B", *flags, "--n", "5"])
        assert (code, out) == (3, "")
        assert err.startswith("error: forbidden input:")
    # solve reaches the closed form, which names the zero seed product
    assert err == (
        "error: forbidden input: x0*y1 = 0, auxiliary seeds undefined"
        " (breaks closed form at index 0)\n"
    )


# a zero initial value on a pure-power tag: the error is the zero input's,
# not the detail the tag gives its own forbidden inputs, at a single point
# and in a sweep, within and past the tag's first two periods
@pytest.mark.parametrize("sweep", [[], ["--sweep"]], ids=["point", "sweep"])
@pytest.mark.parametrize("n", ["2", "20"])
@pytest.mark.parametrize(
    "argv, detail",
    [
        (
            ["--system", "A", *_with(A_FLAGS, a="-1", b="-1", u0="0"), "--case", "NegNeg"],
            "u0 = 0, closed forms undefined",
        ),
        (
            ["--system", "A", *_with(A_FLAGS, a="1", b="-1", u0="0"), "--case", "Aeq1Bneg1"],
            "u0 = 0, closed forms undefined",
        ),
        (
            ["--system", "A", *_with(A_FLAGS, a="-1", b="1", u0="0"), "--case", "Beq1Aneg1"],
            "u0 = 0, closed forms undefined",
        ),
        (
            ["--system", "B", *_with(B_FLAGS, c="-1", x0="0"), "--case", "UnitBD"],
            "x0*y1 = 0, auxiliary seeds undefined",
        ),
    ],
    ids=["NegNeg", "Aeq1Bneg1", "Beq1Aneg1", "UnitBD"],
)
def test_pure_power_zero_input_detail(capsys, argv, detail, n, sweep):
    err = f"error: forbidden input: {detail} (breaks closed form at index 0)\n"
    assert run_cli(capsys, ["solve", *argv, "--n", n, *sweep]) == (3, "", err)


def test_difftest_retry_cap_exits_1(capsys, monkeypatch):
    def never_clean(params, ics, horizon):
        return SimpleNamespace(clean=False)

    monkeypatch.setattr(sampling, "check_forbidden_a", never_clean)
    code, out, err = run_cli(
        capsys, ["difftest", "--system", "A", "--trials", "1", "--n", "5", "--seed", "1"]
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: retry cap exhausted")


@pytest.mark.parametrize(
    "argv",
    [
        ["iterate", "--system", "A", *A_FLAGS[:2], "--b", "1/0", *A_FLAGS[4:], "--n", "4"],
        ["symmetry-check", "--system", "A", *A_FLAGS[:4], "--c1", "1/0", "--c2", "1",
         "--seed", "4"],
    ],
)
def test_zero_denominator_flag_reports_parse_error(capsys, argv):
    # the literal fits the grammar, so the error names its zero denominator
    flag = argv[argv.index("1/0") - 1]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"error: {flag}: zero denominator in rational literal: '1/0'\n"


def test_pure_power_point_solve_reports_first_break(capsys):
    argv = [
        "solve", "--system", "A", "--a", "-1", "--b", "-1",
        "--u0", "1", "--u1", "2", "--v0", "3", "--v1", "1", "--n", "3",
    ]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert err == (
        "error: forbidden input: u0*v1 = 1 or v0*u1 = 1"
        " (breaks closed form at index 2)\n"
    )


# The mismatch payloads below are forced with a wrong auxiliary closed-form
# sweep or with an invariant carry that reports every orbit singular; both
# substitutions act where the library looks the names up.  Every route reads
# the wrong sweep, so the product and case routes both fail, and the case tag
# is named because routes are compared in sorted order.


# code that adds 1 to S[3] of System A's closed-form sweep: _wrong_st_a
# runs it in this process, and a subprocess can run it before sdeq
WRONG_ST_A = """\
from fractions import Fraction
from sdeq import closed_form
real = closed_form.closed_ST_sweep
def wrong(system, params, seeds, count):
    S, T = real(system, params, seeds, count)
    if system == "A" and count > 3:
        S[3] = (Fraction(*S[3]) + 1).as_integer_ratio()
    return S, T
closed_form.closed_ST_sweep = wrong
"""


def _wrong_st_a(monkeypatch):
    # recorded first, so that monkeypatch restores the real sweep
    monkeypatch.setattr(closed_form, "closed_ST_sweep", closed_form.closed_ST_sweep)
    exec(WRONG_ST_A, {})


def test_verify_mismatch_payload(capsys, monkeypatch):
    _wrong_st_a(monkeypatch)
    argv = [
        "verify", "--system", "A", "--a", "2", "--b", "3",
        "--u0", "1", "--u1", "2", "--v0", "3", "--v1", "1/2", "--n", "6",
    ]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (4, "")
    payload = json.loads(out)
    assert (payload["case"], payload["checked"], payload["equal"]) == ("ABneq1", 14, False)
    assert payload["first_mismatch"] == {
        "route": "ABneq1",
        "n": 4,
        "component": "first",
        "closed_form": "16/85",
        "iterated": "32/165",
    }


DISTRIBUTION = (
    "numerators uniform in [-9, 9], denominators uniform in [1, 9]; "
    "redraw on constraint violation (retry cap 1000)"
)


def test_difftest_value_mismatch_payload(monkeypatch):
    _wrong_st_a(monkeypatch)
    report = sampling.difftest("A", 3, 6, 5)
    assert {"schema_version": 1, **report} == {
        "schema_version": 1,
        "command": "difftest",
        "system": "A",
        "trials": 3,
        "N": 6,
        "seed": 5,
        "distribution": DISTRIBUTION,
        "strata": {"general": 3},
        "skipped_draws": 0,
        "comparisons": 42,
        "failures": 18,
        "first_counterexample": {
            "kind": "value-mismatch",
            "route": "ABneq1",
            "params": {"a": "-1/6", "b": "7"},
            "ics": {"u0": "5/4", "u1": "-8/3", "v0": "-1", "v1": "3/2"},
            "n": 4,
            "closed_first": "3735/533",
            "closed_second": "-57/5249",
            "iterated_first": "-29880/1271",
            "iterated_second": "-57/5249",
        },
    }


def test_difftest_value_mismatch_payload_b(monkeypatch):
    real = closed_form.closed_ST_sweep

    def wrong(system, params, seeds, count):
        S, T = real(system, params, seeds, count)
        if system == "B" and count > 2:
            T[2] = (F(*T[2]) * 2).as_integer_ratio()
        return S, T

    monkeypatch.setattr(closed_form, "closed_ST_sweep", wrong)
    report = sampling.difftest("B", 4, 5, 3)
    assert report["strata"] == {"ac-unit": 1, "all-ones": 1, "general": 1, "unit-bd": 1}
    assert (report["skipped_draws"], report["comparisons"], report["failures"]) == (0, 48, 24)
    assert report["first_counterexample"] == {
        "kind": "value-mismatch",
        "route": "ACneq1",
        "params": {"a": "-2/9", "b": "-5/6", "c": "3", "d": "-9/8"},
        "ics": {"x0": "-1/9", "x1": "-1/2", "x2": "2/3", "y0": "1", "y1": "1", "y2": "-2/3"},
        "n": 3,
        "closed_first": "-9/14",
        "closed_second": "-4/19",
        "iterated_first": "-9/7",
        "iterated_second": "-4/19",
    }


def _counted_sweeps(monkeypatch) -> list:
    """The systems of the closed-form table sweeps made from now on."""
    real, calls = closed_form.closed_ST_sweep, []

    def counted(system, params, seeds, count):
        calls.append(system)
        return real(system, params, seeds, count)

    monkeypatch.setattr(closed_form, "closed_ST_sweep", counted)
    return calls


@pytest.mark.parametrize(
    "tag, argv",
    [
        ("ABneq1", _with(VERIFY_A, n="20")),
        ("NegNeg", _with(VERIFY_A, a="-1", b="-1", n="20")),
        ("ACneq1", _with(VERIFY_B, n="20")),
        (
            "UnitBD",
            _with(
                VERIFY_B, a="1", b="1", c="-1", d="1",
                x0="2", x1="3", x2="5", y0="7", y1="11", y2="13", n="40",
            ),
        ),
    ],
)
def test_verify_sweeps_the_table_once(capsys, monkeypatch, tag, argv):
    # past two periods of a pure-power case, so its ratio extension runs
    calls = _counted_sweeps(monkeypatch)
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["case"] == tag
    assert calls == [argv[2]]


def test_verify_pure_power_route_extends_two_periods(capsys, monkeypatch):
    # a wrong S past two periods reaches only the product route: the NegNeg
    # route reads entries 0..3 of the same sweep and extends them by the
    # divisors that built them
    real = closed_form.closed_ST_sweep

    def wrong(system, params, seeds, count):
        S, T = real(system, params, seeds, count)
        if count > 10:
            S[10] = (F(*S[10]) + 1).as_integer_ratio()
        return S, T

    monkeypatch.setattr(closed_form, "closed_ST_sweep", wrong)
    code, out, _ = run_cli(capsys, _with(VERIFY_A, a="-1", b="-1", n="20"))
    payload = json.loads(out)
    assert (code, payload["case"], payload["checked"]) == (4, "NegNeg", 42)
    assert (payload["first_mismatch"]["route"], payload["first_mismatch"]["n"]) == ("product", 11)


@pytest.mark.parametrize("system, n", [("A", 20), ("B", 20)])
def test_difftest_sweeps_the_table_once_per_trial(monkeypatch, system, n):
    calls = _counted_sweeps(monkeypatch)
    trials = 8
    report = sampling.difftest(system, trials, n, 7)
    assert report["failures"] == 0
    assert report["comparisons"] == trials * 2 * (n + 1)
    assert sum(report["strata"].values()) == trials
    assert len(report["strata"]) == len(sampling.STRATA[system])
    assert calls == [system] * trials


def _one_process(monkeypatch) -> None:
    """Run every job of a run in this process, so that the counters patched
    in here see it: a forked child's calls do not reach them."""
    monkeypatch.setattr(printing, "_FORK_BITS", float("inf"))


def _compared_telescopings(monkeypatch) -> list:
    """The component of each comparison of a route telescoping with the
    orbit made from now on."""
    real, calls = orbit.Telescoping.mismatches, []

    def mismatches(self, other, k):
        calls.append(k)
        return real(self, other, k)

    monkeypatch.setattr(orbit.Telescoping, "mismatches", mismatches)
    return calls


def test_each_distinct_route_is_compared_once(capsys, monkeypatch):
    # System A's general stratum has no period, so its case route is the
    # product's telescoping and is compared once per component; its counts
    # are per route
    calls = _compared_telescopings(monkeypatch)
    trials, n = 6, 20
    report = sampling.difftest("A", trials, n, 7)
    assert (report["comparisons"], report["failures"]) == (trials * 2 * (n + 1), 0)
    assert calls == [0, 1] * trials
    # NegNeg's route extends the sweep by its period: two telescopings
    calls.clear()
    code, out, _ = run_cli(capsys, _with(VERIFY_A, a="-1", b="-1", n="20"))
    assert (code, json.loads(out)["case"], json.loads(out)["checked"]) == (0, "NegNeg", 42)
    assert calls == [0, 0, 1, 1]


def test_difftest_unexpected_singularity_payload(capsys, monkeypatch):
    real = orbit.carry

    def always_singular(system, params, ics, n_max):
        carried = real(system, params, ics, n_max)
        forced = carried.singular or systems.Singularity(4, "second", "forced")
        return orbit.Carried(carried.w, carried.z, carried.factors, forced)

    monkeypatch.setattr(orbit, "carry", always_singular)
    report = sampling.difftest("A", 3, 6, 5)
    assert (report["comparisons"], report["failures"]) == (0, 3)
    assert report["first_counterexample"] == {
        "kind": "unexpected-singularity",
        "params": {"a": "-1/6", "b": "7"},
        "ics": {"u0": "5/4", "u1": "-8/3", "v0": "-1", "v1": "3/2"},
        "step": 4,
    }
    code, out, _ = run_cli(
        capsys, ["difftest", "--system", "A", "--trials", "3", "--n", "6", "--seed", "5"]
    )
    assert code == 4
    assert json.loads(out) == {"schema_version": 1, **report}


DEEP_A = [
    "--system", "A", "--a", "2/3", "--b", "-5/7",
    "--u0", "3/5", "--u1", "-2/7", "--v0", "4/9", "--v1", "5/8", "--n", "300",
]


DEEP_B_FLAGS = [
    "--system", "B", "--a", "2/3", "--b", "-5/7", "--c", "3/5", "--d", "4/9",
    "--x0", "3/5", "--x1", "-2/7", "--x2", "4/9", "--y0", "5/8", "--y1", "-3/4", "--y2", "7/6",
]


def _print_path(monkeypatch) -> list:
    """Per printing.format_telescoping call made from now on: (start
    values, last index, Fraction divisions, ints converted from scratch)
    inside it.  With the str() bound lowered to 64 bits, every int of 64
    bits or more that is converted from scratch goes through
    printing._to_decimal."""
    real_literals, real_divide, real_convert = (
        printing.format_telescoping, F.__truediv__, printing._to_decimal,
    )
    calls, counts = [], None

    def divide(x, y):
        if counts is not None:
            counts[0] += 1
        return real_divide(x, y)

    def convert(x):
        if counts is not None:
            counts[1] += 1
        return real_convert(x)

    def literals(starts, divisors, last):
        nonlocal counts
        counts = [0, 0]
        try:
            return real_literals(starts, divisors, last)
        finally:
            calls.append((tuple(starts), last, *counts))
            counts = None

    monkeypatch.setattr(rational, "_FORMAT_STR_BITS", 64)
    monkeypatch.setattr(F, "__truediv__", divide)
    monkeypatch.setattr(printing, "_to_decimal", convert)
    monkeypatch.setattr(printing, "format_telescoping", literals)
    return calls


def test_orbit_outputs_print_from_step_factors(capsys, monkeypatch):
    # entries reach 49k bits; each is printed from the entry two back and
    # the divisor it was built with, in decimal, so no output converts a
    # long int from scratch or divides a Fraction while printing
    params = SystemAParams(F(2, 3), F(-5, 7))
    orbit = iterate_a(params, SystemAInitial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8)), 300)
    assert max(v.numerator.bit_length() for v in orbit.first) > 40_000
    first, second = ([format_rational(v) for v in values] for values in (orbit.first, orbit.second))
    _one_process(monkeypatch)
    printed = _print_path(monkeypatch)
    sweeps = _counted_sweeps(monkeypatch)
    code, out, _ = run_cli(capsys, ["iterate", *DEEP_A])
    assert code == 0 and (json.loads(out)["first"], json.loads(out)["second"]) == (first, second)
    code, out, _ = run_cli(capsys, ["iterate", *DEEP_A, "--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert code == 0 and [row[1:] for row in rows] == [list(pair) for pair in zip(first, second)]
    code, out, _ = run_cli(capsys, ["solve", "--sweep", *DEEP_A, "--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert code == 0 and [row[1:3] for row in rows] == [list(pair) for pair in zip(first, second)]
    starts = [orbit.first[:2], orbit.second[:2]]
    assert (printed, sweeps) == ([(start, 300, 0, 0) for start in starts] * 3, ["A"])


def _flags(record) -> list:
    return [
        item
        for name, value in record._asdict().items()
        for item in (f"--{name}", format_rational(value))
    ]


PURE_POWER_ICS = {
    "A": SystemAInitial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8)),
    "B": systems.SystemBInitial(F(3, 5), F(-2, 7), F(4, 9), F(5, 8), F(-3, 4), F(7, 6)),
}


@pytest.mark.parametrize(
    "system, tag", [("A", "NegNeg"), ("A", "Aeq1Bneg1"), ("A", "Beq1Aneg1"), ("B", "UnitBD")]
)
def test_pure_power_sweeps_print_from_step_factors(capsys, monkeypatch, system, tag):
    # most entries at n = 120 have 64 bits or more; each is printed from
    # the entry two back and the divisor the period extension built it
    # with, so, with the str() bound lowered to 64 bits, no int is
    # converted from scratch and no Fraction is divided while printing
    params, ics = closed_form.CASES[system][tag].fixed, PURE_POWER_ICS[system]
    sweep = closed_form.case_sweep(system, tag, params, ics, 120)
    expected = [[format_rational(v) for v in values] for values in sweep]
    argv = ["solve", "--sweep", "--system", system, *_flags(params), *_flags(ics), "--n", "120"]
    _one_process(monkeypatch)
    printed = _print_path(monkeypatch)
    code, out, _ = run_cli(capsys, argv)
    records = json.loads(out)["records"]
    assert code == 0 and [[r["first"] for r in records], [r["second"] for r in records]] == expected
    code, out, _ = run_cli(capsys, [*argv, "--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert code == 0 and [row[1:3] for row in rows] == [list(pair) for pair in zip(*expected)]
    # each component of each output, printed with no conversion or division
    starts = [tuple(values[:2]) for values in sweep]
    assert printed == [(start, 120, 0, 0) for start in starts] * 2


@pytest.mark.parametrize("argv", [DEEP_A, [*DEEP_B_FLAGS, "--n", "300"]], ids=["A", "B"])
def test_sweep_prints_from_divisors_without_dividing(capsys, monkeypatch, argv):
    # the assembly forms each divisor once, into the list it returns, and
    # the printer reads that list: printing makes no Fraction division and
    # converts no long int from scratch
    _one_process(monkeypatch)
    printed = _print_path(monkeypatch)
    code, out, _ = run_cli(capsys, ["solve", "--sweep", *argv])
    records = json.loads(out)["records"][:2]
    starts = [tuple(parse_rational(r[label]) for r in records) for label in ("first", "second")]
    assert code == 0 and printed == [(start, 300, 0, 0) for start in starts]


@pytest.mark.parametrize("n", [2, 3])
def test_system_b_prints_its_initial_values_as_given(capsys, n):
    # every telescoping starts with entries 0 and 1, so System B's x2 and
    # y2 are entry 2, built by the first divisor of the orbit or of the
    # assembly: iterate and solve --sweep print them as given, in JSON
    # and in CSV, and verify finds every entry equal
    argv = [*DEEP_B_FLAGS, "--n", str(n)]
    flags = dict(zip(DEEP_B_FLAGS[::2], DEEP_B_FLAGS[1::2]))
    given = [[flags[f"--{name}{i}"] for i in range(3)] for name in "xy"]
    code, out, _ = run_cli(capsys, ["iterate", *argv])
    report = json.loads(out)
    assert code == 0 and [report["first"][:3], report["second"][:3]] == given
    assert len(report["first"]) == len(report["second"]) == n + 1
    code, out, _ = run_cli(capsys, ["solve", "--sweep", *argv])
    records = json.loads(out)["records"]
    assert code == 0 and [[r[k] for r in records[:3]] for k in ("first", "second")] == given
    assert len(records) == n + 1
    for sub in (["iterate"], ["solve", "--sweep"]):
        code, out, _ = run_cli(capsys, [*sub, *argv, "--format", "csv"])
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert code == 0 and len(rows) == n + 1
        assert [[row[1] for row in rows[:3]], [row[2] for row in rows[:3]]] == given
    code, out, _ = run_cli(capsys, ["verify", *argv])
    report = json.loads(out)
    assert code == 0 and report["equal"] is True and report["checked"] == 2 * (n + 1)


# ---------------------------------------------------------------------------
# the report writer


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def test_json_writer_equals_json_dumps_on_the_cli_corpus(capsys):
    from test_acceptance import _CLI_CONFIGS

    deep_b = [*DEEP_B_FLAGS, "--n", "300"]
    commands = ("iterate", "solve", "reduce")
    deep = [[command, *flags] for command in commands for flags in (DEEP_A, deep_b)]
    deep += [["solve", "--sweep", *flags] for flags in (DEEP_A, deep_b)]
    reports = 0
    for argv in [*_CLI_CONFIGS, *deep]:
        code, out, _ = run_cli(capsys, argv)
        if "csv" not in argv:
            assert out == _json_dumps(json.loads(out)), argv
            reports += 1
    assert reports == 12 + len(deep)


def test_json_writer_escapes_as_json_does():
    payload = {
        "quote": 'say "1/2"',
        "backslash": "a\\b",
        "control": "tab\there\nbell\x07 del\x7f",
        "non-ascii": "u₀ = ½, \U0001d54c",
        "": "",
        "empty": [],
        "nothing": {},
        "nested": {"none": None, "flags": [True, False, None], "ints": (0, -7, 2**70)},
        "deep": [[], [[None]], {"0": {}}],
        'key "quoted"\n': [{"x": 1}, {}, [{}]],
    }
    assert cli._jdump(payload) == _json_dumps(payload)
    literals = ["0", "-1", "3/5", "-" + "7" * 5000 + "/9"]
    marked = {
        "list": cli._Literals(literals),
        "none": cli._Literals([]),
        "one": cli._Literal(literals[3]),
        "records": [{"n": k, "first": cli._Literal(text)} for k, text in enumerate(literals)],
    }
    plain = {
        "list": literals,
        "none": [],
        "one": literals[3],
        "records": [{"n": k, "first": text} for k, text in enumerate(literals)],
    }
    assert cli._jdump(marked) == _json_dumps(plain)
    with pytest.raises(TypeError):
        cli._jdump({"float": 0.5})


def test_successful_run_imports_no_json(tmp_path):
    probe = (
        "import sys\n"
        "from sdeq import cli\n"
        f"code = cli.main(['iterate', '--system', 'A', *{A_FLAGS!r}, '--n', '4',"
        f" '--out', {str(tmp_path / 'report.json')!r}])\n"
        "print(code, 'json' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=_environment(), capture_output=True, text=True
    )
    assert result.stdout == "0 False\n", result.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["first"] == ["1", "1", "1/2", "2/3", "3/8"]


def _python(args, env=None, **options) -> subprocess.Popen:
    """``python *args`` with its stderr piped, in ``env`` or else in
    ``_environment()``."""
    env = env or _environment()
    return subprocess.Popen([sys.executable, *args], stderr=subprocess.PIPE, env=env, **options)


def _sdeq(argv, **options) -> subprocess.Popen:
    return _python(["-m", "sdeq", *argv], **options)


def _ended(process: subprocess.Popen) -> tuple:
    """(exit code, stdout, stderr) of ``process`` once it has ended."""
    out, err = process.communicate(timeout=300)
    return process.returncode, out, err


def test_a_closed_pipe_is_a_report_error():
    # as in `sdeq iterate ... | true`: the reader is gone before the report
    # (17 MB at n = 400) is written
    process = _sdeq(["iterate", *DEEP_A[:-1], "400"], stdout=subprocess.PIPE)
    process.stdout.close()
    err = process.stderr.read()
    assert (process.wait(timeout=300), err) == (1, b"error: cannot write the report: Broken pipe\n")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_reader_that_leaves_early_is_a_report_error(unbuffered):
    # as in `sdeq iterate ... | head -c 1`: the reader takes one byte of the
    # report (5 MB at n = 300) and leaves while sdeq writes the rest.  The
    # write it cut short returns a short count, which an unbuffered text
    # layer would drop without an error
    process = _sdeq(["iterate", *DEEP_A], stdout=subprocess.PIPE, env=_environment(unbuffered))
    assert process.stdout.read(1) == b"{"
    process.stdout.close()
    err = process.stderr.read()
    assert (process.wait(timeout=300), err) == (1, b"error: cannot write the report: Broken pipe\n")


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="reads the child's CPU time by os.wait4")
def test_a_non_blocking_stdout_waits_for_its_reader():
    # the reader holds off for a second while the report (731 kB at
    # n = 150) fills the pipe, whose write end is non-blocking: sdeq waits
    # until the pipe is writable, without spending that second on the CPU
    argv = ["iterate", *DEEP_A[:-1], "150"]
    expected = _ended(_sdeq(argv, stdout=subprocess.PIPE))
    assert expected[0] == 0 and len(expected[1]) > 500_000
    read, write = os.pipe()
    os.set_blocking(write, False)
    with open(read, "rb") as reader:
        process = _sdeq(argv, stdout=write)
        os.close(write)
        time.sleep(1)
        out = reader.read()
    err = process.stderr.read()
    process.stderr.close()
    status, usage = os.wait4(process.pid, 0)[1:]
    process.returncode = os.waitstatus_to_exitcode(status)
    assert (process.returncode, out, err) == expected
    assert usage.ru_utime + usage.ru_stime < 0.5


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the full device")
def test_a_full_device_is_a_report_error():
    with open("/dev/full", "w") as full:
        process = _sdeq(["iterate", "--system", "A", *A_FLAGS, "--n", "5"], stdout=full)
        err = process.stderr.read()
    expected = b"error: cannot write the report: No space left on device\n"
    assert (process.wait(timeout=300), err) == (1, expected)


def _closing(fd: int):
    """A preexec_fn that closes ``fd`` in the child, as `>&-` or `2>&-` do."""
    return lambda: os.close(fd)


def test_a_closed_stdout_is_a_report_error():
    expected = f"error: cannot write the report: {os.strerror(errno.EBADF)}\n".encode()
    # help is a report too: argparse alone would print it to stderr and exit 0
    verify = ["verify", "--system", "A", *A_FLAGS, "--n", "6"]
    for argv in [verify, ["--help"], ["iterate", "--help"]]:
        assert _ended(_sdeq(argv, preexec_fn=_closing(1))) == (1, None, expected), argv


ZERO_SOLVE = ["solve", "--system", "A", "--a", "-1", "--b", "-1", "--u0", "0", "--u1", "2",
              "--v0", "3", "--v1", "1/2", "--n", "9"]


@pytest.mark.parametrize(
    "argv, code, reported",
    [
        (["iterate", "--system", "A", *A_FLAGS, "--n", "4", "--c", "1"], 1, False),
        (["reduce", "--system", "B", "--a", "-1", *B_FLAGS[2:], "--n", "6"], 2, False),
        (ZERO_SOLVE, 3, False),
        (["check-forbidden", "--system", "A", *A_FLAGS[:-1], "-1/2", "--horizon", "3"], 3, True),
        (["iterate", "--system", "A", *A_FLAGS, "--n", "4"], 0, True),
    ],
    ids=["usage", "singular", "forbidden", "violated", "report"],
)
def test_a_closed_stderr_keeps_the_exit_code(argv, code, reported):
    result = subprocess.run(
        [sys.executable, "-m", "sdeq", *argv],
        env=_environment(),
        stdout=subprocess.PIPE,
        preexec_fn=_closing(2),
    )
    assert result.returncode == code
    # an error line goes nowhere, and a report to stdout as ever
    assert result.stdout.startswith(b"{") if reported else result.stdout == b""


# the benchmark's unit System A input, whose carried lists outgrow 400 MiB
# long before n = 3*10**7 (about 2 s on a 2 vCPU Xeon)
UNIT_A_HUGE = [
    "--system", "A", "--a", "1", "--b", "1", "--u0", "3/5", "--u1", "2/7",
    "--v0", "4/9", "--v1", "5/8", "--n", "30000000",
]
OUT_OF_MEMORY = b"error: cannot build the report: out of memory\n"


def _address_space(limit: int):
    """A preexec_fn that caps the child's address space at ``limit`` bytes."""
    import resource

    return lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps mappings on Linux")
@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_running_out_of_memory_is_a_report_error(command):
    limit = _address_space(400 << 20)
    process = _sdeq([command, *UNIT_A_HUGE], stdout=subprocess.PIPE, preexec_fn=limit)
    # one line, no traceback
    assert _ended(process) == (1, b"", OUT_OF_MEMORY)


def test_running_out_of_memory_while_writing_the_text_is_a_report_error(monkeypatch):
    def exhausted(payload):
        raise MemoryError

    monkeypatch.setattr(cli, "_jdump", exhausted)
    argv = ["iterate", "--system", "A", *A_FLAGS, "--n", "4"]
    config = cli._config_from_args(cli.build_parser().parse_args(argv))
    assert cli.run(config) == (1, OUT_OF_MEMORY.decode())


# ---------------------------------------------------------------------------
# the console script leaves by os._exit once its report is flushed

# iterate A at n = 300: the size of its second component (printing._bits)
# is past printing._FORK_BITS, so on two CPUs a child builds it
FORKING = ["iterate", *DEEP_A]

def _after(prelude: str, argv) -> list:
    """The python arguments that run the code ``prelude`` and then, in the
    same interpreter, ``python -m sdeq *argv``."""
    run = "runpy.run_module('sdeq', run_name='__main__', alter_sys=True)"
    return ["-c", f"import runpy, sys\n{prelude}sys.argv = ['sdeq', *{argv!r}]\n{run}\n"]


@pytest.mark.parametrize("sink", ["pipe", "file", "out"])
@pytest.mark.parametrize("fmt", [[], ["--format", "csv"]], ids=["json", "csv"])
def test_the_console_script_loses_no_byte(monkeypatch, tmp_path, fmt, sink):
    argv = [*FORKING, *fmt]
    sizes, size = [], printing._bits
    monkeypatch.setattr(printing, "_bits", lambda built: sizes.append(size(built)) or sizes[-1])
    code, text = cli.run(cli._config_from_args(cli.build_parser().parse_args(argv)))
    assert code == 0 and sizes[0] > printing._FORK_BITS
    path = tmp_path / "report"
    if sink == "file":
        with open(path, "wb") as handle:
            code, piped, err = _ended(_sdeq(argv, stdout=handle))
    else:
        out = ["--out", str(path)] if sink == "out" else []
        code, piped, err = _ended(_sdeq([*argv, *out], stdout=subprocess.PIPE))
    written = piped if sink == "pipe" else path.read_bytes()
    assert (code, err, written) == (0, b"", text.encode())
    assert sink != "out" or piped == b""


def test_the_console_script_leaves_no_process():
    # as the benchmark checks: the process group of a forking run is gone
    # once its leader is reaped, so its child was reaped before it
    process = _sdeq(FORKING, stdout=subprocess.DEVNULL, start_new_session=True)
    assert _ended(process) == (0, None, b"")
    with pytest.raises(ProcessLookupError):
        os.killpg(process.pid, 0)


@pytest.mark.parametrize(
    "argv, code, prelude",
    [
        (["iterate", "--system", "A", *A_FLAGS, "--n", "4", "--c", "1"], 1, None),
        (["reduce", "--system", "B", "--a", "-1", *B_FLAGS[2:], "--n", "6"], 2, None),
        (ZERO_SOLVE, 3, None),
        (["check-forbidden", "--system", "A", *A_FLAGS[:-1], "-1/2", "--horizon", "3"], 3, None),
        (VERIFY_A, 4, WRONG_ST_A),
    ],
    ids=["usage", "singular", "forbidden", "violated", "mismatch"],
)
def test_the_console_script_keeps_each_exit(capsys, monkeypatch, argv, code, prelude):
    if prelude is not None:
        _wrong_st_a(monkeypatch)
    expected = run_cli(capsys, argv)
    assert expected[0] == code
    args = ["-m", "sdeq", *argv] if prelude is None else _after(prelude, argv)
    code, out, err = _ended(_python(args, stdout=subprocess.PIPE))
    assert (code, out.decode(), err.decode()) == expected


def test_an_atexit_callback_still_runs():
    """A callback registered before sdeq runs, as a .pth file may register
    one, runs, and what it prints after the report is flushed too.  Block
    buffered, as without PYTHONUNBUFFERED, that text waits in stdout's
    buffer until console_main flushes it."""
    argv = ["iterate", "--system", "A", *A_FLAGS, "--n", "4"]
    prelude = "import atexit\natexit.register(print, 'atexit ran')\n"
    env = _environment(unbuffered=False)
    code, out, err = _ended(_python(_after(prelude, argv), stdout=subprocess.PIPE, env=env))
    assert (code, err) == (0, b"")
    assert out.startswith(b"{") and out.endswith(b"}\natexit ran\n")


def test_a_profiled_run_prints_its_table():
    # a profiler (sys.setprofile before Python 3.12, sys.monitoring from
    # then on) sees the process exit as usual, and prints its table after
    # the report
    args = ["-m", "cProfile", "-m", "sdeq", *VERIFY_A]
    code, out, err = _ended(_python(args, stdout=subprocess.PIPE))
    assert (code, err) == (0, b"")
    report, table = out.split(b"\n}\n", 1)
    assert json.loads(report + b"\n}")["equal"] is True
    assert b" function calls " in table and b"Ordered by: " in table


# ---------------------------------------------------------------------------
# reduce runs the invariant recursion alone


def _no_long_entries(monkeypatch) -> None:
    """Make the kernels that build long entries raise:
    orbit.Telescoping.entries, in binary, and
    printing.format_telescoping, in decimal."""

    def refuse(*args):
        raise AssertionError("reduce built the long entries of an orbit")

    monkeypatch.setattr(orbit.Telescoping, "entries", refuse)
    monkeypatch.setattr(printing, "format_telescoping", refuse)


@pytest.mark.parametrize("argv", [DEEP_A, [*DEEP_B_FLAGS, "--n", "300"]], ids=["A", "B"])
def test_reduce_builds_no_long_entry(capsys, monkeypatch, argv):
    system = argv[1]
    config = cli._config_from_args(cli.build_parser().parse_args(["reduce", *argv]))
    trajectory = systems.iterate(system, config.params, config.ics, config.n)
    inv = reduction.invariants(system, trajectory)
    lin = reduction.linearize(inv)
    columns = (("w", inv.w), ("z", inv.z), ("S", lin.S), ("T", lin.T))
    expected = {name: [format_rational(v) for v in values] for name, values in columns}
    _no_long_entries(monkeypatch)
    with pytest.raises(AssertionError, match="long entries"):
        systems.iterate(system, config.params, config.ics, config.n)
    code, out, _ = run_cli(capsys, ["reduce", *argv])
    payload = json.loads(out)
    assert code == 0 and {name: payload[name] for name in expected} == expected
    code, out, _ = run_cli(capsys, ["reduce", *argv, "--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0 and rows[0] == ["n", "w", "z", "S", "T"]
    assert [list(row) for row in zip(*expected.values())] == [row[1:] for row in rows[1:]]


@pytest.mark.parametrize(
    "argv, code, err",
    [
        ("--system A --a 1 --b 1 --u0 1 --u1 5 --v0 7 --v1 -1", 2,
         "error: singular trajectory at step 2 (a + u0*v1 = 0)\n"),
        ("--system A --a 1 --b 1 --u0 1 --u1 -1 --v0 1 --v1 2", 2,
         "error: singular trajectory at step 2 (b + v0*u1 = 0)\n"),
        ("--system A --a -1/2 --b 1 --u0 1 --u1 1 --v0 1 --v1 1", 2,
         "error: singular trajectory at step 3 (a + u1*v2 = 0)\n"),
        ("--system A --a 1 --b -1/2 --u0 1 --u1 1 --v0 1 --v1 1", 2,
         "error: singular trajectory at step 3 (b + v1*u2 = 0)\n"),
        ("--system A --a 1 --b 1 --u0 2 --u1 0 --v0 3 --v1 1/2", 3,
         "error: forbidden input: invariant w[0] is zero; reciprocal transform undefined\n"),
        ("--system B --a 1 --b -1 --c 1 --d -1 --x0 1 --x1 1 --x2 1 --y0 1 --y1 1 --y2 1", 2,
         "error: singular trajectory at step 3 (y2*(a + b*x0*y1) = 0)\n"),
        ("--system B --a 1 --b 1 --c 1 --d -1 --x0 1 --x1 1 --x2 1 --y0 1 --y1 1 --y2 1", 2,
         "error: singular trajectory at step 3 (x2*(c + d*y0*x1) = 0)\n"),
        ("--system B --a 2 --b -1 --c 3 --d 1 --x0 1 --x1 2 --x2 1 --y0 1 --y1 1 --y2 1", 2,
         "error: singular trajectory at step 4 (y3*(a + b*x1*y2) = 0)\n"),
        ("--system B --a 1 --b 1 --c 1 --d 1 --x0 1 --x1 1 --x2 1 --y0 1 --y1 1 --y2 0", 3,
         "error: forbidden input: System B initial components must all be nonzero\n"),
    ],
)
def test_reduce_refusals_without_long_entries(capsys, monkeypatch, argv, code, err):
    _no_long_entries(monkeypatch)
    for fmt in ([], ["--format", "csv"]):
        assert run_cli(capsys, ["reduce", *argv.split(), "--n", "9", *fmt]) == (code, "", err)
