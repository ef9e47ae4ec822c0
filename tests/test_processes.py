"""The two-process path of ``iterate`` and ``solve --sweep``.

With the size bar of ``systems.both`` lowered to nothing and two CPUs
granted, each of these runs forks one child, and its stdout, stderr and
exit code equal those of the same run on one process.  When the fork
fails, the child exits nonzero or its data is short, the parent builds
the second component itself, with the same bytes.  ``verify`` and
``difftest`` print the same bytes there but fork no child: they compare
the short divisor lists, and build long entries only for a mismatch's
literals.  The other subcommands and point solves never fork, nor does a
process on one CPU or with a second thread.  After every test no child
process is left.
"""

import json
import os
import pickle
import subprocess
import sys
import threading
from fractions import Fraction as F
from pathlib import Path

import pytest

from sdeq import cli, closed_form, systems

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the second process is forked")

A = [
    "--system", "A", "--a", "2/3", "--b", "-5/7",
    "--u0", "3/5", "--u1", "-2/7", "--v0", "4/9", "--v1", "5/8",
]
B = [
    "--system", "B", "--a", "2/3", "--b", "-5/7", "--c", "3/5", "--d", "4/9",
    "--x0", "3/5", "--x1", "-2/7", "--x2", "4/9", "--y0", "5/8", "--y1", "-3/4", "--y2", "7/6",
]
NEGNEG = [*A[:2], "--a", "-1", "--b", "-1", *A[6:]]
UNIT_BD = [*B[:2], "--a", "1", "--b", "1", "--c", "-1", "--d", "1", *B[10:]]
# u0*v1 = -7 = -a: step 2 is singular, so the orbit holds entries 0 and 1
SINGULAR_A = [
    "--system", "A", "--a", "7", "--b", "1", "--u0", "1", "--u1", "5", "--v0", "2", "--v1", "-7",
]
CSV = ["--format", "csv"]

# name -> (argv, forks on the two-process path); the pure-power tags run
# past two periods, so their sweeps extend by the period.  ``verify`` and
# ``difftest`` compare the short divisor lists and fork no child
RUNS = {
    "iterate-A": (["iterate", *A, "--n", "40"], 1),
    "iterate-A-csv": (["iterate", *A, "--n", "40", *CSV], 1),
    "iterate-B": (["iterate", *B, "--n", "40"], 1),
    "iterate-B-csv": (["iterate", *B, "--n", "40", *CSV], 1),
    "iterate-singular-A": (["iterate", *SINGULAR_A, "--n", "9"], 1),
    "solve-A": (["solve", "--sweep", *A, "--n", "40"], 1),
    "solve-A-csv": (["solve", "--sweep", *A, "--n", "40", *CSV], 1),
    "solve-B": (["solve", "--sweep", *B, "--n", "40"], 1),
    "solve-B-csv": (["solve", "--sweep", *B, "--n", "40", *CSV], 1),
    "solve-NegNeg": (["solve", "--sweep", *NEGNEG, "--n", "20"], 1),
    "solve-UnitBD-csv": (["solve", "--sweep", *UNIT_BD, "--n", "40", *CSV], 1),
    "verify-A": (["verify", *A, "--n", "40"], 0),
    "verify-B": (["verify", *B, "--n", "40"], 0),
    "verify-NegNeg": (["verify", *NEGNEG, "--n", "20"], 0),
    "verify-UnitBD": (["verify", *UNIT_BD, "--n", "40"], 0),
    # exit 2 before any long entry is built
    "verify-singular-A": (["verify", *SINGULAR_A, "--n", "9"], 0),
    "difftest-A": (["difftest", "--system", "A", "--trials", "3", "--n", "20", "--seed", "1"], 0),
    "difftest-B": (["difftest", "--system", "B", "--trials", "4", "--n", "20", "--seed", "1"], 0),
}

# name -> argv of the other runs, which stay on one process with two CPUs
# granted
ONE_PROCESS = {
    "reduce": ["reduce", *A, "--n", "40"],
    "symmetry-check": [
        "symmetry-check", "--system", "A", "--pairs", "1", "--samples", "3", "--seed", "1",
    ],
    "check-forbidden": ["check-forbidden", *A, "--horizon", "20"],
    "point-NegNeg": ["solve", *NEGNEG, "--n", "40"],
    "point-A": ["solve", *A, "--n", "40"],
}

# entries 0..PREFIX of a component are its start values: every
# telescoping starts with entries 0 and 1
PREFIX = 1


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run(capsys, argv) -> tuple:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _one_process(capsys, monkeypatch, argv) -> tuple:
    """The run of ``argv`` with every job in this process."""
    with monkeypatch.context() as patch:
        patch.setattr(systems, "_FORK_BITS", float("inf"))
        return _run(capsys, argv)


def _two_processes(monkeypatch) -> list:
    """Lower the size bar to nothing and grant two CPUs; returns the list
    of the children forked from now on."""
    monkeypatch.setattr(systems, "_FORK_BITS", -1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    real, children = os.fork, []

    def fork():
        pid = real()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return children


def _built_here(monkeypatch) -> list:
    """The components whose literals this process builds and prints from
    now on."""
    real, built = systems.Telescoping.literals, []

    def literals(self, k):
        built.append(k)
        return real(self, k)

    monkeypatch.setattr(systems.Telescoping, "literals", literals)
    return built


def _built_past_prefix(monkeypatch) -> set:
    """The (component, last index) of each build of Fraction entries past
    entry PREFIX that this process makes from now on."""
    real, built = systems.Telescoping.entries, set()

    def entries(self, k):
        if self.last > PREFIX:
            built.add((k, self.last))
        return real(self, k)

    monkeypatch.setattr(systems.Telescoping, "entries", entries)
    return built


@pytest.mark.parametrize("argv, forks", RUNS.values(), ids=RUNS.keys())
def test_two_processes_print_the_one_process_bytes(capsys, monkeypatch, argv, forks):
    expected = _one_process(capsys, monkeypatch, argv)
    children = _two_processes(monkeypatch)
    built = _built_here(monkeypatch)
    past = _built_past_prefix(monkeypatch)
    assert _run(capsys, argv) == expected
    assert len(children) == forks
    if forks:
        # the child prints the second component: this process prints only the first
        assert set(built) == {0}
    # printing builds no Fraction entry, and a passing (or refused)
    # comparison none past the start values
    assert past == set()


def _wrong(monkeypatch, sequence: str) -> None:
    """Add 1 to entry 3 of the closed-form sweep's S or T from now on."""
    real = closed_form.closed_ST_sweep

    def wrong(system, params, seeds, count):
        S, T = real(system, params, seeds, count)
        if count > 3:
            values = {"S": S, "T": T}[sequence]
            values[3] = (F(*values[3]) + 1).as_integer_ratio()
        return S, T

    monkeypatch.setattr(closed_form, "closed_ST_sweep", wrong)


@pytest.mark.parametrize("sequence, component", [("S", "first"), ("T", "second")])
def test_mismatch_payload_from_two_processes(capsys, monkeypatch, sequence, component):
    # a wrong S[3] first breaks the first component at index 4, a wrong
    # T[3] the second one; with two CPUs granted the comparison still
    # reads the divisor lists on this process, forks no child, and builds
    # only that component's literals, up to index 4
    _wrong(monkeypatch, sequence)
    argv = [
        "verify", "--system", "A", "--a", "2", "--b", "3",
        "--u0", "1", "--u1", "2", "--v0", "3", "--v1", "1/2", "--n", "6",
    ]
    expected = _one_process(capsys, monkeypatch, argv)
    mismatch = json.loads(expected[1])["first_mismatch"]
    assert expected[0] == 4
    assert (mismatch["n"], mismatch["component"]) == (4, component)
    children = _two_processes(monkeypatch)
    built = _built_past_prefix(monkeypatch)
    assert _run(capsys, argv) == expected
    assert children == [] and built == {(("first", "second").index(component), 4)}


def test_difftest_mismatch_payload_from_two_processes(capsys, monkeypatch):
    # with two CPUs granted no trial forks; both components' literals of
    # the counterexample are built up to its index, and no other entry
    # past the start values
    _wrong(monkeypatch, "S")
    argv = ["difftest", "--system", "A", "--trials", "3", "--n", "6", "--seed", "5"]
    expected = _one_process(capsys, monkeypatch, argv)
    counterexample = json.loads(expected[1])["first_counterexample"]
    assert expected[0] == 4 and counterexample["kind"] == "value-mismatch"
    children = _two_processes(monkeypatch)
    built = _built_past_prefix(monkeypatch)
    assert _run(capsys, argv) == expected
    assert children == [] and built == {(0, counterexample["n"]), (1, counterexample["n"])}


def _broken_dump(obj, file, protocol):
    raise RuntimeError("the child fails")


def _short_dump(obj, file, protocol):
    file.write(pickle.dumps(obj, protocol=protocol)[:-1])


@pytest.mark.parametrize("dump", [_broken_dump, _short_dump], ids=["exits-nonzero", "short-data"])
@pytest.mark.parametrize("argv, forks", [RUNS["iterate-A"]], ids=["iterate"])
def test_a_failed_child_is_replaced_here(capsys, monkeypatch, argv, forks, dump):
    expected = _one_process(capsys, monkeypatch, argv)
    children = _two_processes(monkeypatch)
    monkeypatch.setattr(pickle, "dump", dump)
    built = _built_here(monkeypatch)
    assert _run(capsys, argv) == expected
    assert len(children) == forks and 1 in built


def test_a_failed_fork_builds_both_here(capsys, monkeypatch):
    argv = RUNS["solve-B-csv"][0]
    expected = _one_process(capsys, monkeypatch, argv)
    _two_processes(monkeypatch)
    attempts = []

    def fork():
        attempts.append(1)
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    built = _built_here(monkeypatch)
    assert _run(capsys, argv) == expected
    assert attempts == [1] and sorted(built) == [0, 1]


def test_one_cpu_or_a_second_thread_keeps_one_process(capsys, monkeypatch):
    argv = RUNS["iterate-B"][0]
    expected = _one_process(capsys, monkeypatch, argv)
    children = _two_processes(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _run(capsys, argv) == expected
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    waiting.start()
    try:
        assert _run(capsys, argv) == expected
    finally:
        release.set()
        waiting.join(60)
    assert not waiting.is_alive()
    assert children == []


@pytest.mark.parametrize("argv", ONE_PROCESS.values(), ids=ONE_PROCESS.keys())
def test_other_runs_stay_on_one_process(capsys, monkeypatch, argv):
    expected = _one_process(capsys, monkeypatch, argv)
    assert (expected[0], expected[2]) == (0, "") and expected[1]
    children = _two_processes(monkeypatch)
    assert _run(capsys, argv) == expected
    assert children == []


# deep inputs: the entries of A at n = 300 reach 49k bits, and the size
# bound of their second component passes systems._FORK_BITS
PASSING = {
    "verify-A": ["verify", *A, "--n", "300"],
    "verify-B": ["verify", *B, "--n", "300"],
    "difftest-A": ["difftest", "--system", "A", "--trials", "3", "--n", "300", "--seed", "4"],
}


@pytest.mark.parametrize("argv", PASSING.values(), ids=PASSING.keys())
def test_a_passing_comparison_builds_only_the_start_values(argv):
    # a fresh interpreter, so that no other test has loaded sdeq.fork; the
    # comparison reads the start values as they are and builds no entry
    probe = (
        "import os, sys\n"
        "from sdeq import cli, systems\n"
        "real, lasts = systems.Telescoping.entries, []\n"
        "def entries(self, k):\n"
        "    lasts.append(self.last)\n"
        "    return real(self, k)\n"
        "systems.Telescoping.entries = entries\n"
        f"code = cli.main([*{argv!r}, '--out', os.devnull])\n"
        "print(code, lasts == [], 'sdeq.fork' in sys.modules)\n"
    )
    src = str(Path(systems.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == ["0", "True", "False"]


# unit and non-unit parameters of both systems: the deep-unit and
# deep-nonunit inputs of perfbench/workloads.py
COMPARED = {
    "A-OnesOnes": ("A", (1, 1), (F(3, 5), F(2, 7), F(4, 9), F(5, 8))),
    "A-ABneq1": ("A", (F(2, 3), F(-5, 7)), (F(3, 5), F(-2, 7), F(4, 9), F(5, 8))),
    "B-UnitBD": ("B", (1, 1, -1, 1), (F(3, 5), F(2, 7), F(4, 9), F(5, 8), F(3, 4), F(7, 6))),
    "B-ACneq1": (
        "B",
        (F(2, 3), F(-5, 7), F(3, 5), F(4, 9)),
        (F(3, 5), F(-2, 7), F(4, 9), F(5, 8), F(-3, 4), F(7, 6)),
    ),
}


@pytest.mark.parametrize("system, params, ics", COMPARED.values(), ids=COMPARED.keys())
def test_a_passing_comparison_builds_no_fraction_per_index(monkeypatch, system, params, ics):
    # past the start values the comparison runs on int pairs, so the
    # Fractions it constructs do not grow in number with n
    shape = systems.SHAPES[system]
    params, ics = shape.params(*params), shape.initial(*ics)
    tag = closed_form.auto_case(system, params)
    real, built = F.__new__, []

    def counted(cls, *args, **kwargs):
        built.append(cls)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    counts = []
    for n in (200, 2000):
        built.clear()
        assert cli._compare(system, tag, params, ics, n)[2] == 0
        counts.append(len(built))
    monkeypatch.undo()
    assert counts[0] == counts[1] > 0


# (input, the two orders n compared): the non-unit inputs' entries grow by
# about n**2 bits, so they are counted below n = 2000, where printing
# takes seconds
PRINTED = {
    "A-OnesOnes": (*COMPARED["A-OnesOnes"], (200, 2000)),
    "A-ABneq1": (*COMPARED["A-ABneq1"], (100, 300)),
    "B-ACneq1": (*COMPARED["B-ACneq1"], (200, 600)),
}


@pytest.mark.parametrize("system, params, ics, sizes", PRINTED.values(), ids=PRINTED.keys())
def test_printing_builds_no_fraction_per_index(monkeypatch, system, params, ics, sizes):
    # on one process both components are printed in decimal from the short
    # starts and divisors, so the Fractions printing constructs do not grow
    # in number with n
    shape = systems.SHAPES[system]
    params, ics = shape.params(*params), shape.initial(*ics)
    monkeypatch.setattr(systems, "_FORK_BITS", float("inf"))
    real, built = F.__new__, []

    def counted(cls, *args, **kwargs):
        built.append(cls)
        return real(cls, *args, **kwargs)

    counts = []
    for n in sizes:
        telescoping = systems.orbit_telescoping(system, params, ics, n)[1]
        with monkeypatch.context() as patch:
            patch.setattr(F, "__new__", counted)
            built.clear()
            firsts, seconds = systems.both(telescoping.literals, telescoping.bits())
            counts.append(len(built))
        assert len(firsts) == len(seconds) == n + 1
    assert counts[0] == counts[1]
