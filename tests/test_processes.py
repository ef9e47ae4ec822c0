"""The two-process path of ``iterate``, ``solve --sweep`` and ``verify``.

With the size bar of ``systems.both`` lowered to nothing and two CPUs
granted, each of these runs forks one child, and its stdout, stderr and
exit code equal those of the same run on one process.  When the fork
fails, the child exits nonzero or its data is short, the parent builds
the second component itself, with the same bytes.  The other subcommands
and point solves never fork, nor does a process on one CPU or with a
second thread.  After every test no child process is left.
"""

import json
import os
import pickle
import threading

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
# past two periods, so their sweeps extend by the period
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
    "verify-A": (["verify", *A, "--n", "40"], 1),
    "verify-B": (["verify", *B, "--n", "40"], 1),
    "verify-NegNeg": (["verify", *NEGNEG, "--n", "20"], 1),
    "verify-UnitBD": (["verify", *UNIT_BD, "--n", "40"], 1),
    # exit 2 before any long entry is built
    "verify-singular-A": (["verify", *SINGULAR_A, "--n", "9"], 0),
}


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
    """The components whose entries this process builds from now on."""
    real, built = systems.Telescoping.entries, []

    def entries(self, k):
        built.append(k)
        return real(self, k)

    monkeypatch.setattr(systems.Telescoping, "entries", entries)
    return built


@pytest.mark.parametrize("argv, forks", RUNS.values(), ids=RUNS.keys())
def test_two_processes_print_the_one_process_bytes(capsys, monkeypatch, argv, forks):
    expected = _one_process(capsys, monkeypatch, argv)
    children = _two_processes(monkeypatch)
    built = _built_here(monkeypatch)
    assert _run(capsys, argv) == expected
    assert len(children) == forks
    # the child builds the second component: this process builds only the first
    assert set(built) == ({0} if forks else set())


@pytest.mark.parametrize("sequence, component", [("S", "first"), ("T", "second")])
def test_mismatch_payload_from_two_processes(capsys, monkeypatch, sequence, component):
    # a wrong S[3] first breaks the first component at index 4, a wrong
    # T[3] the second one, whose literals come from the child
    real = closed_form.closed_ST_sweep

    def wrong(system, params, seeds, count):
        S, T = real(system, params, seeds, count)
        if count > 3:
            {"S": S, "T": T}[sequence][3] += 1
        return S, T

    monkeypatch.setattr(closed_form, "closed_ST_sweep", wrong)
    argv = [
        "verify", "--system", "A", "--a", "2", "--b", "3",
        "--u0", "1", "--u1", "2", "--v0", "3", "--v1", "1/2", "--n", "6",
    ]
    expected = _one_process(capsys, monkeypatch, argv)
    mismatch = json.loads(expected[1])["first_mismatch"]
    assert expected[0] == 4 and (mismatch["n"], mismatch["component"]) == (4, component)
    children = _two_processes(monkeypatch)
    assert _run(capsys, argv) == expected
    assert len(children) == 1


def _broken_dump(obj, file, protocol):
    raise RuntimeError("the child fails")


def _short_dump(obj, file, protocol):
    file.write(pickle.dumps(obj, protocol=protocol)[:40])


@pytest.mark.parametrize("dump", [_broken_dump, _short_dump], ids=["exits-nonzero", "short-data"])
@pytest.mark.parametrize("argv", [RUNS["iterate-A"][0], RUNS["verify-B"][0]], ids=["iterate", "verify"])
def test_a_failed_child_is_replaced_here(capsys, monkeypatch, argv, dump):
    expected = _one_process(capsys, monkeypatch, argv)
    children = _two_processes(monkeypatch)
    monkeypatch.setattr(pickle, "dump", dump)
    built = _built_here(monkeypatch)
    assert _run(capsys, argv) == expected
    assert len(children) == 1 and 1 in built


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


@pytest.mark.parametrize(
    "argv",
    [
        ["difftest", "--system", "B", "--trials", "4", "--n", "20", "--seed", "1"],
        ["reduce", *A, "--n", "40"],
        ["symmetry-check", "--system", "A", "--pairs", "1", "--samples", "3", "--seed", "1"],
        ["check-forbidden", *A, "--horizon", "20"],
        ["solve", *NEGNEG, "--n", "40"],
        ["solve", *A, "--n", "40"],
    ],
    ids=["difftest", "reduce", "symmetry-check", "check-forbidden", "point-NegNeg", "point-A"],
)
def test_other_runs_stay_on_one_process(capsys, monkeypatch, argv):
    children = _two_processes(monkeypatch)
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "") and out
    assert children == []
