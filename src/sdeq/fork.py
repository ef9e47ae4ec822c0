"""The second component's job in a forked child process.

``printing.both`` loads this module only for a job long enough to pay for
a second process, so a run that does not fork loads neither it nor
pickle, which it loads before the fork and the child inherits.  Only
``iterate`` and ``solve --sweep`` reach it: ``verify`` and ``difftest``
compare divisor lists and build no long entry where they agree.  The
child builds and prints its component and sends back only its literals,
and whatever goes wrong with the pipe, the fork or the child, the parent
gets the same result.
"""

from __future__ import annotations

import os
import pickle
import sys
from collections.abc import Callable


def run(job: Callable) -> tuple:
    """(job(0), job(1)), with job(1) run in a forked child while this
    process runs job(0) when os.fork exists, the process may run on two
    CPUs or more and it has one thread; otherwise both run here, in order.
    The child sends back job(1)'s result pickled.  If the pipe or the
    fork fails, both run here; if the child exits nonzero or its data is
    short, job(1) runs here; either way with the same result.  The child
    is always reaped."""
    threading = sys.modules.get("threading")
    alone = threading is None or threading.active_count() == 1
    if not alone or not hasattr(os, "fork") or _cpus() < 2:
        return job(0), job(1)
    ends = ()
    try:
        ends = read, write = os.pipe()
        pid = os.fork()
    except OSError:  # no descriptors for the pipe's two ends, or no process
        for end in ends:
            os.close(end)
        return job(0), job(1)
    if pid == 0:
        _child(job, read, write)
    os.close(write)
    try:
        with open(read, "rb") as pipe:  # closed first: a child still writing gets EPIPE
            first = job(0)
            try:
                second = (pickle.load(pipe),)
            except (EOFError, pickle.UnpicklingError):  # the child's data is short
                second = ()
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0 or not second:
        return first, job(1)
    return first, second[0]


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _child(job: Callable, read: int, write: int) -> None:
    """The forked child of ``run``: stream job(1)'s result to the pipe
    ``write`` and leave by os._exit, 0 once it is sent; nothing reaches
    the parent's stdout or stderr."""
    code = 1
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        os.close(read)
        result = job(1)
        with open(write, "wb") as pipe:
            pickle.dump(result, pipe, protocol=-1)
        code = 0
    finally:
        os._exit(code)
