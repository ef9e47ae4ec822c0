"""The second component's job in a forked child process.

``systems.both`` loads this module only for a job long enough to pay for
a second process, so a run that does not fork loads neither it nor
pickle.  Only ``iterate`` and ``solve --sweep`` reach it: ``verify`` and
``difftest`` compare divisor lists and build no long entry where they
agree.  The child builds and prints its component and sends back only
its literals, and whatever goes wrong with it, the parent gets the same
result.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable


def run(job: Callable) -> tuple:
    """(job(0), job(1)), with job(1) run in a forked child while this
    process runs job(0) when os.fork exists, the process may run on two
    CPUs or more and it has one thread; otherwise both run here, in order.
    The child sends back job(1)'s result pickled.  If the fork fails, or
    the child exits nonzero or its data is short, job(1) runs here, with
    the same result; the child is always reaped."""
    threading = sys.modules.get("threading")
    alone = threading is None or threading.active_count() == 1
    cpus = _cpus() if alone and hasattr(os, "fork") else []
    if len(cpus) < 2:
        return job(0), job(1)
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return job(0), job(1)
    if pid == 0:
        _child(job, cpus[1:], read, write)
    os.close(write)
    try:
        _pin(cpus[:1])
        with open(read, "rb") as pipe:  # closed first: a child still writing gets EPIPE
            first = job(0)
            import pickle  # a few ms, so each process loads it after its job

            try:
                second = (pickle.load(pipe),)
            except (EOFError, pickle.UnpicklingError):  # the child's data is short
                second = ()
    finally:
        _pin(cpus)
        status = os.waitpid(pid, 0)[1]
    if status != 0 or not second:
        return first, job(1)
    return first, second[0]


def _cpus() -> list[int]:
    """The CPUs this process may run on, or as many numbers as there are
    CPUs where the affinity set cannot be read."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _pin(cpus: list[int]) -> None:
    """Keep this process on ``cpus`` where the affinity set can be set.
    Forked on a 2 vCPU VM, a busy child stayed on its parent's CPU for
    the whole of a 150 ms job in 8 of 8 runs, so ``run`` gives the parent
    the first CPU and the child the others while they work."""
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:  # a CPU went offline: leave the placement to the kernel
            pass


def _child(job: Callable, cpus: list[int], read: int, write: int) -> None:
    """The forked child of ``run``: on ``cpus``, stream job(1)'s result to
    the pipe ``write`` and leave by os._exit, 0 once it is sent; nothing
    reaches the parent's stdout or stderr."""
    code = 1
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        os.close(read)
        _pin(cpus)
        result = job(1)
        import pickle

        with open(write, "wb") as pipe:
            pickle.dump(result, pipe, protocol=-1)
        code = 0
    finally:
        os._exit(code)
