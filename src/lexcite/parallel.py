"""The second CPU: when lexcite uses one, and how.

The rule: work is split in two whenever the process may run on two or more
CPUs (`usable_cpus`) and `os.fork` exists. How many items there are decides
nothing. Otherwise the caller does all the work.

The contract: the map is the loop on one CPU that it stands for. It gives
work(item) for every item, in item order. The failure raised is the one at
the lowest item index, which is the one the loop would raise, and no item is
started once it is raised. So the outputs, and the failure a stage reports,
are byte-identical on one CPU and on two.

A forked child starts no interpreter and imports nothing: it runs on the
parent's memory, copied as it is written. It sends each value through a pipe
as it makes it, pickled, and at its first failure that failure instead, and
ends with `os._exit`, so no cleanup of the parent's runs twice. The parent
reads each of the child's values when its index comes up, so neither process
holds the other's share, and the pipe's buffer bounds how far the child runs
ahead. Fork only where no other thread runs. lexcite starts no thread. The
OpenBLAS that numpy loads starts a pool of them, but joins it before each
fork (its `pthread_atfork` handler) and restarts it at its next call;
`compare`'s child only sorts, searches, draws, gathers and averages: no BLAS.
"""

from __future__ import annotations

import contextlib
import os
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn

from .errors import STAGE_FAILURES


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_on_two_processes(items: Callable[[], Iterable],
                         work: Callable[[object], object]) -> Iterator:
    """Yield work(item) for each item of the iterable that items() returns,
    in item order, up to the first failure, and raise that failure; an
    exception of the iterable itself belongs to the index of the item it
    did not yield. A caller that may raise in its loop over the values
    closes the map before its exception leaves (`contextlib.closing`), and
    so fails as that loop does.

    When fork exists and the process may use two or more CPUs, the item at
    index i is worked on here when i is even and in one forked child when it
    is odd. Each process calls items() itself, so a file that it opens has
    its own offset in each. The child sends each value as it makes it, or
    its first failure, and this process reads it when its index comes up.
    So this process starts no item after a failure or after the caller
    stops; the child ends at its next write once the pipe is closed, and is
    reaped before the map returns, raises or is closed. A child that ends
    without sending a value it owes is a ChildProcessError naming its signal
    or exit status. Only a failure of STAGE_FAILURES crosses the pipe; any
    other comes back as a RuntimeError holding the child's traceback text."""
    if not (hasattr(os, "fork") and usable_cpus() >= 2):
        for item in items():
            yield work(item)
        return
    import pickle  # noqa: F401 -- here, so that the child need not import it

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        os.close(read_end)
        _child(items, work, write_end)
    os.close(write_end)
    pipe = open(read_end, "rb")
    try:
        for index, item in enumerate(items()):
            yield work(item) if index % 2 == 0 else _receive(pipe, pid)
    finally:
        pipe.close()  # a child still sending ends at its next write
        with contextlib.suppress(ChildProcessError):  # _receive reaped it
            os.waitpid(pid, 0)


def _records(items: Callable[[], Iterable],
             work: Callable[[object], object]) -> Iterator[tuple]:
    """(work(item), None) for each odd-indexed item, in order, up to the
    first exception, and then (None, that exception): as its traceback text
    unless it is one of STAGE_FAILURES."""
    try:
        for index, item in enumerate(items()):
            if index % 2:
                yield work(item), None
    except Exception as exc:  # the child's failure, raised by the parent
        if not isinstance(exc, STAGE_FAILURES):
            import traceback

            exc = "".join(traceback.format_exception(exc))
        yield None, exc


def _child(items: Callable[[], Iterable], work: Callable[[object], object],
           write_end: int) -> NoReturn:
    """The forked child: pickle each record of its share to write_end as it
    is made, and end without returning to the caller."""
    status = 1
    try:
        import pickle

        with open(write_end, "wb") as pipe:
            for record in _records(items, work):
                pipe.write(pickle.dumps(record))
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


def _receive(pipe: BinaryIO, pid: int):
    """The child's next value, read from pipe, or raise the child's failure.
    A child that ended without sending one is reaped here."""
    import pickle

    try:
        value, failure = pickle.load(pipe)  # written by _child above
    except (EOFError, pickle.UnpicklingError):
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code < 0:
            import signal

            try:
                how = f"was killed by {signal.Signals(-code).name}"
            except ValueError:
                how = f"was killed by signal {-code}"
        else:
            how = f"exited with status {code}"
        raise ChildProcessError(f"the forked worker process {how} before it "
                                "sent its results") from None
    if isinstance(failure, str):
        raise RuntimeError(f"in the forked worker process:\n{failure}")
    if failure is not None:
        raise failure
    return value
