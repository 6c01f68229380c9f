"""The second CPU: when lexcite uses one, and how.

The rule: work is split in two whenever the process may run on two or more
CPUs (`usable_cpus`); a split into processes also needs `os.fork`. How many
items there are decides nothing. Otherwise the caller does all the work.

The contract: each map is the loop on one CPU that it stands for. It gives
work(item) for every item, in item order. Once an item fails, no further
item is started, and the failure raised is the one at the lowest item
index, which is the one the loop would raise. So the outputs, and the
failure a stage reports, are byte-identical on one CPU and on two.

There are two carriers. `run_on_two_threads` shares one in-order iterator
between the calling thread and one helper thread; it suits `compare`'s
bootstrap cells, since numpy releases the interpreter lock while it draws.
`run_on_two_processes` gives the odd-indexed items to one forked child; it
suits the Python loops of `tag` and `profile`.

A forked child starts no interpreter and imports nothing: it runs on the
parent's memory, copied as it is written. It sends back through a pipe only
its values and its first failure, pickled, and ends with `os._exit`, so no
cleanup of the parent's runs twice. Fork only where no other thread runs:
`lexcite run` forks before `compare` loads numpy, whose BLAS starts threads.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from .errors import STAGE_FAILURES

# (index of the item, exception): where a run over items stopped, and why
Failure = tuple[int, BaseException]


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_on_two_threads(tasks: Sequence, work: Callable[[object], object]) -> list:
    """[work(task) for task in tasks], computed by the calling thread and,
    when the process may use two or more CPUs, one helper thread, which take
    tasks in order from one shared iterator. Once a task fails neither
    thread starts another; the helper has ended before the failure at the
    lowest task index is raised here."""
    values: list = [None] * len(tasks)
    pending = enumerate(tasks)
    lock = threading.Lock()
    failures: list[Failure] = []

    def drain() -> None:
        index = -1  # an interrupt before the first task comes first
        try:
            while True:
                with lock:
                    taken = None if failures else next(pending, None)
                if taken is None:
                    return
                index, task = taken
                values[index] = work(task)
        except BaseException as exc:  # raised by the calling thread
            with lock:
                failures.append((index, exc))

    helper = None
    if usable_cpus() >= 2:
        helper = threading.Thread(target=drain, name="lexcite-map")
        helper.start()
    try:
        drain()
    finally:
        if helper is not None:
            helper.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return values


def run_on_two_processes(items: Callable[[], Iterable],
                         work: Callable[[object], object]) -> Iterator:
    """Yield work(item) for each item of the iterable that items() returns,
    in item order, then raise the failure at the lowest index; an exception
    of the iterable itself belongs to the index of the item it did not
    yield. A caller that loops over the values, and may raise at one, so
    fails as that loop does, though on two processes the later items' work
    has run by then.

    When fork exists and the process may use two or more CPUs, the item at
    index i is worked on here when i is even and in one forked child when it
    is odd. Each process calls items() itself, so a file that it opens has
    its own offset in each, and stops at its own first failure. The child is
    reaped before the first value is yielded, even when an interrupt ends
    the calling process's share. A child that ends without sending its share
    is a ChildProcessError naming its signal or exit status. Only a failure
    of STAGE_FAILURES crosses the pipe; any other comes back as a
    RuntimeError holding the child's traceback text."""
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
    try:
        mine, my_failure = _share(items, work, 0)
    except BaseException:  # an interrupt: reap the child, then raise it
        with contextlib.suppress(ChildProcessError):
            _reap(pid, read_end)
        raise
    theirs, their_failure = _reap(pid, read_end)
    failures = [failure for failure in (my_failure, their_failure) if failure is not None]
    stop, failure = min(failures, key=lambda failure: failure[0],
                        default=(len(mine) + len(theirs), None))
    for index in range(stop):
        yield (mine, theirs)[index % 2][index // 2]
    if failure is not None:
        raise failure


def _share(items: Callable[[], Iterable], work: Callable[[object], object],
           first: int) -> tuple[list, Failure | None]:
    """The values of the items at index first, first + 2, ... in order, up
    to the first exception, and that exception as a Failure, or None."""
    values = []
    index = 0
    try:
        for item in items():
            if index % 2 == first:
                values.append(work(item))
            index += 1
    except Exception as exc:  # the share's failure, raised by the caller
        return values, (index, exc)
    return values, None


def _child(items: Callable[[], Iterable], work: Callable[[object], object],
           write_end: int) -> NoReturn:
    """The forked child: work on the odd-indexed items, send the share to
    the parent through write_end, and end without returning to the caller."""
    status = 1
    try:
        import pickle

        values, failure = _share(items, work, 1)
        if failure is not None and not isinstance(failure[1], STAGE_FAILURES):
            import traceback

            failure = (failure[0], "".join(traceback.format_exception(failure[1])))
        with open(write_end, "wb") as pipe:
            pickle.dump((values, failure), pipe)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, read_end: int) -> tuple[list, Failure | None]:
    """The child's share, read from read_end until the child closes it, once
    the child has ended."""
    with open(read_end, "rb") as pipe:
        data = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:  # the child exits 0 only once its share is written
        if code < 0:
            import signal

            try:
                how = f"was killed by {signal.Signals(-code).name}"
            except ValueError:
                how = f"was killed by signal {-code}"
        else:
            how = f"exited with status {code}"
        raise ChildProcessError(f"the forked worker process {how} before it "
                                "sent its results")
    import pickle

    values, failure = pickle.loads(data)  # written by the child above
    if failure is not None and isinstance(failure[1], str):
        failure = (failure[0], RuntimeError(f"in the forked worker process:\n{failure[1]}"))
    return values, failure
