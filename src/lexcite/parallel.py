"""The second CPU: when lexcite uses one, and how.

One rule decides it. Work is split in two only when the process may run on
two or more CPUs (`usable_cpus`) and there are at least two pieces of
work; otherwise it runs on the caller alone. `compare` splits its bootstrap
cells between the calling thread and one helper thread
(`run_on_two_threads`): numpy releases the interpreter lock while it draws.
`tag` and `profile` split their documents between the calling process and
one forked child (`run_on_two_processes`), since their loops are Python.
Outputs are byte-identical either way.

A forked child starts no interpreter and imports nothing: it runs on the
parent's memory, copied as it is written. It sends back through a pipe only
what it kept and its first failure, pickled, and ends with `os._exit`, so no
cleanup of the parent's runs twice. Fork only where no other thread runs:
`lexcite run` forks before `compare` loads numpy, whose BLAS starts threads.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
from typing import Callable, Iterable, NamedTuple, NoReturn

from .errors import LexciteError

# work(item, keep): keep(key, value) records a value of the item at hand.
Work = Callable[[object, Callable[[object, object], None]], None]


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_on_two_threads(tasks: list[tuple], run: Callable[[tuple], None]) -> None:
    """Call run once per task. The calling thread and, when the process may
    use two or more CPUs and there are two or more tasks, one helper thread
    take tasks in list order from one shared iterator. After the first
    exception neither thread starts another task, and that exception is
    raised here once the helper has ended."""
    pending = iter(tasks)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def drain() -> None:
        try:
            while not errors:
                with lock:
                    task = next(pending, None)
                if task is None:
                    return
                run(task)
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)

    helper = None
    if len(tasks) >= 2 and usable_cpus() >= 2:
        helper = threading.Thread(target=drain, name="lexcite-estimates")
        helper.start()
    try:
        drain()
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[0]


class Share(NamedTuple):
    """What a run over items kept, as (item index, key, value) in index
    order, and its first failure as (item index, exception), or None."""

    kept: list[tuple[int, object, object]]
    failure: tuple[int, BaseException] | None


def run_on_two_processes(items: Callable[[], Iterable], work: Work) -> Share:
    """Call work(item, keep) on each item of the iterable that items()
    returns, in order, until the first exception, which becomes the failure
    at that item's index. An exception raised by the iterable itself is the
    failure at the index of the item it did not yield.

    When fork exists, the process may use two or more CPUs and there are at
    least two items, the item at index i is worked on here when i is even
    and in one forked child when it is odd. Each process calls items()
    itself, so a file that it opens has its own offset in each. Each stops
    at its own first failure, and the result is both shares merged: every
    value kept, and the failure at the lower index. The child is always
    reaped before this returns or raises, even when an interrupt ends the
    calling process's share. A child that ends without sending its share is a
    ChildProcessError naming its signal or exit status. Only a LexciteError
    or an OSError crosses the pipe; any other failure of the child comes
    back as a RuntimeError holding its traceback text."""
    if not (hasattr(os, "fork") and usable_cpus() >= 2 and _at_least_two(items)):
        return _share(items, work, 0, 1)
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
        mine = _share(items, work, 0, 2)
    except BaseException:  # an interrupt: reap the child, then raise it
        with contextlib.suppress(ChildProcessError):
            _reap(pid, read_end)
        raise
    theirs = _reap(pid, read_end)
    failures = [share.failure for share in (mine, theirs) if share.failure is not None]
    return Share(sorted(mine.kept + theirs.kept, key=lambda kept: kept[0]),
                 min(failures, key=lambda failure: failure[0], default=None))


def _at_least_two(items: Callable[[], Iterable]) -> bool:
    """Whether items() yields two items. A failure to read them leaves the
    run to the caller alone, which meets the same failure."""
    try:
        return len(list(itertools.islice(items(), 2))) == 2
    except (LexciteError, OSError):
        return False


def _share(items: Callable[[], Iterable], work: Work, first: int, step: int) -> Share:
    """Work on the items at index first, first + step, ... until the first
    exception."""
    kept: list[tuple[int, object, object]] = []
    index = 0

    def keep(key: object, value: object) -> None:
        kept.append((index, key, value))

    try:
        for item in items():
            if index % step == first:
                work(item, keep)
            index += 1
    except Exception as exc:  # the share's failure, raised by the caller
        return Share(kept, (index, exc))
    return Share(kept, None)


def _child(items: Callable[[], Iterable], work: Work, write_end: int) -> NoReturn:
    """The forked child: work on the odd-indexed items, send the share to
    the parent through write_end, and end without returning to the caller."""
    status = 1
    try:
        import pickle

        kept, failure = _share(items, work, 1, 2)
        if failure is not None and not isinstance(failure[1], (LexciteError, OSError)):
            import traceback

            failure = (failure[0], "".join(traceback.format_exception(failure[1])))
        with open(write_end, "wb") as pipe:
            pickle.dump((kept, failure), pipe)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, read_end: int) -> Share:
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

    kept, failure = pickle.loads(data)  # written by the child above
    if failure is not None and isinstance(failure[1], str):
        failure = (failure[0], RuntimeError(f"in the forked worker process:\n{failure[1]}"))
    return Share(kept, failure)
