"""Independent items shared out over the usable CPUs by forked processes.

Internal to the package: landmark files (`io`, `cli`) and silhouette blocks
(`metrics`) are the callers. Text parsing and formatting hold the GIL, so
landmark files go to processes rather than threads; the silhouette shares the
same processes, so there is one way to use every core.
"""

import os
import pickle
import threading


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def fan_out(fn, items):
    """fn(item) for each item, in item order, as an iterator that raises an
    item's error where the serial loop `map(fn, items)` would.

    The caller and one forked child per further usable CPU each take every
    w-th item, so items of unequal cost still balance. Each process stops its
    share at its first error, as no later item of that share comes first in
    item order. Only results and errors come back: the callees emit no
    warnings on input their callers accept, and a warning would be shown or
    raised in the child that emitted it (one its filters make an error is that
    item's error, as in the loop). Every child has been reaped when this
    returns. The serial loop runs when one CPU is usable, without `os.fork`,
    and while the caller runs other threads: a lock one of them held at the
    fork would stay held in the child.
    """
    w = min(usable_cpus(), len(items))  # looked up here, so tests can set it
    if w < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return map(fn, items)
    children = []  # (pid, read end of its pipe)
    try:
        for i in range(1, w):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _answer(fn, items[i::w], write_end, [fd for _, fd in children] + [read_end])
            os.close(write_end)
            children.append((pid, read_end))
        shares = [_outcomes(fn, items[0::w])]
        shares += [_receive(pid, read_end) for pid, read_end in children]
    finally:
        for pid, read_end in children:
            os.close(read_end)  # a child still writing then stops on a broken pipe
            os.waitpid(pid, 0)
    return _in_item_order(shares, len(items))


def _outcomes(fn, share) -> list:
    """(True, fn(item)) for the items of the share, up to a first (False, error)."""
    outcomes = []
    for item in share:
        try:
            outcomes.append((True, fn(item)))
        except Exception as exc:
            outcomes.append((False, exc))
            break
    return outcomes


def _answer(fn, share, write_end, inherited) -> None:
    """In a forked child: stream the share's outcomes down the pipe, then end
    the process without running any of the caller's exit handlers."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(write_end, "wb") as pipe:
            pickle.dump(_outcomes(fn, share), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _receive(pid: int, read_end: int) -> list:
    """A child's outcomes, loaded straight from its pipe. A child that ends
    without answering fails its share at its first item."""
    try:
        with open(read_end, "rb", closefd=False) as pipe:
            return pickle.load(pipe)
    except Exception as exc:
        error = ChildProcessError(f"worker process {pid} ended without answering: {exc}")
        return [(False, error)]


def _in_item_order(shares: list, n: int):
    w = len(shares)
    for i in range(n):
        ok, value = shares[i % w][i // w]
        if not ok:
            raise value
        yield value
