"""Forked worker processes: independent tasks run on every CPU of the run.

`run` deals the tasks to one share per CPU in `len(os.sched_getaffinity(0))`
(`taskset` restricts them). This process runs share 0 and a forked worker
each other share. Processes, not threads: the short numpy calls and Python
loops of the tasks hold the GIL too often for threads to overlap. Two
callers use it: `rom_fnn._train_fits` trains the FNN stacks, and
`artifacts.write_matrix` formats the row blocks of a large matrix.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import warnings

# prctl(PR_SET_PDEATHSIG, sig) has the kernel send sig to a worker when its parent dies
_PR_SET_PDEATHSIG = 1
_LIBC = ctypes.CDLL(None)
_LIBC.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
_LIBC.prctl.restype = ctypes.c_int


def cpus() -> int:
    """The number of CPUs this process may run on, and so of the shares `run` deals."""
    return len(os.sched_getaffinity(0))


def _fork_worker(task, share):
    """Fork a child that runs `task` on each item of `share` and pickles the list of
    the results, or the exception that stopped it, into a pipe; returns (pid, read end).
    An exception that pickle cannot send is sent as a RuntimeError naming its
    type and message.

    The child is killed if its parent dies, and holds none of its parent's
    descriptors above 2 but the pipe, so the run's lock goes with the parent.
    It prints nothing and leaves by `os._exit`, so it runs none of the
    parent's exit handlers and flushes none of its buffers.
    """
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 warns on a fork from a process with threads: here they can
        # only be the idle workers of the OpenBLAS pools, which OpenBLAS shuts
        # down before a fork and, on the one thread dmrom sets, never starts
        # again; the child takes no lock of the parent's Python threads
        warnings.filterwarnings(
            "ignore", r".* is multi-threaded, use of fork\(\)", DeprecationWarning
        )
        pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    try:
        _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:   # the parent died before the signal was set
            os._exit(1)
        os.closerange(3, write_fd)
        os.closerange(write_fd + 1, os.sysconf("SC_OPEN_MAX"))
        try:
            payload = pickle.dumps([task(item) for item in share])
        except BaseException as exc:   # the parent re-raises it; the child only exits
            try:
                payload = pickle.dumps(exc)
                pickle.loads(payload)   # some pickle but cannot be rebuilt from their args
            except Exception:   # one holding a lock, say: send its type and message
                payload = pickle.dumps(RuntimeError(
                    f"a worker raised {type(exc).__qualname__}, which pickle cannot send: {exc}"))
        with open(write_fd, "wb") as fh:
            fh.write(payload)
    finally:
        os._exit(0)


def _reap(pid: int, read_fd: int, label: str):
    """The unpickled result of worker `pid`, read to its end, once the worker is reaped."""
    try:
        with open(read_fd, "rb") as fh:
            payload = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    # a worker that sent its result or exception exits with status 0
    if status or not payload:
        raise RuntimeError(f"{label} {pid} ended without a result (wait status {status})")
    result = pickle.loads(payload)
    if isinstance(result, BaseException):
        raise result
    return result


def run(task, items, label: str, weights=None) -> list:
    """`[task(item) for item in items]`, the items run over the CPUs.

    The items are dealt to min(`cpus()`, len(items)) shares, heaviest first
    by `weights` (all equal when None), each onto the lightest share, the
    first of equal loads. With equal weights that deals them round robin, so
    items[0] runs in this process. This process runs share 0 and a forked
    worker (`_fork_worker`) each other share; the workers are read and
    reaped in share order. An exception in a task re-raises here as itself
    (one pickle cannot send as a RuntimeError naming it), and a worker
    that ends without a result raises RuntimeError "`label` <pid> ended
    without a result (wait status N)"; the workers not yet reaped are then
    killed and reaped first.
    """
    items = list(items)
    if weights is None:
        weights = [1] * len(items)
    shares = [[] for _ in range(max(1, min(cpus(), len(items))))]
    loads = [0] * len(shares)
    for i in sorted(range(len(items)), key=weights.__getitem__, reverse=True):
        lightest = loads.index(min(loads))
        shares[lightest].append(i)
        loads[lightest] += weights[i]

    children = []
    try:
        for share in shares[1:]:
            children.append(_fork_worker(task, [items[i] for i in share]))
        results = [[task(items[i]) for i in shares[0]]]
        while children:
            results.append(_reap(*children.pop(0), label))
    finally:
        for pid, read_fd in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)
    ordered = [None] * len(items)
    for share, share_results in zip(shares, results):
        for i, result in zip(share, share_results):
            ordered[i] = result
    return ordered
