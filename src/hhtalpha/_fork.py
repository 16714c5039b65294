"""Process work behind one module: index maps on forked workers, one per
usable core, and sums of their results in index order.  No other module
imports multiprocessing, mmap, threading or concurrent.futures (a test checks)."""

import math
import mmap
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np

# The function a pool worker maps; set by the pool's initializer, so only
# worker processes ever hold one.
_worker_fn = None


def _enter_worker(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _worker_call(i: int):
    return _worker_fn(i)


# The fork start method's context; None where the platform lacks fork.
FORK = (multiprocessing.get_context("fork")
        if "fork" in multiprocessing.get_all_start_methods() else None)


def fork_map(fn, count: int) -> list:
    """[fn(0), ..., fn(count - 1)], computed on forked workers, one per usable
    core and at most `count`.  The workers inherit `fn`, so it may be a
    closure; only indices and results are pickled, and an exception raised by
    any call reaches the caller.  The calls run in the calling process on one
    usable core, where the platform lacks fork or sched_getaffinity, and where
    the caller runs other threads: a forked child can inherit a lock another
    thread held, and then never gets it.
    """
    workers = 1
    if FORK is not None and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        workers = min(len(os.sched_getaffinity(0)), count)
    if workers <= 1:
        return list(map(fn, range(count)))
    with ProcessPoolExecutor(workers, mp_context=FORK, initializer=_enter_worker,
                             initargs=(fn,)) as pool:
        return list(pool.map(_worker_call, range(count)))


def shared_zeros(shape: tuple) -> np.ndarray:
    """A zero float64 `shape` array in anonymous shared memory: mapped before
    a fork, it is the same memory in every worker."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), np.float64).reshape(shape)


def fork_sum(fn, count: int, total: np.ndarray) -> list:
    """rows: each fn(i), a (rows[i], total.shape[1]) array, added into the
    leading rows of `total`, a `shared_zeros` array, in index order.

    The calls run through `fork_map`; each adds its result once a shared turn
    reaches its index, so the bytes never depend on which process made it.
    """
    context = FORK or multiprocessing.get_context()  # shared across fork_map's forks
    turn, cond = context.Value("q", 0, lock=False), context.Condition()
    held = None

    def add(i: int) -> int:
        nonlocal held
        if held is None:
            # First call in this process.  glibc maps a block at or above its
            # mmap threshold afresh, and raises the threshold to a mapped
            # block's size only when it frees one.  A forked worker starts
            # from its parent's threshold, and the parent frees no block as
            # large as a result, so the worker's first calls would map their
            # results and temporaries afresh.  One untouched block, larger
            # than any result and freed at once, lets the heap serve them:
            # the EEMD workers of a 9.6 s, ensemble-5 enhance on 2 cores
            # fault about 18 000 pages with it and 43 000 without.
            np.empty((total.shape[0] + 1, total.shape[1]))
        part = total[:0]  # no rows, unless fn returns
        try:
            part = fn(i)
        finally:
            # a call that raised, or whose result does not fit `shape`, still
            # takes its turn, so later calls never wait on it
            with cond:
                cond.wait_for(lambda: turn.value == i)
                try:
                    total[: len(part)] += part
                finally:
                    turn.value = i + 1
                    cond.notify_all()
        # Keep this call's result until the next call in this process ends:
        # freed with its temporaries, an EEMD trial's modes let malloc hand the
        # top of the heap back, and the next trial faults it all in again
        # (about 15 % more CPU time per trial on a 2.4 s input at 16 kHz).
        held = part
        return len(part)

    return fork_map(add, count)
