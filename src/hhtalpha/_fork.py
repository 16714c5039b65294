"""Index maps run on forked worker processes, one per usable core."""

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor

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
