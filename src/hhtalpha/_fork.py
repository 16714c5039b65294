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


def _workers(count: int) -> int:
    """How many workers `fork_map` forks for `count` calls; 1 runs them in
    the calling process."""
    if FORK is not None and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        return min(len(os.sched_getaffinity(0)), count)
    return 1


def fork_map(fn, count: int) -> list:
    """[fn(0), ..., fn(count - 1)], computed on forked workers, one per usable
    core and at most `count`.  The workers inherit `fn`, so it may be a
    closure; only indices and results are pickled, and an exception raised by
    any call reaches the caller.  The calls run in the calling process on one
    usable core, where the platform lacks fork or sched_getaffinity, and where
    the caller runs other threads: a forked child can inherit a lock another
    thread held, and then never gets it.
    """
    workers = _workers(count)
    if workers <= 1:
        return list(map(fn, range(count)))
    with ProcessPoolExecutor(workers, mp_context=FORK, initializer=_enter_worker,
                             initargs=(fn,)) as pool:
        return list(pool.map(_worker_call, range(count)))


def shared_zeros(shape: tuple) -> np.ndarray:
    """A zero float64 `shape` array in anonymous shared memory: mapped before
    a fork, it is the same memory in every worker."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), np.float64).reshape(shape)


def fork_sum(fn, count: int, total: np.ndarray, then=None) -> tuple:
    """Add the rows each fn(i) yields into the leading rows of `total`, a
    `shared_zeros` array, in index order, on `fork_map`'s workers.

    Each row has its own turn: call i adds its row m once call i - 1 has
    added or passed row m.  So every row sums its calls in index order, and
    its bytes never depend on which process made it; a row is dropped once
    it is added, so a call need not hold its other rows.  A call that
    raises, or yields fewer rows, passes each remaining row's turn on, so no
    later task waits on it.

    With `then`, the same workers go on to run then(-1), with no row to wait
    for, and then(m) once every call has added or passed row m, for each row
    some call yielded; they start as soon as a worker is free, while the last
    calls still run.  Returns (the number of rows each call yielded,
    [then(-1), then(0), ...], empty without `then`).
    """
    rows = len(total)
    context = FORK or multiprocessing.get_context()  # shared across fork_map's forks
    # turns[m]: the calls that have added or passed row m; turns[rows]: the
    # most rows one call has yielded
    turns, cond = context.Array("q", rows + 1, lock=False), context.Condition()
    # the next follow-up to run: then(claim), once its row is final
    claim = context.Value("q", -1, lock=False)
    first = True

    def add(i: int) -> int:
        nonlocal first
        if first:
            # First call in this process.  glibc maps a block at or above its
            # mmap threshold afresh, and raises the threshold to a mapped
            # block's size only when it frees one.  A forked worker starts
            # from its parent's threshold, and the parent frees no block as
            # large as `total`, so the worker's first calls would map their
            # rows and temporaries afresh.  One untouched block, larger than
            # `total` and freed at once, lets the heap serve them: the
            # workers of a 9.6 s, ensemble-5 enhance on 2 cores fault about
            # 14 000 pages with it and 49 000 without.
            np.empty((rows + 1, total.shape[1]))
            first = False
        done = 0  # rows this call has added or passed
        try:
            for row in fn(i):
                if done == rows:
                    raise ValueError(f"call {i} yielded more than the {rows} rows of the sum")
                with cond:
                    cond.wait_for(lambda: turns[done] == i)
                    try:
                        total[done] += row
                        turns[rows] = max(turns[rows], done + 1)
                    finally:
                        turns[done] = i + 1
                        done += 1
                        cond.notify_all()
                del row  # fn makes its next row without this one alive
        finally:
            if done < rows:
                # call i - 1 takes its rows' turns in order, so once it has
                # taken the last one, every row left here waits for call i
                with cond:
                    cond.wait_for(lambda: turns[rows - 1] == i)
                    turns[done:rows] = [i + 1] * (rows - done)
                    cond.notify_all()
        return done

    def follow() -> list:
        scored = []
        while True:
            with cond:
                m = claim.value
                claim.value += 1
                if m >= rows:
                    return scored
                if m >= 0:
                    cond.wait_for(lambda: turns[m] == count)
                    if turns[rows] <= m:
                        return scored
            scored.append((m, then(m)))

    def task(j: int):
        return add(j) if j < count else follow()

    # a follow-up task claims rows until it finds one no call yielded, so the
    # task count does not grow with the rows left empty; one per worker
    results = fork_map(task, count + (0 if then is None else _workers(rows + 1)))
    scored = sorted((pair for pairs in results[count:] for pair in pairs), key=lambda p: p[0])
    return results[:count], [value for _, value in scored]
