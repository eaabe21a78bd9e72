"""Worker threads for the elementwise work of code construction.

:func:`~covertppm.polar.construct_code` opens a :func:`pool` for its whole
run.  Inside it, :func:`run` calls a task once per part of a split
(:func:`split`), the first part on the calling thread and the others on the
pool's threads, and returns when every call has returned; outside a pool,
or with one worker, it calls them in order on the calling thread.  numpy's
ufuncs, ``take`` and ``searchsorted`` release the GIL, so parts that write
disjoint slices run in parallel, and a task whose every operation is
elementwise gives the same bits however its input is split.

numpy's error state does not reach a new thread, so each call runs under
the error state of the thread that called :func:`run`; the exception of the
first part that raised, in part order, is raised there, after every part
has ended.  That is the exception the calls in order would raise first,
since the parts of a split cover their input in order.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

#: most workers a pool has, whatever the CPU count.  A 2^19-LLR chunk of the
#: genie pass splits each stage into 8 tiles of 2^15 LLRs: beyond 4 workers
#: each worker would take fewer than two of them
MAX_WORKERS = 4

# (executor, workers) of the pool open in this context, if any
_current: ContextVar = ContextVar("covertppm_pool", default=None)


def worker_count() -> int:
    """Workers of a new pool: the CPUs this process may run on, at most
    ``MAX_WORKERS``.  BLAS and OpenMP thread variables size their own
    pools and are not read."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(MAX_WORKERS, cpus))


@contextmanager
def pool():
    """Open a pool of :func:`worker_count` workers for the block: the
    calling thread and one fewer threads, which end with the block, whether
    it returns or raises.  One worker starts no thread.  The pool is held
    in a context variable, so only :func:`run` calls of this thread's
    context use it; another thread that constructs a code opens its own."""
    workers = worker_count()
    if workers == 1:
        yield
        return
    # imported here: concurrent.futures loads logging, 0.6 MiB that a
    # process which constructs no code does not need
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1, thread_name_prefix="covertppm") as executor:
        token = _current.set((executor, workers))
        try:
            yield
        finally:
            _current.reset(token)


def width() -> int:
    """Workers of the open pool; 1 outside one."""
    current = _current.get()
    return 1 if current is None else current[1]


def split(n: int, parts: int) -> list[slice]:
    """[0, n) in at most ``parts`` contiguous, nonempty runs (one empty run
    if n is 0) whose lengths differ by at most one, in order."""
    parts = max(1, min(parts, n))
    q, r = divmod(n, parts)
    ends = [i * q + min(i, r) for i in range(parts + 1)]
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


def run(task, parts: list) -> None:
    """Call ``task(part)`` for every part, on the open pool's workers."""
    current = _current.get()
    if current is None or len(parts) < 2:
        for part in parts:
            task(part)
        return
    state = np.geterr()

    def call(part):
        with np.errstate(**state):
            task(part)

    futures = [current[0].submit(call, part) for part in parts[1:]]
    try:
        task(parts[0])
    finally:
        for future in futures:  # every part ends before any error is raised
            future.exception()
    for future in futures:
        future.result()
