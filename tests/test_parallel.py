"""The worker pool of code construction: its size, its splits, and how a
call on its workers ends."""

import os
import threading
import time

import numpy as np
import pytest

from covertppm import parallel


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 100])
@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_split_covers_the_range_in_even_ordered_runs(n, parts):
    runs = parallel.split(n, parts)
    assert runs[0].start == 0 and runs[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(runs, runs[1:]))
    lengths = [r.stop - r.start for r in runs]
    assert len(runs) == max(1, min(n, parts))
    assert max(lengths) - min(lengths) <= 1 and (n == 0 or min(lengths) >= 1)


def test_worker_count_reads_the_cpus_the_process_may_run_on(monkeypatch):
    # the affinity set, not the machine's CPU count; capped; the CPU count
    # where the affinity call does not exist
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert parallel.worker_count() == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert parallel.worker_count() == parallel.MAX_WORKERS
    monkeypatch.delattr(os, "sched_getaffinity")
    assert parallel.worker_count() == parallel.MAX_WORKERS
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parallel.worker_count() == 1


def test_worker_count_ignores_blas_thread_variables(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    assert parallel.worker_count() == 3


def test_one_worker_runs_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    seen = []
    with parallel.pool():
        assert parallel.width() == 1
        parallel.run(lambda part: seen.append((part, threading.get_ident())), [0, 1, 2])
    assert seen == [(p, threading.get_ident()) for p in (0, 1, 2)]


def test_run_outside_a_pool_is_serial():
    seen = []
    assert parallel.width() == 1
    parallel.run(seen.append, [3, 1, 2])
    assert seen == [3, 1, 2]


def test_run_raises_the_first_failing_part_after_every_part_ends(monkeypatch):
    # part 2 fails at once, part 1 after a pause: part 1's error is raised,
    # and only once part 3, the slowest, has finished too
    monkeypatch.setattr(parallel, "worker_count", lambda: 4)
    finished = []

    def task(part):
        time.sleep({1: 0.05, 3: 0.2}.get(part, 0.0))
        if part in (1, 2):
            raise ValueError(f"part {part}")
        finished.append(part)

    with parallel.pool():
        with pytest.raises(ValueError, match="part 1"):
            parallel.run(task, [0, 1, 2, 3])
        assert sorted(finished) == [0, 3]
        # the pool still runs after a failed call
        parallel.run(finished.append, [4, 5, 6])
    assert sorted(finished) == [0, 3, 4, 5, 6]


def test_workers_run_under_the_callers_error_state(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 3)
    states = {}

    def task(part):
        states[part] = np.geterr()

    with parallel.pool(), np.errstate(all="raise"):
        parallel.run(task, [0, 1, 2])
        with np.errstate(over="ignore", invalid="warn"):
            want = np.geterr()
            parallel.run(task, [3, 4, 5])
    assert all(states[p] == dict.fromkeys(want, "raise") for p in (0, 1, 2))
    assert all(states[p] == want for p in (3, 4, 5))


def test_pool_threads_end_with_the_block(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 3)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="inside"):
        with parallel.pool():
            parallel.run(lambda part: time.sleep(0.01), [0, 1, 2])
            assert threading.active_count() > before
            raise RuntimeError("inside")
    assert threading.active_count() == before
    assert parallel.width() == 1
