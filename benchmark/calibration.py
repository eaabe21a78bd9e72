"""How slow the machine is just now, as a multiple of a reference speed.

The 2-core machine the bounds were set on runs the same code up to 1.5
times slower in some phases than in others, for seconds to minutes at a
time (one ``sc_decode`` at ell=4096 takes 38-42 ms in one phase and 61-66 ms
in the other).  ``run.py`` times fixed kernels, independent of the library,
before the first set-up and after every set-up and round, and scales the
timings next to them by the kernels' mean time over their reference times.

Each workload names the kernels that slow down as its own work does.  Over
100 s of rounds cut into 10 s windows, the spread of the window medians of
the chain workload's rates went from 32% raw to 4.8% scaled by the
interpreter and small-array kernels (10% with the bulk kernel added); the
covert workload's went from 29% to 1.2% scaled by all three.
"""

from __future__ import annotations

import time

import numpy as np

#: reference time of each kernel (s), about its median on that machine
REFERENCE_S = {"interpreter": 0.005, "small_arrays": 0.010, "bulk": 0.012}


def make_slowness(kernels: tuple[str, ...]):
    """A function returning the current slowness measured by ``kernels``."""
    data = np.random.default_rng(0).random(1 << 16)
    small = data[:64]

    def interpreter():
        acc = 0
        for i in range(60000):
            acc += i * i % 7

    def small_arrays():
        x = small
        for _ in range(3000):
            x = np.logaddexp(0.0, small + x) - small

    def bulk():
        np.searchsorted(np.sort(data), data)

    funcs = {"interpreter": interpreter, "small_arrays": small_arrays, "bulk": bulk}
    chosen = [(funcs[name], REFERENCE_S[name]) for name in kernels]

    def slowness() -> float:
        total = 0.0
        for kernel, ref in chosen:
            start = time.perf_counter()
            kernel()
            total += (time.perf_counter() - start) / ref
        return total / len(chosen)

    return slowness
