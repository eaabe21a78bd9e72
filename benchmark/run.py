"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload chain-q4-ell4096 --seed 1 --seconds 10 --trace 0

The library is imported from ``src/`` next to this directory.  With
``--trace 0`` the run sets up ``setup_repeats`` times, then runs whole rounds
until ``--seconds`` have passed, and reports the end-to-end metrics:

    setup_s      median set-up time (s)
    ops_per_s    median over rounds of operations per second of library time
    peak_rss_mb  peak resident set of this process before the checks (MB)

Both timings are scaled to a reference machine speed (``calibration.py``).

With ``--trace 1`` it wraps the library functions listed in ``spans.py``,
sets up once, runs a fixed number of rounds, and reports the per-layer
metrics.  The line before the result records the run's environment.
Exit code 0: outputs correct; 1: a check failed; 2: the library is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library() -> str | None:
    """Import covertppm from this checkout's src/; why that failed, if it did."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import covertppm
    except ImportError as exc:
        return f"cannot import covertppm from {src}: {exc}"
    if Path(covertppm.__file__).resolve().parent != (src / "covertppm").resolve():
        return f"covertppm came from {covertppm.__file__}, not {src}"
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    # single-threaded BLAS/OpenMP, set before numpy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    error = import_library()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    from calibration import make_slowness
    from spans import SpanRecorder, per_layer_unit
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    recorder = SpanRecorder() if args.trace else None
    slowness = make_slowness(workload.calibration)
    setups = 1 if recorder else workload.setup_repeats
    marks = [slowness()]  # before the first set-up, then after every step
    setup_times, rates = [], []
    attempted = 0
    with recorder.installed() if recorder else contextlib.nullcontext():
        with workload.hooks():
            for _ in range(setups):
                start = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - start)
                marks.append(slowness())
            start = time.perf_counter()
            while (len(rates) < workload.trace_rounds if recorder
                   else not rates or time.perf_counter() - start < args.seconds):
                ops, seconds = workload.run_round(len(rates))
                attempted += ops
                rates.append(ops / seconds)
                marks.append(slowness())
    peak = peak_rss_mb()
    failed, problems = workload.evaluate()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    slow = [(a + b) / 2 for a, b in zip(marks, marks[1:])]  # around each step
    setup_s = statistics.median(t / f for t, f in zip(setup_times, slow))
    ops_per_s = statistics.median(r * f for r, f in zip(rates, slow[setups:]))
    if recorder:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in recorder.metrics().items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "rounds": len(rates), "attempted": attempted, "failed": failed,
        "setup_s": setup_s, "ops_per_s": ops_per_s,
        "raw_setup_s": setup_times, "raw_round_ops_per_s": rates,
        "slowness": marks,
    }
    print(json.dumps({"run_info": info}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
