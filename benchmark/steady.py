"""Steadiness of one workload: N runs, each in a fresh process.

    python3 benchmark/steady.py --workload detect-k128 --runs 10 --seconds 10

Run r uses seed ``--first-seed + r``.  For every end-to-end metric it prints
the median, the first and third quartiles (``statistics.quantiles(n=4)``)
and the quartile spread as a share of the median, which is what the bounds
in BENCHMARK.json are set against.  It also prints the share of failed
operations and whether every run was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(run_info, result) of one run in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"seed {seed}: no output, exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2])["run_info"], json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    results, rates = [], []
    for r in range(args.runs):
        info, res = run_once(args.workload, args.first_seed + r, args.seconds, args.trace)
        results.append(res)
        rates.append(info["ops_per_s"])
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                          if not args.trace or k.endswith("total_s"))
        print(f"seed {args.first_seed + r}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} {values}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s")
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, first in results[0]["metrics"].items():
        vals = [res["metrics"][name]["value"] for res in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {first['unit']}")
    print(f"library ops/s, median over runs: {statistics.median(rates):.6g} "
          f"(tracing {'on' if args.trace else 'off'})")
    attempted = sum(res["attempted"] for res in results)
    failed = sum(res["failed"] for res in results)
    print(f"failed share {failed}/{attempted}; "
          f"all correct: {all(res['correct'] for res in results)}")
    return 0 if all(res["correct"] for res in results) else 1


if __name__ == "__main__":
    sys.exit(main())
