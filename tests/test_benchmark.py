"""The benchmark's self-test passes: each workload runs on a tiny geometry,
its checks reject corrupted outputs, and its traced runs call exactly the
library functions the benchmark documents (so a refactor that moves a traced
function out of its module fails here)."""

from pathlib import Path

from test_demos import run_script

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = run_script(ROOT / "benchmark" / "selftest.py", timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
