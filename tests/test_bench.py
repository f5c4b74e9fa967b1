"""The benchmark's own checks, run on the current code."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    # the checks recompute every term's gcd and pass genuine output only;
    # the selftest imports edspower from ./src; -B keeps edsbench/ unwritten
    run = subprocess.run([sys.executable, "-B", "edsbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
