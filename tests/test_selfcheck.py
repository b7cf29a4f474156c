"""The benchmark's tracer self-check, run as part of the test suite.

The benchmark pins the library's call graph (divergences per outcome,
eigensolves, KrausMap builds, conditional-information calls) on tiny
instances; a change to that graph fails here rather than only in a
benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "qdebench/run.py", "--selfcheck"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout
