"""The benchmark's self-test (``perfbench/selftest.py``) as a tier-1 test.

A traced layer renamed or dropped, a job whose output digest changed, or a
metric missing from ``BENCHMARK.json`` then fails the test suite, not only a
benchmark run.  It takes about 10 s.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
