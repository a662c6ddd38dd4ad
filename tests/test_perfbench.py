"""The benchmark's own self-tests, run from tier-1.

perfbench/tracing.py patches library functions by name, and
perfbench/selftest.py fails when one of them is gone. Running it here
makes a rename or a deletion of such a name fail the test suite, not
only the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr[-4000:]
