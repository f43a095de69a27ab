"""The benchmark's self-tests, run with the repository's own tests.

The benchmark's tracer wraps `_PrioQueue.insert`, `solvers.eval_tree` and
`oracle.eval_tree` from outside latfix, so a change to `src/` that removes
one of them fails here, not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
