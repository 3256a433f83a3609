"""The benchmark's smoke mode runs every workload at a tiny size and passes.

``perfbench`` wraps the public API of every idcodes module and calls the
library by its public names, so a renamed or removed name breaks the
benchmark; this catches it in the test suite.  The run writes only under
the git-ignored ``.perfbench_out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
