"""The benchmark's output check, run as its own script: every golden op of
every workload must reproduce the digest pinned in perfbench/pins.json."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_pins_hold():
    run = subprocess.run(
        [sys.executable, "perfbench/pin.py"], cwd=ROOT, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
