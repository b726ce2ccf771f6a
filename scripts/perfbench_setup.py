"""The set-up that the scripts running perfbench workloads share.

`load_workload` puts this checkout's perfbench/ and src/ on the import path,
pins BLAS and OpenMP to one thread before numpy loads, and looks the named
workload up, as `perfbench/run.py` does.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_workload(parser, name: str):
    """(harness, workloads, the workload called name). An unknown name is
    parser.error, which prints the usage and exits with status 2."""
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import harness

    harness.pin_threads()  # before workloads imports numpy
    import workloads

    if name not in workloads.WORKLOADS:
        parser.error(f"unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}")
    return harness, workloads, workloads.WORKLOADS[name]
