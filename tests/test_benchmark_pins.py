"""The benchmark's output check, run as its own script: every golden op of
every workload must reproduce the digest pinned in perfbench/pins.json. And
every layer the benchmark traces must still be reached through the name it
wraps, or its figures silently read zero."""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_pins_hold():
    run = subprocess.run(
        [sys.executable, "perfbench/pin.py"], cwd=ROOT, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]


def test_every_traced_layer_is_reached(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    calls = dict.fromkeys((layer.name for layer in workloads.LAYERS), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for layer in workloads.LAYERS:
        module = importlib.import_module(layer.module)
        assert callable(getattr(module, layer.attr, None)), f"{layer.module}.{layer.attr} is gone"
        monkeypatch.setattr(module, layer.attr, counted(layer.name, getattr(module, layer.attr)))

    for workload in workloads.WORKLOADS.values():
        work = tmp_path / workload.name
        work.mkdir()
        state = workload.setup(ROOT, workload.dev_seed, work)
        for index in range(3):
            workload.prepare(state, index)
            outcome = workload.op(state, index)
            assert workload.check(state, index, outcome) is None

    assert [name for name, n in calls.items() if n == 0] == []
