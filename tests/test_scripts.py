"""Smoke runs of the scripts under scripts/: each main() returns 0 on small
inputs, so the public names they import stay in place."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(monkeypatch, name: str, *args: str) -> int:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    return module.main()


def test_demo_scene(monkeypatch, tmp_path, capsys):
    assert _run(monkeypatch, "demo_scene", "--out", str(tmp_path / "demo")) == 0
    assert (tmp_path / "demo" / "plan.json").exists()
    assert "simulated execution" in capsys.readouterr().out


def test_obstacle_ablation(monkeypatch, capsys):
    assert _run(monkeypatch, "obstacle_ablation", "--n", "2") == 0
    assert "hit-rate ratio" in capsys.readouterr().out


def test_completion_benchmark(monkeypatch, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    assert _run(monkeypatch, "completion_benchmark", "--n", "2", "--out", str(stats)) == 0
    assert "2 berries" in capsys.readouterr().out
    assert stats.exists()
