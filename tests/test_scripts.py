"""Smoke runs of the scripts under scripts/: each main() returns 0 on small
inputs, so the public names they import stay in place, and returns 1 with
one `error:` line on malformed arguments, as the CLI does."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from berrypick import complete_cloud, pipeline
from berrypick.cli import main as cli_main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(monkeypatch, name: str, *args: str) -> int:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    return module.main()


def test_demo_scene(monkeypatch, tmp_path, capsys):
    """The demo perceives and plans its scene once: one completion per
    partial cloud, three at the default seed 3."""
    completions = []

    def counted(*args, **kwargs):
        completions.append(1)
        return complete_cloud(*args, **kwargs)

    monkeypatch.setattr(pipeline, "complete_cloud", counted)
    assert _run(monkeypatch, "demo_scene", "--out", str(tmp_path / "demo")) == 0
    assert (tmp_path / "demo" / "plan.json").exists()
    assert "simulated execution" in capsys.readouterr().out
    assert len(completions) == 3


def test_obstacle_ablation(monkeypatch, capsys):
    assert _run(monkeypatch, "obstacle_ablation", "--n", "2") == 0
    assert "hit-rate ratio" in capsys.readouterr().out


def test_completion_benchmark(monkeypatch, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    assert _run(monkeypatch, "completion_benchmark", "--n", "2", "--out", str(stats)) == 0
    assert "2 berries" in capsys.readouterr().out
    assert stats.exists()


def test_completion_benchmark_with_every_berry_failed(monkeypatch, tmp_path, capsys):
    template = str(SCRIPTS.parent / "templates" / "cluttered.json")
    stats = tmp_path / "stats.json"
    args = ("--n", "1", "--seed", "1", "--template", template, "--min-visibility", "0")
    assert _run(monkeypatch, "completion_benchmark", *args, "--out", str(stats)) == 0
    assert "median n/a, mean n/a, p95 n/a, max n/a, 1 failed" in capsys.readouterr().out

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    obj = json.loads(stats.read_text(), parse_constant=refuse)
    assert obj["n_failed"] == 1
    assert [obj[k] for k in ("median_mm", "mean_mm", "p95_mm", "max_mm")] == [None] * 4


def test_cli_and_script_write_the_same_ablation_reports(monkeypatch, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"inflation": 0.018}))
    template = str(SCRIPTS.parent / "templates" / "cluttered.json")
    common = ["--template", template, "--n", "2", "--seed", "3", "--sigma-mm", "2",
              "--dropout", "0.05"]
    via_cli, via_script = tmp_path / "cli", tmp_path / "script"
    assert cli_main(
        ["bench", "--ablation", *common, "--config", str(config), "--out", str(via_cli)]
    ) == 0
    assert _run(
        monkeypatch, "obstacle_ablation", *common, "--inflation", "0.018", "--out", str(via_script)
    ) == 0

    def files(root):
        return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())

    assert files(via_cli) == files(via_script)
    assert len(files(via_cli)) == 9  # metrics and trials per variant, and the root's three
    for name in files(via_cli):
        assert (via_cli / name).read_bytes() == (via_script / name).read_bytes(), name


# malformed arguments every script takes, then the counts only two take
_BAD_ARGS = {
    "negative-seed": ["--seed", "-1"],
    "dropout-above-one": ["--dropout", "2"],
    "missing-template": ["--template", "{tmp}/absent.json"],
    "template-not-json": ["--template", "{tmp}/not.json"],
    "template-not-utf8": ["--template", "{tmp}/not_utf8.json"],
    "template-bad-value": ["--template", "{tmp}/bad.json"],
}
_BAD_COUNTS = {"no-items": ["--n", "0"], "non-integer-count": ["--n", "x"]}
_BAD_FLOORS = {
    "visibility-above-one": ["--min-visibility", "1.5"],
    "visibility-nan": ["--min-visibility", "nan"],
}


@pytest.mark.parametrize(
    "name, args",
    [
        pytest.param(name, args, id=f"{name}-{case}")
        for name, cases in [
            ("completion_benchmark", {**_BAD_ARGS, **_BAD_COUNTS, **_BAD_FLOORS}),
            ("obstacle_ablation", {**_BAD_ARGS, **_BAD_COUNTS}),
            ("demo_scene", {key: [*args, "--out", "{tmp}/demo"] for key, args in _BAD_ARGS.items()}),
        ]
        for case, args in cases.items()
    ],
)
def test_malformed_script_arguments_are_one_clean_error(monkeypatch, tmp_path, capsys, name, args):
    (tmp_path / "not.json").write_text("{not json")
    (tmp_path / "bad.json").write_text('{"n_ripe": 2.5}')
    (tmp_path / "not_utf8.json").write_bytes(b'{"n_ripe": "\xff"}')
    args = [a.format(tmp=tmp_path) for a in args]
    assert _run(monkeypatch, name, *args) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert captured.out == ""


@pytest.mark.parametrize("name", ["completion_benchmark", "obstacle_ablation", "demo_scene"])
def test_unwritable_script_output_is_one_clean_error(monkeypatch, tmp_path, capsys, name):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    count = [] if name == "demo_scene" else ["--n", "1"]
    assert _run(monkeypatch, name, *count, "--out", str(blocker / "out")) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("workload, seed", [("ablation", "20260816"), ("scene_dir_plan", "11")])
def test_layer_calls_prints_the_same_document_twice(monkeypatch, capsys, workload, seed):
    """Call counts and digests over a fixed op count depend on the program
    only, so two runs print the same document."""
    args = ("--workload", workload, "--seed", seed, "--ops", "2")
    outputs = []
    for _ in range(2):
        assert _run(monkeypatch, "layer_calls", *args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert len(doc["digests"]) == 2 and doc["failures"] == [] and doc["absent_layers"] == []
    assert doc["layers"]["preprocess.median_filter"]["calls"] > 0


@pytest.mark.parametrize("workload", ["ablation", "scene_dir_plan"])
def test_peak_memory_credits_the_whole_rise_to_known_phases(monkeypatch, capsys, workload):
    """The phases' rises add up to the run's, and the functions the script
    wraps to time scene_dir_plan's phases are put back."""
    from berrypick import io_formats

    originals = (io_formats.save_artifacts, io_formats.load_artifacts, pipeline.plan_scene)
    assert _run(monkeypatch, "peak_memory", "--workload", workload, "--ops", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["workload"], doc["ops"], doc["failures"]) == (workload, 2, [])
    inner = {"save", "load", "plan"} if workload == "scene_dir_plan" else set()
    assert set(doc["phases"]) <= {"setup", "prepare", "op", "check"} | inner
    total = sum(phase["rise_mb"] for phase in doc["phases"].values())
    assert total == pytest.approx(doc["peak_mb"] - doc["start_mb"], abs=0.01)
    assert all(op in (None, 0, 1) for phase in doc["phases"].values() for op in phase["ops"])
    assert (io_formats.save_artifacts, io_formats.load_artifacts, pipeline.plan_scene) == originals
