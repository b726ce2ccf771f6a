"""Tests of the benchmark harness itself.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from berrypick import (  # noqa: E402
    BerryInstance,
    CameraIntrinsics,
    GraspPose,
    ObstacleSet,
    PipelineConfig,
    PointCloud,
    Ripeness,
    RobotState,
    SceneTemplate,
    StrawberryPrior,
    build_occupancy,
    pipeline,
    planning,
    render_scene_artifacts,
)
from berrypick.types import Pose  # noqa: E402


# ------------------------------------------------------------ percentiles


@pytest.mark.parametrize(
    "n, expected",
    [(5, 50), (20, 50), (21, 52), (40, 75), (60, 83), (99, 89), (100, 90), (200, 95), (1000, 99)],
)
def test_tail_percentile_examples(n, expected):
    assert harness.tail_percentile(n) == expected


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(20, 1200):
        p = harness.tail_percentile(n)
        values = list(range(n))
        beyond = sum(v > harness.nearest_rank(values, p) for v in values)
        assert beyond >= 10, (n, p)
        if p < 99:
            assert sum(v > harness.nearest_rank(values, p + 1) for v in values) < 10, (n, p)


# ---------------------------------------------------------------- self time


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    mod = types.ModuleType("fake_planning")

    def astar(step):
        clock.advance(step)
        return step

    def plan():  # looks astar up through the module, as plan_trajectory does
        clock.advance(1.0)
        mod.astar(2.0)
        mod.astar(3.0)
        clock.advance(0.5)

    mod.astar, mod.plan = astar, plan
    sys.modules["fake_planning"] = mod
    try:
        tracer = harness.Tracer(
            [
                harness.Layer("p.plan", "fake_planning", "plan"),
                harness.Layer("p.astar", "fake_planning", "astar"),
            ],
            clock=clock,
        )
        with tracer:
            start = clock()
            clock.advance(0.25)  # glue outside any span
            mod.plan()
            op_s = clock() - start
    finally:
        del sys.modules["fake_planning"]
    plan_stats, astar_stats = tracer.stats["p.plan"], tracer.stats["p.astar"]
    assert (plan_stats.total_s, plan_stats.self_s) == (6.5, 1.5)
    assert (astar_stats.calls, astar_stats.self_s) == (2, 5.0)
    assert tracer.covered_s == 6.5
    assert op_s - tracer.covered_s == 0.25
    assert plan_stats.self_s + astar_stats.self_s + (op_s - tracer.covered_s) == op_s
    assert mod.plan is plan and mod.astar is astar  # uninstalled


def test_plan_trajectory_self_time_excludes_astar():
    state = RobotState(p_ee=[0.0, 0.0, 0.05])
    grasp = GraspPose(
        grasp_point=[0.02, 0.0, 0.3], approach_dir=[0.0, 0.0, 1.0], pregrasp_offset=0.034
    )
    grid = build_occupancy(
        ObstacleSet(points=PointCloud.empty()),
        resolution=0.01,
        inflation=0.0,
        include_points=[state.p_ee, grasp.grasp_point, grasp.pregrasp_point],
    )
    tracer = harness.Tracer(workloads.LAYERS)
    with tracer:
        trajectory = pipeline.plan_trajectory(grasp, grid, state)
    assert trajectory.feasible
    plan, astar = tracer.stats["planning.plan_trajectory"], tracer.stats["planning.astar_grid"]
    assert (plan.calls, astar.calls) == (1, 2)
    assert math.isclose(plan.self_s, plan.total_s - astar.total_s, abs_tol=1e-12)
    assert tracer.covered_s == plan.total_s


def test_prepare_runs_outside_the_traced_span():
    mod = types.ModuleType("fake_render")
    calls = []
    mod.render = lambda: calls.append(1)
    sys.modules["fake_render"] = mod
    try:
        tracer = harness.Tracer([harness.Layer("r.render", "fake_render", "render")])
        log = harness.OpLog()
        harness.run_op(
            log,
            0,
            lambda i: mod.render(),
            lambda i, outcome: None,
            prepare=lambda i: mod.render(),
            around=lambda: tracer,
        )
    finally:
        del sys.modules["fake_render"]
    assert len(calls) == 2 and tracer.stats["r.render"].calls == 1
    assert len(log.prepare_s) == 1 and log.attempted == 1


# ---------------------------------------------------------- missing layers


def test_renamed_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(planning, "astar_grid")
    tracer = harness.Tracer(workloads.LAYERS)
    with tracer:
        assert tracer.absent == ["planning.astar_grid"]
    metrics = workloads.layer_metrics(tracer, n_ops=1, traced_s=1.0, plain_s=1.0)
    absent = {k for k, v in metrics.items() if v["value"] is None}
    assert absent == {k for k in metrics if k.startswith("planning.astar_grid.")}
    assert metrics["planning.plan_trajectory.self_s"]["value"] == 0.0
    assert not hasattr(pipeline.median_filter, "__wrapped__")  # everything restored


def test_metric_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer = workloads.layer_metrics(harness.Tracer(workloads.LAYERS), 1, 1.0, 1.0)
    assert [m["name"] for m in bench["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]]["unit"] for m in bench["per_layer"])
    log = harness.OpLog(latencies_s=[0.1] * 100, prepare_s=[0.0] * 100, reference_s=[0.05] * 101)
    plain, _ = run.plain_metrics(log, (1.0, 1.0), {"cd_median_mm": 1.0}, 100)
    assert [m["name"] for m in bench["end_to_end"]] == list(plain)
    assert all(m["unit"] == plain[m["name"]]["unit"] for m in bench["end_to_end"])
    assert sorted(m["name"] for m in bench["workloads"]) == sorted(workloads.WORKLOADS)


# ------------------------------------------------------------- op outcomes


def test_no_ripe_target_counts_as_success(tmp_path):
    prior = StrawberryPrior.builtin()
    scene = SceneTemplate(
        berries=(
            BerryInstance(
                instance_id=0,
                pose=Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 0.36])),
                ripeness=Ripeness.UNRIPE,
            ),
        ),
        occluders=(),
        intrinsics=CameraIntrinsics(),
    )
    artifacts = render_scene_artifacts(scene, prior, workloads.RENDER, 0, 1)
    wl = workloads.WORKLOADS["scene_dir_plan"]
    state = workloads.SceneDirState(prior, None, PipelineConfig(), 0, tmp_path, scene=artifacts)
    log = harness.OpLog()
    op, _, check = run.bind(wl, state)
    outcome = harness.run_op(log, 0, op, check)
    assert log.failures == []
    assert outcome[2] == "no_ripe"
    assert list(tmp_path.iterdir()) == []  # the op's scene directory is cleaned up


def test_normalized_follows_the_nearby_reference():
    # op i ran between reference_s[i] and reference_s[i + 1]
    times = [1.0] * 12
    refs = [harness.Reference.NOMINAL_S] * 6 + [2 * harness.Reference.NOMINAL_S] * 7
    out = harness.normalized(times, refs, half=2)
    assert out[:3] == [1.0] * 3 and out[-3:] == [0.5] * 3


def test_raising_op_is_a_failure_not_a_crash():
    log = harness.OpLog()

    def op(index):
        raise ValueError("boom")

    harness.run_op(log, 3, op, lambda i, o: None)
    assert log.attempted == 1 and log.failures == ["op 3 raised ValueError: boom"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_golden_digests_hold_on_both_seeds(name):
    wl = workloads.WORKLOADS[name]
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))[name]
    with run.work_dir() as work:
        for seed in (wl.dev_seed, wl.heldout_seed):
            log, _ = run.golden_batch(wl, work, seed, pins[str(seed)])
            assert log.failures == [], log.failures


# ------------------------------------------------------------------ command


def test_run_without_source_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ablation", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
