"""End-to-end trials on the three fixture scenes, benchmark determinism,
and strict config parsing."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from berrypick import (
    FailureReason,
    GeometryError,
    InputError,
    NoRipeTargetError,
    ParameterError,
    PipelineConfig,
    RenderParams,
    SceneArtifacts,
    SceneConfig,
    TrialResult,
    plan_scene,
    render_scene_artifacts,
    run_ablation,
    run_benchmark,
    run_pipeline,
    sample_ground_truth,
)
from berrypick.pipeline import _scene


@pytest.fixture(scope="module")
def success_artifacts(success_scene, prior):
    return render_scene_artifacts(success_scene, prior, RenderParams(0.5, 0.01))


# ---------------------------------------------------------------- fixtures


def test_clear_scene_succeeds(success_artifacts, prior):
    result = run_pipeline(success_artifacts, PipelineConfig(), prior)
    assert result.attempted
    assert result.success
    assert result.failure_reason is None
    assert result.detections == 1
    assert len(result.cd_mm) == 1 and result.cd_mm[0] < 2.5


def test_no_ripe_scene_fails_before_planning(no_ripe_scene, prior):
    artifacts = render_scene_artifacts(no_ripe_scene, prior, RenderParams(0.5, 0.01))
    result = run_pipeline(artifacts, PipelineConfig(), prior)
    assert not result.attempted
    assert not result.success
    assert result.failure_reason is FailureReason.NO_RIPE
    with pytest.raises(NoRipeTargetError):
        plan_scene(artifacts, PipelineConfig(), prior)


def test_caged_scene_has_no_feasible_path(caged_scene, prior):
    artifacts = render_scene_artifacts(caged_scene, prior, RenderParams(0.5, 0.01))
    result = run_pipeline(artifacts, PipelineConfig(), prior)
    assert not result.attempted
    assert result.failure_reason is FailureReason.INFEASIBLE_PATH
    # the cage blocks the approach, not the view
    assert result.detections == 13


def _plan_or_error(artifacts, cfg, prior):
    try:
        return plan_scene(artifacts, cfg, prior)
    except (NoRipeTargetError, GeometryError) as exc:
        return type(exc)


def _assert_paths_agree(trial, plan):
    """plan_scene raises exactly where the trial fails before planning, and
    its plan is infeasible exactly where the trial fails on the path."""
    no_target = (FailureReason.NO_RIPE, FailureReason.REGISTRATION_FAILURE)
    assert (plan is NoRipeTargetError) == (trial.failure_reason in no_target)
    if isinstance(plan, dict):
        assert plan["cd_mm"] == list(trial.cd_mm)
        assert plan["detections"] == trial.detections
    infeasible = plan is GeometryError or (isinstance(plan, dict) and not plan["feasible"])
    assert infeasible == (trial.failure_reason is FailureReason.INFEASIBLE_PATH)


def test_plan_scene_agrees_with_the_trials(caged_scene, prior):
    """Every variant's trials of 16 golden ablation-template scenes, and a
    caged scene, against plan_scene on the same artifacts."""
    template = SceneConfig(n_ripe=2, n_unripe=3, n_occluders=3, clutter_spacing=0.002,
                           workspace_lo=(-0.05, -0.04, 0.31), workspace_hi=(0.05, 0.04, 0.40))
    params, seed, n = RenderParams(2.0, 0.05), 20260816, 16
    cfg = PipelineConfig(inflation=0.018)
    variants = {
        "full": cfg,
        "no_obstacles": replace(cfg, use_obstacles=False),
        "no_completion": replace(cfg, use_completion=False),
    }
    runs = run_ablation(template, n, cfg, seed, params, prior)
    for i in range(n):
        scene, rendered, truth_ss = _scene(template, seed, i, prior, params)
        truth = sample_ground_truth(scene, prior, truth_ss)
        artifacts = SceneArtifacts(scene, rendered.rgb, rendered.depth, rendered.masks, truth)
        for name, variant in variants.items():
            _assert_paths_agree(runs[name][i], _plan_or_error(artifacts, variant, prior))

    caged = render_scene_artifacts(caged_scene, prior, RenderParams(0.5, 0.01))
    caged_trial = run_pipeline(caged, PipelineConfig(), prior)
    _assert_paths_agree(caged_trial, _plan_or_error(caged, PipelineConfig(), prior))
    reasons = {t.failure_reason for trials in runs.values() for t in trials}
    assert reasons | {caged_trial.failure_reason} >= {
        None, FailureReason.NO_RIPE, FailureReason.REGISTRATION_FAILURE,
        FailureReason.INFEASIBLE_PATH, FailureReason.MISSED_GRASP,
    }


def test_caged_scene_without_obstacles_reaches_the_target(caged_scene, prior):
    artifacts = render_scene_artifacts(caged_scene, prior, RenderParams(0.5, 0.01))
    blind = PipelineConfig(use_obstacles=False)
    result = run_pipeline(artifacts, blind, prior)
    assert result.attempted
    assert len(result.hit_ids) > 0  # plows straight through the ring


def test_plan_scene_reports_the_plan(success_artifacts, prior):
    plan = plan_scene(success_artifacts, PipelineConfig(), prior)
    assert plan["target_id"] == 0
    assert plan["feasible"]
    assert plan["detections"] == 1
    waypoints = np.asarray(plan["waypoints"])
    assert waypoints.shape[1] == 3
    assert np.allclose(waypoints[0], PipelineConfig().p_ee)
    assert np.linalg.norm(waypoints[-1] - np.array(plan["grasp"]["grasp_point"])) < 1e-12


# ---------------------------------------------------------------- trial result


def test_trial_result_success_implies_attempt():
    with pytest.raises(ParameterError):
        TrialResult(
            scene_id=0, detections=1, attempted=False, success=True,
            hit_ids=frozenset(), cd_mm=(), failure_reason=None,
        )


def test_artifacts_reject_missing_pieces(success_artifacts):
    with pytest.raises(InputError):
        SceneArtifacts(
            scene=success_artifacts.scene, rgb=None,
            depth=success_artifacts.depth, masks=success_artifacts.masks,
            truth=success_artifacts.truth,
        )


# ---------------------------------------------------------------- benchmark


def _small_template():
    return SceneConfig(n_ripe=1, n_unripe=1, n_occluders=1)


def test_benchmark_is_deterministic(prior):
    kwargs = dict(cfg=PipelineConfig(), seed=42, render_params=RenderParams(2.0, 0.05))
    a = run_benchmark(_small_template(), 3, prior=prior, **kwargs)
    b = run_benchmark(_small_template(), 3, prior=prior, **kwargs)
    assert a == b
    c = run_benchmark(_small_template(), 3, prior=prior, cfg=PipelineConfig(), seed=43)
    assert a != c


def test_benchmark_validates_scene_count(prior):
    with pytest.raises(ParameterError):
        run_benchmark(_small_template(), 0, prior=prior)
    with pytest.raises(ParameterError):
        run_ablation(_small_template(), 0, prior=prior)


def test_ablation_full_variant_matches_plain_benchmark(prior):
    kwargs = dict(cfg=PipelineConfig(), seed=7, render_params=RenderParams(1.0, 0.02))
    ablation = run_ablation(_small_template(), 3, prior=prior, **kwargs)
    assert set(ablation) == {"full", "no_obstacles", "no_completion"}
    plain = run_benchmark(_small_template(), 3, prior=prior, **kwargs)
    assert ablation["full"] == plain
    for name in ("no_obstacles", "no_completion"):
        assert len(ablation[name]) == 3


def test_no_completion_variant_skips_completion(prior):
    ablation = run_ablation(
        _small_template(), 2, prior=prior, seed=3,
        render_params=RenderParams(1.0, 0.02),
    )
    for trial in ablation["no_completion"]:
        assert trial.cd_mm == ()
    assert any(trial.cd_mm for trial in ablation["full"])


# ---------------------------------------------------------------- config


def test_config_json_round_trip():
    cfg = PipelineConfig(inflation=0.018, use_obstacles=False)
    again = PipelineConfig.from_json(cfg.to_json())
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(InputError):
        PipelineConfig.from_json({"inflation": 0.01, "typo_key": 1})
    with pytest.raises(InputError):
        PipelineConfig.from_json({"voxel": {"voxel_size": 0.003, "min_pts": 1}})
    with pytest.raises(InputError):
        PipelineConfig.from_json({"icp": {"max_iters": 10}})


def test_config_rejects_bad_values():
    with pytest.raises(InputError):
        PipelineConfig.from_json({"grid_resolution": -1.0})
    with pytest.raises(InputError):
        PipelineConfig.from_json({"icp": {"restart_count": 0}})
    with pytest.raises(InputError):
        PipelineConfig.from_json([1, 2, 3])


def test_config_validation_direct():
    with pytest.raises(ParameterError):
        PipelineConfig(gripper_radius=0.0)
    with pytest.raises(ParameterError):
        PipelineConfig(p_ee=(0.0, 1.0))
