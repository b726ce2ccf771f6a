"""End-to-end trials on the three fixture scenes, benchmark determinism,
and strict config parsing."""

from __future__ import annotations

import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from conftest import CLUTTERED, SINGLE_BERRY, ablation_variants

from berrypick import (
    Candidate,
    ContractError,
    FailureReason,
    GeometryError,
    GraspPose,
    IcpParams,
    InputError,
    InstanceMask,
    NoRipeTargetError,
    OccupancyGrid,
    OutlierParams,
    ParameterError,
    PipelineConfig,
    PointCloud,
    RenderParams,
    Ripeness,
    RobotState,
    SceneArtifacts,
    SceneConfig,
    SceneGenerationError,
    Trajectory,
    TrialResult,
    VoxelParams,
    complete_cloud,
    pipeline,
    plan_scene,
    render_scene_artifacts,
    run_ablation,
    run_benchmark,
    run_completion_benchmark,
    run_pipeline,
    superellipsoid_mesh,
)
from berrypick.pipeline import (
    Completed,
    PerceivedBerry,
    Perception,
    Plan,
    Refused,
    _execute,
    _finish_trial,
    _generated,
    _perceive,
    _scene_trials,
)


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


def test_a_mask_of_another_frame_size_is_refused(success_artifacts, prior):
    """A mask must cover the depth image's frame; plan_scene and run_pipeline
    refuse one that does not, naming the berry and both shapes, also when a
    valid mask comes before it."""
    (mask,) = success_artifacts.masks
    narrow = InstanceMask(crop=mask.bits[:, :-1], instance_id=mask.instance_id,
                          ripeness=mask.ripeness)
    message = r"mask of instance 0 has frame shape \(480, 639\), but the depth image has \(480, 640\)"
    for masks in ((narrow,), (mask, narrow)):
        artifacts = replace(success_artifacts, masks=masks)
        for run in (plan_scene, run_pipeline):
            with pytest.raises(ParameterError, match=message):
                run(artifacts, PipelineConfig(), prior)


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
    params, seed, n = RenderParams(2.0, 0.05), 20260816, 16
    cfg = PipelineConfig(inflation=0.018)
    variants = ablation_variants(cfg)
    runs = run_ablation(CLUTTERED, n, cfg, seed, params, prior)
    for i in range(n):
        scene, render_ss, truth_ss = _generated(CLUTTERED, seed, i, prior)
        artifacts = render_scene_artifacts(scene, prior, params, render_ss, truth_ss)
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


def _planned_through(*waypoints):
    """A Plan whose feasible trajectory visits these waypoints, on a
    1 m grid of 4 x 4 x 4 cells whose only occupied cell is (2, 2, 2)."""
    occupied = np.zeros((4, 4, 4), dtype=bool)
    occupied[2, 2, 2] = True
    grid = OccupancyGrid(origin=np.zeros(3), resolution=1.0, occupied=occupied)
    return Plan(0, None, grid, Trajectory(waypoints=np.array(waypoints, dtype=float)))


@pytest.mark.parametrize(
    "waypoints, error, message",
    [
        ([(0.5, 0.5, 0.5), (1.5, 1.5, 1.5), (2.9, 2.1, 2.5), (3.5, 3.5, 3.5)],
         ContractError, "crosses an occupied cell"),
        ([(0.5, 0.5, 0.5), (1.5, 1.5, 1.5), (1.5, 4.2, 1.5), (3.5, 3.5, 3.5)],
         ParameterError, r"point \[1.5 4.2 1.5\] outside grid bounds"),
    ],
    ids=["occupied-waypoint", "off-grid-waypoint"],
)
def test_execute_checks_every_interior_waypoint_against_the_grid(waypoints, error, message):
    # the check runs before the scene or the perception is read
    with pytest.raises(error, match=message):
        _execute(None, None, _planned_through(*waypoints), RobotState(), 0)


def test_a_target_straight_above_the_gripper_is_an_infeasible_path(prior):
    """No horizontal approach reaches a berry directly above p_ee: the grasp
    raises GeometryError, and the trial ends as an infeasible path."""
    cfg = PipelineConfig()
    above = np.array(cfg.p_ee) + np.array([0.0, -0.1, 0.0])  # the camera's y points down
    cloud = PointCloud(xyz=above + np.zeros((8, 3)))
    target = PerceivedBerry(instance_id=4, ripeness=Ripeness.RIPE, partial=cloud,
                            fate=Completed(cloud=cloud, cd_mm=0.7))
    perception = Perception(detections=1, ripe_detected=True, berries=(target,))
    # the scene's artifacts are read only once a path is planned
    trial = _finish_trial(None, perception, cfg, prior, scene_id=3)
    assert trial == TrialResult(scene_id=3, detections=1, hit_ids=frozenset(), cd_mm=(0.7,),
                                failure_reason=FailureReason.INFEASIBLE_PATH)


# attempted and success by failure reason; every reason must have a row
_OUTCOMES = {
    None: (True, True),
    FailureReason.MISSED_GRASP: (True, False),
    FailureReason.NO_RIPE: (False, False),
    FailureReason.REGISTRATION_FAILURE: (False, False),
    FailureReason.INFEASIBLE_PATH: (False, False),
}


@pytest.mark.parametrize("reason", [None, *FailureReason])
def test_trial_outcome_follows_its_failure_reason(reason):
    trial = TrialResult(
        scene_id=0, detections=1, hit_ids=frozenset(), cd_mm=(), failure_reason=reason
    )
    assert (trial.attempted, trial.success) == _OUTCOMES[reason]


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


def test_scene_trials_alone_equal_the_ablation_in_any_order(prior):
    cfg, seed, params, n = PipelineConfig(inflation=0.018), 7, RenderParams(2.0, 0.05), 5
    runs = run_ablation(_small_template(), n, cfg, seed, params, prior)
    variants = ablation_variants(cfg)
    for i in np.random.default_rng(3).permutation(n).tolist():
        trials = _scene_trials(_small_template(), seed, params, prior, variants, cfg, i)
        assert trials == {name: runs[name][i] for name in variants}


class _Drawn(Exception):
    pass


@pytest.mark.parametrize(
    "floor, refused",
    [(1.5, True), (-0.1, True), (float("nan"), True), (0.0, False), (1.0, False)],
)
def test_completion_benchmark_checks_the_visibility_floor_before_drawing(
    monkeypatch, prior, floor, refused
):
    def drawn(*args):
        raise _Drawn

    monkeypatch.setattr(pipeline, "_generated", drawn)
    with pytest.raises(ParameterError if refused else _Drawn):
        run_completion_benchmark(_small_template(), 3, min_visibility=floor, prior=prior)


def test_completion_benchmark_raises_when_no_berry_meets_the_floor(prior):
    """The single-berry template's occluder sits on the berry's sight line,
    so no berry is ever fully visible: the scene budget runs out."""
    message = "only 0 of 1 berries met the 100% visibility floor within the scene budget"
    with pytest.raises(SceneGenerationError, match=message):
        run_completion_benchmark(SINGLE_BERRY, 1, min_visibility=1.0, prior=prior)


def test_perception_keeps_each_berry_with_its_completion_fate(prior):
    """Scene 0 of seed 7 has a berry that completion refuses. Both modes keep
    the same partial clouds; the refused berry's partial is a leftover, with
    the error complete_cloud raises, and every other berry is a candidate on
    its completed cloud, scored by cd_mm in berry order."""
    cfg = PipelineConfig()
    scene, render_ss, truth_ss = _generated(CLUTTERED, 7, 0, prior)
    artifacts = render_scene_artifacts(scene, prior, RenderParams(2.0, 0.05), render_ss, truth_ss)
    completing, plain = _perceive(artifacts, cfg, prior, [True, False]).values()
    assert [(b.instance_id, b.partial) for b in completing.berries] == [
        (b.instance_id, b.partial) for b in plain.berries
    ]
    refused = [b for b in completing.berries if isinstance(b.fate, Refused)]
    completed = [b for b in completing.berries if isinstance(b.fate, Completed)]
    assert [b.instance_id for b in refused] == [2] and len(completed) == 3
    for berry in refused:
        with pytest.raises(berry.fate.cause, match=f"^{re.escape(berry.fate.message)}$"):
            complete_cloud(berry.partial, prior, cfg.icp)
    assert completing.leftovers == tuple(
        Candidate(b.instance_id, b.ripeness, b.partial) for b in refused
    )
    assert completing.candidates == tuple(
        Candidate(b.instance_id, b.ripeness, b.fate.cloud) for b in completed
    )
    assert completing.cd_mm == tuple(b.fate.cd_mm for b in completed)
    assert all(b.fate is None for b in plain.berries)
    assert plain.candidates == tuple(
        Candidate(b.instance_id, b.ripeness, b.partial) for b in plain.berries
    )
    assert plain.leftovers == () and plain.cd_mm == ()


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


@pytest.mark.parametrize(
    "make, field",
    [
        (PipelineConfig, "grid_resolution"),
        (PipelineConfig, "inflation"),
        (PipelineConfig, "gripper_radius"),
        (RobotState, "gripper_radius"),
        (VoxelParams, "voxel_size"),
        (OutlierParams, "std_ratio"),
        (IcpParams, "convergence_tol"),
        (IcpParams, "max_correspondence_dist"),
        (partial(GraspPose, np.zeros(3), np.array([1.0, 0.0, 0.0])), "pregrasp_offset"),
        (partial(superellipsoid_mesh, b=0.01, c=0.01), "a"),
    ],
)
def test_nan_parameter_is_refused(make, field):
    with pytest.raises(ParameterError):
        make(**{field: float("nan")})


def test_config_validation_direct():
    with pytest.raises(ParameterError):
        PipelineConfig(gripper_radius=0.0)
    with pytest.raises(ParameterError):
        PipelineConfig(p_ee=(0.0, 1.0))
