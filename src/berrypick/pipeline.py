"""End-to-end perception-to-grasp pipeline and benchmark harness.

One trial runs: oracle detections -> depth filtering -> per-instance
extraction and back-projection, downsampling, outlier removal -> completion of
every instance -> ripe target selection -> obstacle union -> occupancy grid ->
grasp estimation -> A* planning -> simulated execution against ground truth.
Each stage's failure maps to a recorded reason; a trial never raises for an
algorithmic failure, so batches always run to completion.

Two ablation switches mirror the evaluation design: use_completion=False
feeds the denoised partial clouds straight to planning, and
use_obstacles=False plans through an empty occupancy map.

Each job has one path. _perceive detects, tests ripeness and extracts the
partial clouds of a scene once, then completes them per completion mode;
_completed is the one step that pairs a completion with its chamfer score.
_plan runs target selection through A*, and _trials runs one scene through
every variant: run_pipeline is _trials with one variant, and plan_scene
reports _perceive and _plan as a dict, raising where a trial records a
failure reason; plan_and_run gives both from one perception and one plan.
Every benchmark draws scene i of a seed from one function, _generated, so
each scene is built from its index alone, and each loops over the scene
indices in order with one per-scene function of (the run's inputs, i):
_run_variants, behind run_benchmark and run_ablation, calls _scene_trials,
which renders scene i with render_scene_artifacts and runs it through
_trials; run_completion_benchmark calls _scene_cds, which composites scene
i, adds sensor noise only when it holds a berry it scores, and scores
completion only. The loop merges the per-scene results in index order and
truncates the completion distances to n_berries.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .chamfer import chamfer_metric_mm
from .completion import IcpParams, complete_cloud
from .errors import (
    ContractError,
    GeometryError,
    InputError,
    InsufficientDataError,
    NoRipeTargetError,
    ParameterError,
    RegistrationError,
    SceneGenerationError,
)
from .occupancy import ObstacleSet, build_obstacles, build_occupancy
from .planning import (
    Candidate,
    RobotState,
    estimate_grasp,
    plan_trajectory,
    select_target,
    simulate_execution,
)
from .preprocess import (
    extract_masked,
    median_filter,
    project_point_cloud,
    remove_outliers,
    voxel_downsample,
)
from .prior import StrawberryPrior
from .render import (
    GroundTruth,
    RenderParams,
    _composite,
    _corrupt,
    render_rgbd,
    sample_ground_truth,
)
from .scene import SceneConfig, SceneTemplate, generate_scene
from .types import (
    ArrayRecord,
    CameraIntrinsics,
    DepthImage,
    InstanceMask,
    OutlierParams,
    PointCloud,
    RgbImage,
    Ripeness,
    VoxelParams,
    check_like,
)


class FailureReason(str, enum.Enum):
    NO_RIPE = "no_ripe"
    REGISTRATION_FAILURE = "registration_failure"
    INFEASIBLE_PATH = "infeasible_path"
    MISSED_GRASP = "missed_grasp"


@dataclass(frozen=True)
class PipelineConfig:
    voxel: VoxelParams = field(default_factory=VoxelParams)
    outliers: OutlierParams = field(default_factory=OutlierParams)
    icp: IcpParams = field(default_factory=IcpParams)
    grid_resolution: float = 0.005
    inflation: float = 0.015
    gripper_radius: float = 0.015
    use_completion: bool = True
    use_obstacles: bool = True
    p_ee: tuple[float, float, float] = (0.0, 0.0, 0.05)

    def __post_init__(self):
        if not self.grid_resolution > 0:
            raise ParameterError("grid_resolution must be positive")
        if not self.inflation >= 0:
            raise ParameterError("inflation must be nonnegative")
        # RobotState checks p_ee and gripper_radius
        object.__setattr__(self, "p_ee", tuple(self.robot_state().p_ee.tolist()))

    def robot_state(self) -> RobotState:
        return RobotState(p_ee=self.p_ee, gripper_radius=self.gripper_radius)

    def to_json(self) -> dict:
        return {**asdict(self), "p_ee": list(self.p_ee)}

    @classmethod
    def from_json(cls, obj: dict) -> "PipelineConfig":
        """Strict parse: unknown keys and mistyped values anywhere in the
        document are rejected."""
        check_like(obj, cls().to_json(), "config")
        sections = {
            "voxel": VoxelParams,
            "outliers": OutlierParams,
            "icp": IcpParams,
        }
        try:
            return cls(**{
                key: sections[key](**value) if key in sections else value
                for key, value in obj.items()
            })
        except ParameterError as exc:
            raise InputError(f"invalid config value: {exc}") from exc


@dataclass(frozen=True, eq=False)
class SceneArtifacts(ArrayRecord):
    """Everything a trial consumes: sensor images, oracle masks, ground truth."""

    scene: SceneTemplate
    rgb: RgbImage
    depth: DepthImage
    masks: tuple[InstanceMask, ...]
    truth: GroundTruth

    def __post_init__(self):
        missing = [f.name for f in fields(self) if getattr(self, f.name) is None]
        if missing:
            raise InputError(f"scene artifacts missing: {missing}")


@dataclass(frozen=True)
class TrialResult:
    """One trial. failure_reason None: its path ran and the grasp landed;
    MISSED_GRASP: its path ran and missed; any other reason: no path ran."""

    scene_id: int
    detections: int
    hit_ids: frozenset[int]
    cd_mm: tuple[float, ...]
    failure_reason: FailureReason | None

    @property
    def attempted(self) -> bool:
        return self.failure_reason in (None, FailureReason.MISSED_GRASP)

    @property
    def success(self) -> bool:
        return self.failure_reason is None

    @property
    def cd_mm_mean(self) -> float | None:
        return float(np.mean(self.cd_mm)) if self.cd_mm else None


def render_scene_artifacts(
    scene: SceneTemplate,
    prior: StrawberryPrior,
    render_params: RenderParams = RenderParams(),
    render_seed=0,
    truth_seed=1,
) -> SceneArtifacts:
    rendered = render_rgbd(scene, prior, render_params, render_seed)
    truth = sample_ground_truth(scene, prior, truth_seed)
    return SceneArtifacts(
        scene=scene, rgb=rendered.rgb, depth=rendered.depth, masks=rendered.masks, truth=truth
    )


@dataclass(frozen=True, eq=False)
class Perception(ArrayRecord):
    """What the perception half of a trial produced."""

    detections: int
    ripe_detected: bool
    candidates: tuple[Candidate, ...]
    leftovers: tuple[Candidate, ...]  # uncompleted clouds; still block space
    cd_mm: tuple[float, ...]


# median_filter's window; its radius is the margin a crop needs to filter
# every masked pixel exactly
_MEDIAN_WINDOW = 5


def extract_partials(
    depth: DepthImage,
    intrinsics: CameraIntrinsics,
    masks: list[InstanceMask],
    cfg: PipelineConfig,
) -> list[tuple[InstanceMask, PointCloud]]:
    """Each mask's denoised partial cloud: median filter, mask extraction,
    back-projection of the mask's own pixels, voxel downsampling and outlier
    removal.

    The filter reads the union bounding box of the masks' crops, grown by
    the filter radius, and computes the masked pixels only: extraction
    zeroes every other pixel. Every masked pixel's window lies inside that
    box or meets the image edge, where the box replicates the same edge
    pixels, and projection keeps row-major pixel order, so each cloud equals
    the one a whole-frame pass would give.

    Raises ParameterError when a mask's frame differs from the depth image.
    """
    for mask in masks:
        if mask.shape != depth.values.shape:
            raise ParameterError(
                f"mask of instance {mask.instance_id} has frame shape {mask.shape}, "
                f"but the depth image has {depth.values.shape}"
            )
    boxes = [(*m.offset, *np.add(m.offset, m.crop.shape)) for m in masks if m.crop.size]
    if not boxes:
        return [(mask, PointCloud.empty()) for mask in masks]
    top, left = np.min(boxes, axis=0)[:2]
    bottom, right = np.max(boxes, axis=0)[2:]
    r = _MEDIAN_WINDOW // 2
    v0, v1 = max(top - r, 0), min(bottom + r, depth.height)
    u0, u1 = max(left - r, 0), min(right + r, depth.width)

    def in_box(mask: InstanceMask) -> np.ndarray:
        placed = np.zeros((v1 - v0, u1 - u0), dtype=bool)
        (row, col), (h, w) = mask.offset, mask.crop.shape
        placed[row - v0 : row - v0 + h, col - u0 : col - u0 + w] = mask.crop
        return placed

    windows = [in_box(mask) for mask in masks]
    filtered = median_filter(
        DepthImage(depth.values[v0:v1, u0:u1]), _MEDIAN_WINDOW, where=np.logical_or.reduce(windows)
    )
    origin = (int(u0), int(v0))
    partials = []
    for mask, window in zip(masks, windows):
        lifted = project_point_cloud(extract_masked(filtered, window), intrinsics, origin)
        partial = voxel_downsample(lifted, cfg.voxel)
        partials.append((mask, remove_outliers(partial, cfg.outliers)))
    return partials


def _completed(cloud: PointCloud, instance_id: int, truth: GroundTruth, cfg: PipelineConfig,
               prior: StrawberryPrior) -> tuple[PointCloud, float] | None:
    """The completed cloud and its chamfer_metric_mm against the berry's true
    surface, or None when completion fails."""
    try:
        completed = complete_cloud(cloud, prior, cfg.icp)
    except (InsufficientDataError, RegistrationError):
        return None
    return completed.cloud, chamfer_metric_mm(completed.cloud, truth.instance(instance_id).surface)


def _perceive(artifacts: SceneArtifacts, cfg: PipelineConfig, prior: StrawberryPrior,
              modes: list[bool]) -> dict[bool, Perception]:
    """One Perception per completion mode (a use_completion value) in modes.

    The scene is detected and its partial clouds extracted once, with cfg's
    perception settings. With no ripe berry in view perception stops there,
    before any filtering. Completion keeps a berry that fails to complete as
    a leftover, which still blocks space; without completion the partials
    are planned on as-is.
    """
    detections = [m for m in artifacts.masks if m.pixel_count() > 0]
    if not any(m.ripeness is Ripeness.RIPE for m in detections):
        return dict.fromkeys(modes, Perception(len(detections), False, (), (), ()))
    partials = [
        (m, c)
        for m, c in extract_partials(artifacts.depth, artifacts.scene.intrinsics, detections, cfg)
        if len(c)
    ]
    perceptions = {}
    for mode in dict.fromkeys(modes):
        if not mode:
            candidates = tuple(Candidate(m.instance_id, m.ripeness, c) for m, c in partials)
            perceptions[mode] = Perception(len(detections), True, candidates, (), ())
            continue
        completed: list[Candidate] = []
        leftovers: list[Candidate] = []
        cds: list[float] = []
        for mask, cloud in partials:
            done = _completed(cloud, mask.instance_id, artifacts.truth, cfg, prior)
            if done is None:
                leftovers.append(Candidate(mask.instance_id, mask.ripeness, cloud))
            else:
                completed.append(Candidate(mask.instance_id, mask.ripeness, done[0]))
                cds.append(done[1])
        perceptions[mode] = Perception(
            len(detections), True, tuple(completed), tuple(leftovers), tuple(cds)
        )
    return perceptions


def _plan(perception: Perception, cfg: PipelineConfig, state: RobotState, prior: StrawberryPrior):
    """Target selection through A*: the target id, grasp, occupancy grid and
    trajectory.

    Raises NoRipeTargetError when no ripe berry was detected or none reached
    a plannable cloud, and GeometryError when no grasp can be posed. An
    infeasible path is not an error.
    """
    if not perception.ripe_detected:
        raise NoRipeTargetError("no ripe berry detected in the scene")
    target_id = select_target(perception.candidates, state.p_ee)
    target = next(c for c in perception.candidates if c.instance_id == target_id)
    grasp = estimate_grasp(target.cloud, state, prior.width_m)
    if cfg.use_obstacles:
        obstacles = build_obstacles(
            list(perception.candidates) + list(perception.leftovers), target_id
        )
    else:
        obstacles = ObstacleSet(points=PointCloud.empty())
    grid = build_occupancy(
        obstacles,
        resolution=cfg.grid_resolution,
        inflation=cfg.inflation,
        include_points=[state.p_ee, grasp.grasp_point, grasp.pregrasp_point],
    )
    return target_id, grasp, grid, plan_trajectory(grasp, grid, state)


def _trial(perception: Perception, scene_id: int, reason: FailureReason | None,
           outcome=None) -> TrialResult:
    return TrialResult(
        scene_id=scene_id,
        detections=perception.detections,
        hit_ids=frozenset() if outcome is None else outcome.hits,
        cd_mm=perception.cd_mm,
        failure_reason=reason,
    )


def _execute(artifacts: SceneArtifacts, perception: Perception, planned, state: RobotState,
             scene_id: int) -> TrialResult:
    """The trial of a scene planned by _plan: the path is checked against the
    grid it was planned on, then executed against ground truth."""
    target_id, _, grid, trajectory = planned
    if not trajectory.feasible:
        return _trial(perception, scene_id, FailureReason.INFEASIBLE_PATH)

    cells = grid.cells_of(trajectory.waypoints[1:-1])  # independent post-hoc check
    if grid.occupied[cells[:, 0], cells[:, 1], cells[:, 2]].any():
        raise ContractError("planned trajectory crosses an occupied cell")

    outcome = simulate_execution(trajectory, artifacts.truth, target_id, state)
    reason = None if outcome.success else FailureReason.MISSED_GRASP
    return _trial(perception, scene_id, reason, outcome)


def _finish_trial(
    artifacts: SceneArtifacts,
    perception: Perception,
    cfg: PipelineConfig,
    prior: StrawberryPrior,
    scene_id: int,
) -> TrialResult:
    """Planning and execution, given a finished perception stage."""
    state = cfg.robot_state()
    try:
        planned = _plan(perception, cfg, state, prior)
    except NoRipeTargetError:
        # ripe berries were detected but none survived to a plannable cloud
        reason = FailureReason.REGISTRATION_FAILURE
        return _trial(perception, scene_id,
                      reason if perception.ripe_detected else FailureReason.NO_RIPE)
    except GeometryError:
        return _trial(perception, scene_id, FailureReason.INFEASIBLE_PATH)
    return _execute(artifacts, perception, planned, state, scene_id)


def _trials(
    artifacts: SceneArtifacts,
    variants: dict[str, PipelineConfig],
    cfg: PipelineConfig,
    prior: StrawberryPrior,
    scene_id: int,
) -> dict[str, TrialResult]:
    """Each variant's trial of one scene. The scene is perceived once with
    cfg's perception settings, and each completion mode is computed once
    and shared by the variants that use it."""
    perceptions = _perceive(artifacts, cfg, prior, [v.use_completion for v in variants.values()])
    return {
        name: _finish_trial(artifacts, perceptions[v.use_completion], v, prior, scene_id)
        for name, v in variants.items()
    }


def run_pipeline(
    artifacts: SceneArtifacts,
    cfg: PipelineConfig = PipelineConfig(),
    prior: StrawberryPrior | None = None,
    scene_id: int = 0,
) -> TrialResult:
    """Run one trial; every algorithmic failure becomes a TrialResult."""
    prior = prior or StrawberryPrior.builtin()
    return _trials(artifacts, {"trial": cfg}, cfg, prior, scene_id)["trial"]


def _report(perception: Perception, planned) -> dict:
    target_id, grasp, grid, trajectory = planned
    return {
        "target_id": target_id,
        "grasp": {
            "grasp_point": grasp.grasp_point.tolist(),
            "approach_dir": grasp.approach_dir.tolist(),
            "pregrasp_offset": grasp.pregrasp_offset,
        },
        "feasible": trajectory.feasible,
        "waypoints": trajectory.waypoints.tolist(),
        "occupied_cells": grid.occupied_count,
        "detections": perception.detections,
        "cd_mm": list(perception.cd_mm),
    }


def plan_scene(
    artifacts: SceneArtifacts,
    cfg: PipelineConfig = PipelineConfig(),
    prior: StrawberryPrior | None = None,
) -> dict:
    """Perception plus planning for one scene, reported as a plain dict
    (target, grasp pose, waypoints, feasibility, grid load).

    Raises NoRipeTargetError when no ripe berry is detected or completable;
    an infeasible path is not an error, just feasible=false in the result.
    """
    prior = prior or StrawberryPrior.builtin()
    perception = _perceive(artifacts, cfg, prior, [cfg.use_completion])[cfg.use_completion]
    return _report(perception, _plan(perception, cfg, cfg.robot_state(), prior))


def plan_and_run(
    artifacts: SceneArtifacts,
    cfg: PipelineConfig = PipelineConfig(),
    prior: StrawberryPrior | None = None,
) -> tuple[dict, TrialResult]:
    """plan_scene's report and run_pipeline's trial of one scene, from one
    perception and one plan. Raises where plan_scene raises."""
    prior = prior or StrawberryPrior.builtin()
    state = cfg.robot_state()
    perception = _perceive(artifacts, cfg, prior, [cfg.use_completion])[cfg.use_completion]
    planned = _plan(perception, cfg, state, prior)
    return _report(perception, planned), _execute(artifacts, perception, planned, state, 0)


def _generated(template: SceneConfig, seed, index: int, prior: StrawberryPrior):
    """Scene `index` of a seed's stream, with the seeds of its render and of
    its ground truth, which the caller draws only when it needs them.

    The scene draws from child `index` of SeedSequence(seed), whose three
    children feed generation, rendering and ground truth. So each scene can
    be built on its own, and toggling pipeline flags replays the same scenes.
    """
    gen_ss, render_ss, truth_ss = np.random.SeedSequence(seed, spawn_key=(index,)).spawn(3)
    scene = generate_scene(template, prior, np.random.Generator(np.random.Philox(gen_ss)))
    return scene, render_ss, truth_ss


def _scene_trials(template: SceneConfig, seed, render_params: RenderParams,
                  prior: StrawberryPrior, variants: dict[str, PipelineConfig],
                  cfg: PipelineConfig, index: int) -> dict[str, TrialResult]:
    """Each variant's trial of scene `index` of a seed's stream, rendered
    once and run through _trials."""
    scene, render_ss, truth_ss = _generated(template, seed, index, prior)
    artifacts = render_scene_artifacts(scene, prior, render_params, render_ss, truth_ss)
    return _trials(artifacts, variants, cfg, prior, index)


def _run_variants(
    template: SceneConfig,
    n_scenes: int,
    variants: dict[str, PipelineConfig],
    cfg: PipelineConfig,
    seed,
    render_params: RenderParams,
    prior: StrawberryPrior | None,
) -> dict[str, list[TrialResult]]:
    """Each variant's trials over the same n_scenes scenes, in scene order."""
    if n_scenes < 1:
        raise ParameterError("n_scenes must be at least 1")
    prior = prior or StrawberryPrior.builtin()
    scenes = [_scene_trials(template, seed, render_params, prior, variants, cfg, i)
              for i in range(n_scenes)]
    return {name: [trials[name] for trials in scenes] for name in variants}


def run_benchmark(
    template: SceneConfig,
    n_scenes: int,
    cfg: PipelineConfig = PipelineConfig(),
    seed: int = 0,
    render_params: RenderParams = RenderParams(),
    prior: StrawberryPrior | None = None,
) -> list[TrialResult]:
    """n_scenes seeded trials; (template, cfg, seed) determines every result."""
    runs = _run_variants(template, n_scenes, {"trials": cfg}, cfg, seed, render_params, prior)
    return runs["trials"]


def run_ablation(
    template: SceneConfig,
    n_scenes: int,
    cfg: PipelineConfig = PipelineConfig(),
    seed: int = 0,
    render_params: RenderParams = RenderParams(),
    prior: StrawberryPrior | None = None,
) -> dict[str, list[TrialResult]]:
    """The three pipeline variants over identical scenes: full, obstacles
    disabled, completion disabled. Each list equals run_benchmark with that
    variant's config and the same seed."""
    variants = {
        "full": replace(cfg, use_completion=True, use_obstacles=True),
        "no_obstacles": replace(cfg, use_completion=True, use_obstacles=False),
        "no_completion": replace(cfg, use_completion=False, use_obstacles=True),
    }
    return _run_variants(template, n_scenes, variants, cfg, seed, render_params, prior)


def _scene_cds(template: SceneConfig, seed, render_params: RenderParams,
               prior: StrawberryPrior, cfg: PipelineConfig, min_visibility: float,
               index: int) -> list[float]:
    """The chamfer_metric_mm of every berry of scene `index` whose rendered
    visibility reaches min_visibility, in mask order, with inf for a failed
    completion; [] when no berry does.

    Sensor noise and ground truth are drawn only for a scene with such a
    berry. They draw from their own streams, so skipping them is safe.
    """
    scene, render_ss, truth_ss = _generated(template, seed, index, prior)
    _, clean, masks, visibility = _composite(scene, prior)
    eligible = [m for m in masks if visibility.get(m.instance_id, 0.0) >= min_visibility]
    if not eligible:
        return []
    depth = _corrupt(clean, render_params, render_ss)
    truth = sample_ground_truth(scene, prior, truth_ss)
    cds = []
    for mask, cloud in extract_partials(depth, scene.intrinsics, eligible, cfg):
        done = _completed(cloud, mask.instance_id, truth, cfg, prior)
        cds.append(float("inf") if done is None else done[1])
    return cds


def run_completion_benchmark(
    template: SceneConfig,
    n_berries: int,
    cfg: PipelineConfig = PipelineConfig(),
    seed: int = 0,
    render_params: RenderParams = RenderParams(),
    min_visibility: float = 0.4,
    prior: StrawberryPrior | None = None,
) -> list[float]:
    """Completion accuracy in isolation: the chamfer_metric_mm of the
    completed cloud against the true surface for n_berries berries drawn from freshly generated scenes.

    Only berries whose rendered visibility reaches min_visibility count; a
    min_visibility outside [0, 1], or NaN, raises ParameterError before any
    scene is drawn. A completion failure on an eligible berry contributes
    inf rather than being skipped, so systematic registration problems
    surface in the mean instead of silently shrinking the sample.
    """
    if n_berries < 1:
        raise ParameterError("n_berries must be at least 1")
    if not 0.0 <= min_visibility <= 1.0:
        raise ParameterError(f"min_visibility must lie in [0, 1], got {min_visibility}")
    prior = prior or StrawberryPrior.builtin()
    cds: list[float] = []
    for i in range(20 * n_berries):  # generous budget for visibility rejections
        cds += _scene_cds(template, seed, render_params, prior, cfg, min_visibility, i)
        if len(cds) >= n_berries:
            return cds[:n_berries]
    raise SceneGenerationError(
        f"only {len(cds)} of {n_berries} berries met the "
        f"{min_visibility:.0%} visibility floor within the scene budget"
    )
