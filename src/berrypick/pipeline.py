"""End-to-end perception-to-grasp pipeline and benchmark harness.

One trial runs: oracle detections -> depth filtering -> per-instance
extraction and back-projection, downsampling, outlier removal -> completion of
every instance -> ripe target selection -> obstacle union -> occupancy grid ->
grasp estimation -> A* planning -> simulated execution against ground truth.
A trial never raises for an algorithmic failure: _trial maps the stage where
it stopped to a FailureReason, so batches always run to completion.

Two ablation switches mirror the evaluation design: use_completion=False
feeds the denoised partial clouds straight to planning, and
use_obstacles=False plans through an empty occupancy map.

A scene run has one path, and each fact is put together once: _perceive
gives one Perception per completion mode, a PerceivedBerry per extracted
berry with its fate from _completed; _plan gives a Plan, and _trial the
TrialResult. run_pipeline, plan_scene and plan_and_run read those records.
Every benchmark builds scene i of a seed from its index alone (_generated),
runs one per-scene function over the indices (_scene_trials, or _scene_cds,
which adds sensor noise only to a scene it scores) and merges in order.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .chamfer import chamfer_metric_mm
from .completion import IcpParams, complete_cloud
from .errors import (
    BerrypickError,
    ContractError,
    GeometryError,
    InputError,
    InsufficientDataError,
    NoRipeTargetError,
    ParameterError,
    RegistrationError,
    SceneGenerationError,
)
from .occupancy import ObstacleSet, OccupancyGrid, build_obstacles, build_occupancy
from .planning import (
    Candidate,
    ExecutionOutcome,
    GraspPose,
    RobotState,
    Trajectory,
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
    """Why a trial's grasp did not land; _trial assigns each one.

    NO_RIPE: no detected berry (a mask with pixels) is ripe.
    REGISTRATION_FAILURE: ripe berries were detected but none reached a
        plannable cloud, each refused by completion or empty after
        filtering. So it also labels a no_completion trial, which registers
        nothing, whose ripe berries all gave empty clouds.
    INFEASIBLE_PATH: no grasp could be posed, or A* found no path.
    MISSED_GRASP: the path ran and ended over 1 cm from the target's center.
    """

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
    return SceneArtifacts(scene, rendered.rgb, rendered.depth, rendered.masks, truth)


@dataclass(frozen=True, eq=False)
class Completed(ArrayRecord):
    """A completed cloud and its chamfer_metric_mm against the true surface."""

    cloud: PointCloud
    cd_mm: float


@dataclass(frozen=True)
class Refused:
    """A completion that raised: the exception's type and message. No
    traceback is kept, so no frame of the registration stays alive."""

    cause: type[BerrypickError]
    message: str


@dataclass(frozen=True, eq=False)
class PerceivedBerry(ArrayRecord):
    """A detected berry whose mask gave a nonempty partial cloud, with its
    completion fate; the fate is None when perception does not complete."""

    instance_id: int
    ripeness: Ripeness
    partial: PointCloud
    fate: Completed | Refused | None

    def candidate(self) -> Candidate:
        """The berry on its completed cloud if it has one, else its partial."""
        done = isinstance(self.fate, Completed)
        return Candidate(self.instance_id, self.ripeness, self.fate.cloud if done else self.partial)


@dataclass(frozen=True, eq=False)
class Perception(ArrayRecord):
    """What the perception half of a trial produced. The planner's views of
    the berries, and their chamfer scores, derive from the records."""

    detections: int
    ripe_detected: bool
    berries: tuple[PerceivedBerry, ...]

    @property
    def candidates(self) -> tuple[Candidate, ...]:
        return tuple(b.candidate() for b in self.berries if not isinstance(b.fate, Refused))

    @property
    def leftovers(self) -> tuple[Candidate, ...]:
        """The refused berries' partial clouds, which still block space."""
        return tuple(b.candidate() for b in self.berries if isinstance(b.fate, Refused))

    @property
    def cd_mm(self) -> tuple[float, ...]:
        return tuple(b.fate.cd_mm for b in self.berries if isinstance(b.fate, Completed))


@dataclass(frozen=True, eq=False)
class Plan(ArrayRecord):
    """What _plan produced; the trajectory is empty when A* found no path."""

    target_id: int
    grasp: GraspPose
    grid: OccupancyGrid
    trajectory: Trajectory


# median_filter's window; its radius is the margin a crop needs to filter
# every masked pixel exactly
_MEDIAN_WINDOW = 5


def extract_partials(depth: DepthImage, intrinsics: CameraIntrinsics, masks: list[InstanceMask],
                     cfg: PipelineConfig) -> list[tuple[InstanceMask, PointCloud]]:
    """Each mask's denoised partial cloud: median filter, mask extraction,
    back-projection of the mask's own pixels, voxel downsampling and outlier
    removal.

    Each mask is filtered at its own pixels only, in its crop grown by the
    filter radius and cut at the frame edge; every other pixel reads 0.
    Every masked pixel's window lies inside the grown crop or meets the
    frame edge, where the grown crop replicates the same edge pixels. The
    crop is lifted with its frame offset as the projection origin: its
    row-major pixels are the mask's pixels in frame order, so each cloud
    equals the one a whole-frame pass would give.

    Raises ParameterError when a mask's frame differs from the depth image.
    """
    r = _MEDIAN_WINDOW // 2
    partials = []
    for mask in masks:
        if mask.shape != depth.values.shape:
            raise ParameterError(
                f"mask of instance {mask.instance_id} has frame shape {mask.shape}, "
                f"but the depth image has {depth.values.shape}"
            )
        (row, col), (h, w) = mask.offset, mask.crop.shape
        top, left = max(row - r, 0), max(col - r, 0)
        grown = depth.values[top:row + h + r, left:col + w + r]
        own = slice(row - top, row - top + h), slice(col - left, col - left + w)
        where = np.zeros(grown.shape, dtype=bool)
        where[own] = mask.crop
        filtered = median_filter(DepthImage(grown), _MEDIAN_WINDOW, where=where)
        # the filter already zeroed the unmasked pixels; extract_masked stays
        # the stage that perfbench traces as mask extraction
        crop = DepthImage(filtered.values[own])
        lifted = project_point_cloud(extract_masked(crop, mask.crop), intrinsics, mask.offset[::-1])
        partial = voxel_downsample(lifted, cfg.voxel)
        partials.append((mask, remove_outliers(partial, cfg.outliers)))
    return partials


def _completed(cloud: PointCloud, instance_id: int, truth: GroundTruth, cfg: PipelineConfig,
               prior: StrawberryPrior) -> Completed | Refused:
    """A berry's completion fate: its completed cloud, scored against its
    true surface, or the refusal when completion raises."""
    try:
        completed = complete_cloud(cloud, prior, cfg.icp)
    except (InsufficientDataError, RegistrationError) as exc:
        return Refused(type(exc), str(exc))
    cd = chamfer_metric_mm(completed.cloud, truth.instance(instance_id).surface)
    return Completed(completed.cloud, cd)


def _perceive(artifacts: SceneArtifacts, cfg: PipelineConfig, prior: StrawberryPrior,
              modes: list[bool]) -> dict[bool, Perception]:
    """One Perception per completion mode (a use_completion value) in modes.

    The scene is detected and its partial clouds extracted once, with cfg's
    perception settings. With no ripe berry in view perception stops there,
    before any filtering. A completing mode records each berry's fate;
    without completion the partials are planned on as they are.
    """
    detections = [m for m in artifacts.masks if m.pixel_count() > 0]
    if not any(m.ripeness is Ripeness.RIPE for m in detections):
        return dict.fromkeys(modes, Perception(len(detections), False, ()))
    extracted = extract_partials(artifacts.depth, artifacts.scene.intrinsics, detections, cfg)
    partials = [(m, c) for m, c in extracted if len(c)]
    return {
        mode: Perception(len(detections), True, tuple(
            PerceivedBerry(m.instance_id, m.ripeness, c,
                           _completed(c, m.instance_id, artifacts.truth, cfg, prior) if mode else None)
            for m, c in partials
        ))
        for mode in dict.fromkeys(modes)
    }


def _plan(perception: Perception, cfg: PipelineConfig, state: RobotState,
          prior: StrawberryPrior) -> Plan:
    """Target selection through A*.

    Raises NoRipeTargetError when no ripe berry was detected or none reached
    a plannable cloud, and GeometryError when no grasp can be posed. An
    infeasible path is not an error.
    """
    if not perception.ripe_detected:
        raise NoRipeTargetError("no ripe berry detected in the scene")
    candidates = perception.candidates
    target_id = select_target(candidates, state.p_ee)
    target = next(c for c in candidates if c.instance_id == target_id)
    grasp = estimate_grasp(target.cloud, state, prior.width_m)
    if cfg.use_obstacles:
        obstacles = build_obstacles(candidates + perception.leftovers, target_id)
    else:
        obstacles = ObstacleSet(points=PointCloud.empty())
    include = [state.p_ee, grasp.grasp_point, grasp.pregrasp_point]
    grid = build_occupancy(obstacles, cfg.grid_resolution, cfg.inflation, include)
    return Plan(target_id, grasp, grid, plan_trajectory(grasp, grid, state))


def _trial(perception: Perception, scene_id: int, refusal: BerrypickError | None = None,
           outcome: ExecutionOutcome | None = None) -> TrialResult:
    """The trial of a scene that _plan refused with `refusal`, or whose path
    ran to `outcome` (None when no path ran): the one place a FailureReason
    is assigned, from where the trial stopped (see FailureReason)."""
    if isinstance(refusal, NoRipeTargetError):
        ripe = perception.ripe_detected
        reason = FailureReason.REGISTRATION_FAILURE if ripe else FailureReason.NO_RIPE
    elif outcome is None:
        reason = FailureReason.INFEASIBLE_PATH
    else:
        reason = None if outcome.success else FailureReason.MISSED_GRASP
    hits = frozenset() if outcome is None else outcome.hits
    return TrialResult(scene_id, perception.detections, hits, perception.cd_mm, reason)


def _execute(artifacts: SceneArtifacts, perception: Perception, plan: Plan, state: RobotState,
             scene_id: int) -> TrialResult:
    """The trial of a scene planned by _plan: a feasible path is checked
    against the grid it was planned on, then executed against ground truth."""
    outcome = None
    if plan.trajectory.feasible:
        cells = plan.grid.cells_of(plan.trajectory.waypoints[1:-1])  # independent post-hoc check
        if plan.grid.occupied[cells[:, 0], cells[:, 1], cells[:, 2]].any():
            raise ContractError("planned trajectory crosses an occupied cell")
        outcome = simulate_execution(plan.trajectory, artifacts.truth, plan.target_id, state)
    return _trial(perception, scene_id, outcome=outcome)


def _finish_trial(artifacts: SceneArtifacts, perception: Perception, cfg: PipelineConfig,
                  prior: StrawberryPrior, scene_id: int) -> TrialResult:
    """Planning and execution, given a finished perception stage."""
    state = cfg.robot_state()
    try:
        plan = _plan(perception, cfg, state, prior)
    except (NoRipeTargetError, GeometryError) as exc:
        return _trial(perception, scene_id, refusal=exc)
    return _execute(artifacts, perception, plan, state, scene_id)


def _trials(artifacts: SceneArtifacts, variants: dict[str, PipelineConfig], cfg: PipelineConfig,
            prior: StrawberryPrior, scene_id: int) -> dict[str, TrialResult]:
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


def _report(perception: Perception, plan: Plan) -> dict:
    return {
        "target_id": plan.target_id,
        "grasp": {
            "grasp_point": plan.grasp.grasp_point.tolist(),
            "approach_dir": plan.grasp.approach_dir.tolist(),
            "pregrasp_offset": plan.grasp.pregrasp_offset,
        },
        "feasible": plan.trajectory.feasible,
        "waypoints": plan.trajectory.waypoints.tolist(),
        "occupied_cells": plan.grid.occupied_count,
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
    return _report(*_perceived_plan(artifacts, cfg, prior))


def plan_and_run(
    artifacts: SceneArtifacts,
    cfg: PipelineConfig = PipelineConfig(),
    prior: StrawberryPrior | None = None,
) -> tuple[dict, TrialResult]:
    """plan_scene's report and run_pipeline's trial of one scene, from one
    perception and one plan. Raises where plan_scene raises."""
    perception, plan = _perceived_plan(artifacts, cfg, prior)
    return _report(perception, plan), _execute(artifacts, perception, plan, cfg.robot_state(), 0)


def _perceived_plan(artifacts: SceneArtifacts, cfg: PipelineConfig,
                    prior: StrawberryPrior | None) -> tuple[Perception, Plan]:
    prior = prior or StrawberryPrior.builtin()
    perception = _perceive(artifacts, cfg, prior, [cfg.use_completion])[cfg.use_completion]
    return perception, _plan(perception, cfg, cfg.robot_state(), prior)


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


def _run_variants(template: SceneConfig, n_scenes: int, variants: dict[str, PipelineConfig],
                  cfg: PipelineConfig, seed, render_params: RenderParams,
                  prior: StrawberryPrior | None) -> dict[str, list[TrialResult]]:
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
    fates = [_completed(cloud, mask.instance_id, truth, cfg, prior)
             for mask, cloud in extract_partials(depth, scene.intrinsics, eligible, cfg)]
    return [f.cd_mm if isinstance(f, Completed) else float("inf") for f in fates]


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
