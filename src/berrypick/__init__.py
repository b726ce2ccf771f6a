"""Occlusion-aware strawberry perception-to-grasp pipeline with a built-in
synthetic RGB-D scene simulator."""

from .chamfer import chamfer_loss, chamfer_loss_brute, chamfer_metric_mm
from .completion import (
    CompletionResult,
    IcpParams,
    IcpResult,
    complete_cloud,
    icp_refine,
    init_pose,
)
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
    StorageError,
)
from .metrics import MetricsReport, compute_metrics, emit_ablation_report, emit_report
from .occupancy import ObstacleSet, OccupancyGrid, build_obstacles, build_occupancy
from .pipeline import (
    FailureReason,
    PipelineConfig,
    SceneArtifacts,
    TrialResult,
    plan_and_run,
    plan_scene,
    render_scene_artifacts,
    run_ablation,
    run_benchmark,
    run_completion_benchmark,
    run_pipeline,
)
from .planning import (
    Candidate,
    ExecutionOutcome,
    GraspPose,
    RobotState,
    Trajectory,
    astar_grid,
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
from .prior import StrawberryPrior, superellipsoid_mesh
from .render import (
    GroundTruth,
    GroundTruthInstance,
    RenderParams,
    RenderResult,
    render_rgbd,
    sample_ground_truth,
)
from .scene import BerryInstance, Occluder, SceneConfig, SceneTemplate, generate_scene
from .types import (
    CameraIntrinsics,
    DepthImage,
    InstanceMask,
    OutlierParams,
    PointCloud,
    Pose,
    RgbImage,
    Ripeness,
    VoxelParams,
    rotation_about_axis,
    rotation_aligning,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
