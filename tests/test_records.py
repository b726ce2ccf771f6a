"""Value equality of the records that hold numpy arrays: every one compares
by value with `==`, never raises, and cannot be hashed."""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from conftest import CLUTTERED

from berrypick import (
    CameraIntrinsics,
    DepthImage,
    InputError,
    OccupancyGrid,
    OutlierParams,
    ParameterError,
    PipelineConfig,
    PointCloud,
    Pose,
    RenderParams,
    VoxelParams,
    build_obstacles,
    complete_cloud,
    generate_scene,
    render_rgbd,
    render_scene_artifacts,
    rotation_about_axis,
    rotation_aligning,
)
from berrypick.pipeline import _perceive, _plan, extract_partials
from berrypick.types import RgbImage, check_like


RECORDS = [
    "DepthImage", "RgbImage", "PointCloud", "InstanceMask", "Pose",
    "RenderResult", "GroundTruthInstance", "GroundTruth",
    "SceneArtifacts", "Perception", "PerceivedBerry", "Completed", "Plan",
    "RobotState", "Candidate", "GraspPose", "Trajectory",
    "IcpResult", "CompletionResult",
    "ObstacleSet", "OccupancyGrid",
    "BerryInstance", "Occluder", "SceneTemplate",
    "StrawberryPrior",
]


@pytest.fixture(scope="module")
def records(prior) -> dict:
    """One instance of each record, by class name, from one rendered,
    perceived and planned cluttered scene."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(3)))
    scene = generate_scene(CLUTTERED, prior, rng)
    artifacts = render_scene_artifacts(scene, prior, RenderParams(), 0, 1)
    cfg = PipelineConfig()
    perception = _perceive(artifacts, cfg, prior, [True])[True]
    state = cfg.robot_state()
    plan = _plan(perception, cfg, state, prior)
    mask = next(m for m in artifacts.masks if m.pixel_count())
    ((_, partial),) = extract_partials(artifacts.depth, scene.intrinsics, [mask], cfg)
    completed = complete_cloud(partial, prior)
    truth = artifacts.truth
    found = [
        artifacts.depth, artifacts.rgb, partial, mask, scene.berries[0].pose,
        render_rgbd(scene, prior, RenderParams(), 0), truth.instances[0], truth,
        artifacts, perception, perception.berries[0], perception.berries[0].fate, plan,
        state, perception.candidates[0], plan.grasp, plan.trajectory,
        completed.icp, completed,
        build_obstacles(perception.candidates, plan.target_id), plan.grid,
        scene.berries[0], scene.occluders[0], scene,
        prior,
    ]
    return {type(x).__name__: x for x in found}


def _arrays(x):
    """Every numpy array that x holds, through compared fields and tuples."""
    if isinstance(x, np.ndarray):
        yield x
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            if f.compare:
                yield from _arrays(getattr(x, f.name))
    elif isinstance(x, tuple):
        for item in x:
            yield from _arrays(item)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_compares_by_value_and_is_unhashable(records, name):
    x = records[name]
    twin = copy.deepcopy(x)
    assert (twin == x) is True and (twin != x) is False

    changed = copy.deepcopy(x)
    array = next(a for a in _arrays(changed) if a.size)
    array.flat[0] = 0 if array.flat[0] else 1
    assert changed != x and x != changed

    with pytest.raises(TypeError):
        hash(x)
    assert (x == object()) is False and (x != object()) is True


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: check_like({"ripeness": 1}, {"ripeness": "ripe"}, "scene"), InputError,
         "scene.ripeness must be a string, got 1"),
        (lambda: CameraIntrinsics(fx=np.nan), ParameterError, "camera intrinsics must be finite"),
        (lambda: CameraIntrinsics(cx=640.0).validate_for(640, 480), ParameterError,
         r"principal point \(640.0, 239.5\) outside 640x480 image"),
        (lambda: DepthImage(values=np.zeros(4, dtype=np.uint16)), ParameterError,
         r"depth image must be 2-D \(H, W\)"),
        (lambda: PointCloud.empty().centroid(), ParameterError, "centroid of empty cloud"),
        (lambda: VoxelParams(min_points=0), ParameterError, "min_points must be >= 1"),
        (lambda: OutlierParams(k_neighbors=0), ParameterError, "k_neighbors must be >= 1"),
        (lambda: Pose(rotation=np.eye(2)), ParameterError,
         "pose needs a 3x3 rotation and a 3-vector translation"),
        (lambda: Pose(rotation=np.diag([1.0, 1.0, -1.0])), ParameterError,
         r"rotation must be proper \(det \+1\)"),
        (lambda: rotation_about_axis(np.zeros(3), 1.0), ParameterError,
         "rotation axis must be nonzero"),
        (lambda: rotation_aligning(np.zeros(3), np.ones(3)), ParameterError,
         "cannot align zero-length directions"),
    ],
    ids=["string-field", "intrinsics-nan", "principal-point", "depth-1-d", "empty-centroid",
         "voxel-min-points", "outlier-neighbors", "pose-shape", "pose-improper",
         "zero-axis", "zero-direction"],
)
def test_a_malformed_argument_is_refused(make, error, message):
    """Each record and helper of berrypick.types refuses a malformed argument
    with one named error."""
    with pytest.raises(error, match="^" + message + "$"):
        make()


@pytest.mark.parametrize("record", [PipelineConfig(), CameraIntrinsics(), RenderParams()])
def test_a_record_without_arrays_keeps_the_generated_equality_and_hash(record):
    twin = copy.deepcopy(record)
    assert twin == record and hash(twin) == hash(record)


def test_an_array_field_equals_only_an_array_of_its_shape_dtype_and_values():
    def grid(origin):
        return OccupancyGrid(origin=origin, resolution=0.01, occupied=np.zeros((2, 2, 2), bool))

    assert grid(np.zeros(3)) == grid(np.zeros(3))
    for origin in (np.zeros(3, np.float32), np.zeros((1, 3)), np.zeros(4), [0.0, 0.0, 0.0]):
        assert grid(np.zeros(3)) != grid(origin) and grid(origin) != grid(np.zeros(3))


def test_rgb_images_are_equal_exactly_when_their_frames_are():
    """An RgbImage holds the tight crop of its drawn pixels, so a frame and
    a window of it placed at its offset make one value."""
    frame = np.zeros((6, 7, 3), dtype=np.uint8)
    frame[2:4, 1:5] = np.random.default_rng(4).integers(1, 256, size=(2, 4, 3))
    whole = RgbImage(crop=frame)
    placed = RgbImage(crop=frame[1:5, :6], offset=(1, 0), shape=(6, 7))
    assert (whole.crop.shape, whole.offset) == ((2, 4, 3), (2, 1))
    assert whole == placed and np.array_equal(placed.values, frame)

    moved = np.roll(frame, 1, axis=1)
    changed = frame.copy()
    changed[0, 6, 2] = 1  # a new drawn pixel widens the crop
    for other in (moved, changed, frame[:, :6]):
        assert RgbImage(crop=other) != whole and whole != RgbImage(crop=other)
    black = [RgbImage(crop=np.zeros((6, n, 3), dtype=np.uint8)) for n in (7, 8)]
    assert black[0] != black[1] and black[0].crop.shape == black[1].crop.shape == (0, 0, 3)
