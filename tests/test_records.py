"""Value equality of the records that hold numpy arrays: every one compares
by value with `==`, never raises, and cannot be hashed."""

from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from berrypick import (
    CameraIntrinsics,
    OccupancyGrid,
    PipelineConfig,
    RenderParams,
    SceneConfig,
    build_obstacles,
    complete_cloud,
    generate_scene,
    render_rgbd,
    render_scene_artifacts,
)
from berrypick.pipeline import _perceive, _plan, extract_partials
from berrypick.types import RgbImage

TEMPLATES = Path(__file__).resolve().parent.parent / "templates"

RECORDS = [
    "DepthImage", "RgbImage", "PointCloud", "InstanceMask", "Pose",
    "RenderResult", "GroundTruthInstance", "GroundTruth",
    "SceneArtifacts", "Perception",
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
    template = SceneConfig.from_json(json.loads((TEMPLATES / "cluttered.json").read_text()))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(3)))
    scene = generate_scene(template, prior, rng)
    artifacts = render_scene_artifacts(scene, prior, RenderParams(), 0, 1)
    cfg = PipelineConfig()
    perception = _perceive(artifacts, cfg, prior, [True])[True]
    state = cfg.robot_state()
    target_id, grasp, grid, trajectory = _plan(perception, cfg, state, prior)
    mask = next(m for m in artifacts.masks if m.pixel_count())
    ((_, partial),) = extract_partials(artifacts.depth, scene.intrinsics, [mask], cfg)
    completed = complete_cloud(partial, prior)
    truth = artifacts.truth
    found = [
        artifacts.depth, artifacts.rgb, partial, mask, scene.berries[0].pose,
        render_rgbd(scene, prior, RenderParams(), 0), truth.instances[0], truth,
        artifacts, perception,
        state, perception.candidates[0], grasp, trajectory,
        completed.icp, completed,
        build_obstacles(perception.candidates, target_id), grid,
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
