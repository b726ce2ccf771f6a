"""Scene model and randomized generation: JSON round-trips, placement
guarantees, and determinism of the generator under a fixed stream."""

from __future__ import annotations

import json

import numpy as np
import pytest
from conftest import CLUTTERED, SINGLE_BERRY, TEMPLATES

from berrypick import (
    BerryInstance,
    CameraIntrinsics,
    InputError,
    Occluder,
    ParameterError,
    Ripeness,
    SceneConfig,
    SceneGenerationError,
    SceneTemplate,
    generate_scene,
)
from berrypick.types import MAX_LENGTH_M, Pose, rotation_aligning


def _rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _generate(config, prior, seed=0):
    return generate_scene(config, prior, _rng(seed))


def test_generate_counts_and_labels(prior):
    config = SceneConfig(n_ripe=2, n_unripe=3, n_occluders=2)
    scene = _generate(config, prior)
    assert len(scene.berries) == 5
    assert len(scene.occluders) == 2
    labels = [b.ripeness for b in scene.berries]
    assert labels.count(Ripeness.RIPE) == 2
    assert labels.count(Ripeness.UNRIPE) == 3
    assert sorted(b.instance_id for b in scene.berries) == list(range(5))


def test_generate_respects_minimum_spacing(prior):
    config = SceneConfig(n_ripe=3, n_unripe=2, clutter_spacing=0.004)
    min_dist = 2 * prior.bounding_radius_m + config.clutter_spacing
    for seed in range(8):
        scene = _generate(config, prior, seed)
        centers = np.array([b.pose.translation for b in scene.berries])
        diffs = centers[:, None, :] - centers[None, :, :]
        dists = np.linalg.norm(diffs, axis=2)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() >= min_dist


def test_generate_keeps_centers_in_workspace(prior):
    config = SceneConfig(
        n_ripe=1,
        n_unripe=1,
        workspace_lo=(-0.03, -0.02, 0.32),
        workspace_hi=(0.03, 0.02, 0.38),
    )
    for seed in range(5):
        scene = _generate(config, prior, seed)
        centers = np.array([b.pose.translation for b in scene.berries])
        assert (centers >= config.workspace_lo).all()
        assert (centers <= config.workspace_hi).all()


def test_generate_hanging_axis_tilt_bounded(prior):
    config = SceneConfig(max_tilt_rad=0.3)
    down = np.array([0.0, -1.0, 0.0])  # camera frame: berries hang toward -y
    for seed in range(5):
        scene = _generate(config, prior, seed)
        for berry in scene.berries:
            axis = berry.pose.rotation @ np.array([0.0, 0.0, 1.0])
            assert float(axis @ down) >= np.cos(config.max_tilt_rad) - 1e-9


def test_generate_occluders_sit_on_sight_lines(prior):
    config = SceneConfig(n_occluders=3, occluder_lateral_sigma=0.005)
    lo, hi = config.occluder_fraction_range
    scene = _generate(config, prior, seed=3)
    berry_z = np.array([b.pose.translation[2] for b in scene.berries])
    for occluder in scene.occluders:
        # lateral jitter never moves the leaf along z, so z pins the fraction
        fractions = occluder.center[2] / berry_z
        assert ((fractions >= lo - 1e-9) & (fractions <= hi + 1e-9)).any()
        assert occluder.semi_minor <= occluder.semi_major
        assert config.occluder_semi_axis_range[0] <= occluder.semi_minor
        assert occluder.semi_major <= config.occluder_semi_axis_range[1]


def _text(scene: SceneTemplate) -> str:
    """The scene as JSON text, which tells -0.0 from 0.0 where == does not."""
    return json.dumps(scene.to_json(), sort_keys=True)


def test_generate_is_deterministic_per_stream(prior):
    config = SceneConfig(n_ripe=2, n_unripe=2, n_occluders=2)
    a = _generate(config, prior, seed=17)
    b = _generate(config, prior, seed=17)
    assert _text(a) == _text(b)
    c = _generate(config, prior, seed=18)
    assert _text(a) != _text(c)


def test_generate_raises_when_overpacked(prior):
    config = SceneConfig(
        n_ripe=6,
        n_unripe=6,
        workspace_lo=(-0.02, -0.02, 0.35),
        workspace_hi=(0.02, 0.02, 0.39),
    )
    with pytest.raises(SceneGenerationError):
        _generate(config, prior)


def test_generate_raises_for_occluders_with_no_berry(prior):
    config = SceneConfig(n_ripe=0, n_unripe=0, n_occluders=1)
    with pytest.raises(SceneGenerationError, match="^occluders need at least one berry"):
        _generate(config, prior)


def test_config_validation():
    with pytest.raises(ParameterError):
        SceneConfig(n_ripe=-1)
    with pytest.raises(ParameterError):
        SceneConfig(clutter_spacing=-0.01)
    with pytest.raises(ParameterError):
        SceneConfig(occluder_fraction_range=(0.8, 0.55))
    with pytest.raises(ParameterError):
        SceneConfig(workspace_lo=(0.1, -0.06, 0.30), workspace_hi=(0.09, 0.06, 0.42))
    with pytest.raises(ParameterError):
        SceneConfig(workspace_lo=(-0.09, -0.06, -0.1), workspace_hi=(0.09, 0.06, 0.42))
    for bad in (
        {"workspace_lo": (float("nan"), -0.06, 0.30)},
        {"max_tilt_rad": float("nan")},
        {"max_tilt_rad": -0.1},
        {"occluder_lateral_sigma": -1.0},
        {"occluder_semi_axis_range": (0.03, -0.01)},
        {"clutter_spacing": float("inf")},
    ):
        with pytest.raises(ParameterError):
            SceneConfig(**bad)


_LEAF = dict(center=[0.0, 0.0, 0.3], normal=[0.0, 0.0, 1.0], semi_major=0.02, semi_minor=0.01)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BerryInstance(0, Pose(np.eye(3), [np.nan, 0.0, 0.3]), Ripeness.RIPE),
         "berry translation must be finite"),
        (lambda: Occluder(**{**_LEAF, "center": [0.0, np.inf, 0.3]}),
         "occluder center and normal must be finite"),
        (lambda: Occluder(**{**_LEAF, "normal": [np.nan, 0.0, 1.0]}),
         "occluder center and normal must be finite"),
        (lambda: Occluder(**{**_LEAF, "semi_minor": np.nan}), "occluder semi-axes must be finite"),
        (lambda: Occluder(**{**_LEAF, "semi_major": 0.0}), "occluder semi-axes must be positive"),
        (lambda: Occluder(**_LEAF, roll_rad=np.inf), "occluder roll must be finite"),
    ],
    ids=["berry-translation", "occluder-center", "occluder-normal", "semi-axis-nan",
         "semi-axis-zero", "roll"],
)
def test_scene_objects_refuse_malformed_values(make, message):
    with pytest.raises(ParameterError, match="^" + message + "$"):
        make()


@pytest.mark.parametrize(
    "key, at",
    [("clutter_spacing", None), ("occluder_lateral_sigma", None),
     ("occluder_semi_axis_range", 1), ("workspace_lo", 0), ("workspace_hi", 2)],
)
def test_template_lengths_reach_max_length_and_no_further(key, at):
    """A template length of MAX_LENGTH_M loads; the next float past it, or
    below its negative, is refused."""
    past = float(np.nextafter(MAX_LENGTH_M, np.inf))
    sign = -1.0 if key == "workspace_lo" else 1.0
    for length, accepted in ((MAX_LENGTH_M, True), (past, False)):
        obj = SceneConfig().to_json()
        if at is None:
            obj[key] = sign * length
        else:
            obj[key][at] = sign * length
        if accepted:
            assert SceneConfig.from_json(obj).to_json() == obj
        else:
            with pytest.raises(ParameterError, match="scene config lengths must lie within 1000 m"):
                SceneConfig.from_json(obj)


@pytest.mark.parametrize(
    "a",
    [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -2.0),
     (0.3, -0.5, 0.8), (0.95, 0.1, -0.2)],
)
def test_rotation_aligning_turns_a_direction_to_its_opposite(a):
    a = np.array(a)
    unit = a / np.linalg.norm(a)
    r = rotation_aligning(a, -3.0 * a)
    assert r @ unit == pytest.approx(-unit, abs=1e-12)
    assert r.T @ r == pytest.approx(np.eye(3), abs=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_shipped_templates_are_the_tests_templates():
    """Each template file parses to exactly the config the tests and golden
    pins use, so an edit to a file cannot move a pin unnoticed."""
    for name, template in (("cluttered", CLUTTERED), ("single_berry", SINGLE_BERRY)):
        text = (TEMPLATES / f"{name}.json").read_text()
        assert SceneConfig.from_json(json.loads(text)) == template


def test_config_json_round_trip():
    config = SceneConfig(
        n_ripe=1,
        n_unripe=4,
        n_occluders=3,
        clutter_spacing=0.002,
        workspace_lo=(-0.05, -0.04, 0.31),
        workspace_hi=(0.05, 0.04, 0.40),
    )
    assert SceneConfig.from_json(config.to_json()) == config


def test_scene_template_json_round_trip(prior):
    scene = _generate(SceneConfig(), prior, seed=9)
    loaded = SceneTemplate.from_json(scene.to_json())
    assert _text(loaded) == _text(scene)


def _save_load(scene: SceneTemplate) -> SceneTemplate:
    return SceneTemplate.from_json(json.loads(json.dumps(scene.to_json())))


def test_cluttered_scene_with_a_renormalizing_leaf_normal_round_trips(prior):
    """Scene [11, 3, 375] of the cluttered template has a leaf normal that a
    second normalization moves in its last bit; loading keeps it as saved."""
    gen_ss = np.random.SeedSequence([11, 3, 375]).spawn(3)[0]
    scene = generate_scene(CLUTTERED, prior, np.random.Generator(np.random.Philox(gen_ss)))
    assert any(
        not np.array_equal(o.normal / np.linalg.norm(o.normal), o.normal) for o in scene.occluders
    )
    loaded = _save_load(scene)
    assert loaded == scene
    for a, b in zip(loaded.occluders, scene.occluders):
        assert a.normal.tobytes() == b.normal.tobytes()


def test_saved_scenes_load_as_saved(prior):
    """Save then load is a fixed point over 2,000 generated scenes."""
    config = SceneConfig(n_ripe=1, n_unripe=0, n_occluders=4)
    for seed in range(2000):
        scene = generate_scene(config, prior, np.random.Generator(np.random.Philox(seed)))
        assert _save_load(scene) == scene, seed


def test_loading_normalizes_a_stored_normal_that_is_not_unit(prior):
    doc = _generate(SceneConfig(n_occluders=1), prior).to_json()
    doc["occluders"][0]["normal"] = [0.0, 0.0, 2.0]
    assert SceneTemplate.from_json(doc).occluders[0].normal.tolist() == [0.0, 0.0, 1.0]


def test_scene_template_rejects_duplicate_ids():
    berry = BerryInstance(0, Pose(np.eye(3), np.array([0.0, 0.0, 0.35])), Ripeness.RIPE)
    with pytest.raises(ParameterError):
        SceneTemplate(berries=(berry, berry), occluders=(), intrinsics=CameraIntrinsics())


@pytest.mark.parametrize("instance_id", [True, "1", 1.5, 1.0, None])
def test_berry_json_takes_only_integer_ids(instance_id):
    berry = BerryInstance(1, Pose(np.eye(3), np.array([0.0, 0.0, 0.35])), Ripeness.RIPE)
    obj = SceneTemplate(berries=(berry,)).to_json()
    obj["berries"][0]["instance_id"] = instance_id
    with pytest.raises(InputError) as exc:
        SceneTemplate.from_json(obj)
    assert str(exc.value) == f"scene.berries.instance_id must be an integer, got {instance_id!r}"


def test_occluder_mesh_is_planar_fan():
    occluder = Occluder(
        center=np.array([0.01, -0.02, 0.3]),
        normal=np.array([0.0, 0.3, 1.0]),
        semi_major=0.03,
        semi_minor=0.015,
        roll_rad=0.7,
    )
    vertices, faces = occluder.mesh()
    assert vertices.shape == (25, 3)
    assert faces.shape == (24, 3)
    offsets = (vertices - occluder.center) @ occluder.normal
    assert np.abs(offsets).max() < 1e-12


def test_occluder_normalizes_normal_and_validates():
    occluder = Occluder(
        center=np.zeros(3), normal=np.array([0.0, 0.0, 2.0]), semi_major=0.02, semi_minor=0.01
    )
    assert np.linalg.norm(occluder.normal) == pytest.approx(1.0)
    with pytest.raises(ParameterError):
        Occluder(center=np.zeros(3), normal=np.zeros(3), semi_major=0.02, semi_minor=0.01)
    with pytest.raises(ParameterError):
        Occluder(center=np.zeros(3), normal=np.array([0.0, 0.0, 1.0]), semi_major=0.0, semi_minor=0.01)
