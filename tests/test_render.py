"""Ray-cast renderer checks.

The depth buffer is pinned against hand-solved ray-plane intersections first;
scene-level behavior (masks, visibility, sensor noise) is then tested on top
of that foundation.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import CLUTTERED, posed_berry, surface_bytes, surface_distance_m, traced_peak

from berrypick import (
    CameraIntrinsics,
    GeometryError,
    GroundTruth,
    InputError,
    Occluder,
    ParameterError,
    PointCloud,
    RenderParams,
    Ripeness,
    SceneConfig,
    SceneTemplate,
    generate_scene,
    render_rgbd,
    sample_ground_truth,
)
from berrypick.prior import SURFACE_POINTS
from berrypick.render import (
    _DRAW_CHUNK,
    LEAF_COLOR,
    RIPE_COLOR,
    UNRIPE_COLOR,
    _as_seedseq,
    _composite,
    _corrupt,
    _stream,
    rasterize,
)
from berrypick.types import DepthImage


def _single_berry_scene(z=0.36, ripeness=Ripeness.RIPE):
    return SceneTemplate(
        berries=(posed_berry(0, (0.0, 0.0, z), ripeness),),
        occluders=(),
        intrinsics=CameraIntrinsics(),
    )


# ---------------------------------------------------------------- rasterize


def _frame(depth, corner, w, h):
    """Paste a rasterized crop into an otherwise empty (inf) frame."""
    frame = np.full((h, w), np.inf)
    r0, c0 = corner
    frame[r0 : r0 + depth.shape[0], c0 : c0 + depth.shape[1]] = depth
    return frame


def test_rasterize_constant_depth_triangle():
    k = CameraIntrinsics()
    vertices = np.array(
        [[-0.06, -0.06, 0.5], [0.06, -0.06, 0.5], [0.0, 0.08, 0.5]]
    )
    faces = np.array([[0, 1, 2]])
    depth = _frame(*rasterize(vertices, faces, k, 640, 480), 640, 480)
    hit = np.isfinite(depth)
    assert hit.any()
    # constant-z plane: every intersection parameter is exactly 0.5
    assert np.unique(depth[hit]) == pytest.approx([0.5])


def test_rasterize_sloped_triangle_matches_plane_equation():
    k = CameraIntrinsics()
    a = np.array([-0.05, -0.05, 0.40])
    b = np.array([0.05, -0.05, 0.50])
    c = np.array([0.0, 0.05, 0.45])
    depth = _frame(*rasterize(np.stack([a, b, c]), np.array([[0, 1, 2]]), k, 640, 480), 640, 480)

    u, v = 320, 240
    assert np.isfinite(depth[v, u])
    n = np.cross(b - a, c - a)
    ray = np.array([(u - k.cx) / k.fx, (v - k.cy) / k.fy, 1.0])
    expected = float(n @ a) / float(n @ ray)
    assert depth[v, u] == pytest.approx(expected, rel=1e-12)


def test_rasterize_keeps_nearest_of_overlapping_faces():
    k = CameraIntrinsics()
    quad_near = np.array([[-0.05, -0.05, 0.4], [0.05, -0.05, 0.4], [0.0, 0.05, 0.4]])
    quad_far = np.array([[-0.05, -0.05, 0.6], [0.05, -0.05, 0.6], [0.0, 0.05, 0.6]])
    vertices = np.vstack([quad_near, quad_far])
    faces = np.array([[3, 4, 5], [0, 1, 2]])  # far face listed first
    depth = _frame(*rasterize(vertices, faces, k, 640, 480), 640, 480)
    assert depth[240, 320] == pytest.approx(0.4)


def test_rasterize_rejects_geometry_behind_camera():
    vertices = np.array([[0.0, 0.0, -0.1], [0.1, 0.0, 0.5], [0.0, 0.1, 0.5]])
    with pytest.raises(GeometryError):
        rasterize(vertices, np.array([[0, 1, 2]]), CameraIntrinsics(), 640, 480)


def test_rasterize_rejects_non_finite_vertices():
    vertices = np.array([[0.0, 0.0, 0.5], [np.nan, 0.0, 0.5], [0.0, 0.1, np.inf]])
    with pytest.raises(GeometryError):
        rasterize(vertices, np.array([[0, 1, 2]]), CameraIntrinsics(), 640, 480)


def test_rasterize_offscreen_mesh_leaves_buffer_empty():
    vertices = np.array([[10.0, 10.0, 0.5], [10.1, 10.0, 0.5], [10.0, 10.1, 0.5]])
    depth, corner = rasterize(vertices, np.array([[0, 1, 2]]), CameraIntrinsics(), 640, 480)
    assert depth.shape == (0, 0)
    assert not np.isfinite(_frame(depth, corner, 640, 480)).any()


# ---------------------------------------------------------------- render


def test_render_single_berry_mask_and_visibility(prior):
    result = render_rgbd(_single_berry_scene(), prior, RenderParams(0.0, 0.0), seed=0)
    mask = result.masks[0]
    assert mask.pixel_count() > 500
    assert result.visibility[0] == 1.0
    assert (result.rgb.values[mask.bits] == RIPE_COLOR).all()
    # nearest berry point sits at 360 - 17.5 mm from the camera
    live = result.clean_depth.values[mask.bits]
    assert 341 <= live.min() <= 345
    assert live.max() <= 361


def test_render_unripe_color(prior):
    result = render_rgbd(
        _single_berry_scene(ripeness=Ripeness.UNRIPE), prior, RenderParams(0.0, 0.0)
    )
    assert (result.rgb.values[result.masks[0].bits] == UNRIPE_COLOR).all()


def test_render_depth_points_lie_on_true_surface(prior):
    scene = _single_berry_scene()
    result = render_rgbd(scene, prior, RenderParams(0.0, 0.0))
    k = scene.intrinsics
    bits = result.masks[0].bits
    vs, us = np.nonzero(bits)
    z = result.clean_depth.values[vs, us] / 1000.0
    x = (us - k.cx) * z / k.fx
    y = (vs - k.cy) * z / k.fy
    d = surface_distance_m(prior, np.column_stack([x, y, z]), scene.berries[0].pose)
    # quantization is half a millimeter; allow pixel discretization on top
    assert d.max() < 0.0020
    assert np.median(d) < 0.0008


def test_render_ties_go_to_the_lower_instance(prior):
    scene = SceneTemplate(
        berries=(posed_berry(0, (0.0, 0.0, 0.36)), posed_berry(1, (0.0, 0.0, 0.36))),
        occluders=(),
        intrinsics=CameraIntrinsics(),
    )
    result = render_rgbd(scene, prior, RenderParams(0.0, 0.0))
    assert result.masks[0].pixel_count() > 0
    assert result.masks[1].pixel_count() == 0
    assert result.visibility[0] == 1.0
    assert result.visibility[1] == 0.0


def test_render_occluder_lowers_visibility(prior):
    # small enough that its shadow covers only part of the berry behind it
    leaf = Occluder(
        center=np.array([0.0, 0.0, 0.25]),
        normal=np.array([0.0, 0.0, 1.0]),
        semi_major=0.006,
        semi_minor=0.006,
    )
    scene = SceneTemplate(
        berries=(posed_berry(0, (0.0, 0.0, 0.36)),),
        occluders=(leaf,),
        intrinsics=CameraIntrinsics(),
    )
    result = render_rgbd(scene, prior, RenderParams(0.0, 0.0))
    assert 0.0 < result.visibility[0] < 1.0
    leaf_pixels = (result.rgb.values == LEAF_COLOR).all(axis=2)
    assert leaf_pixels.any()
    assert not (leaf_pixels & result.masks[0].bits).any()


def test_render_masks_partition_valid_pixels(prior):
    scene = generate_scene(
        SceneConfig(n_ripe=2, n_unripe=2, n_occluders=0),
        prior,
        np.random.Generator(np.random.Philox(3)),
    )
    result = render_rgbd(scene, prior, RenderParams(0.0, 0.0))
    stack = np.stack([m.bits for m in result.masks])
    assert (stack.sum(axis=0) <= 1).all()
    covered = stack.any(axis=0)
    assert (covered == (result.clean_depth.values > 0)).all()


def test_cluttered_scene_masks_hold_less_than_one_frame(prior):
    """Each mask holds its bounding-box crop, not a full frame: a cluttered
    scene's five masks take fewer bytes than one (H, W) bool frame."""
    scene = generate_scene(CLUTTERED, prior, np.random.Generator(np.random.Philox(11)))
    masks = render_rgbd(scene, prior, RenderParams(0.0, 0.0)).masks
    assert len(masks) == 5 and any(m.pixel_count() for m in masks)
    assert sum(m.crop.nbytes for m in masks) < scene.height * scene.width


def test_render_noise_statistics(prior):
    sigma = 3.0
    rate = 0.10
    clean = render_rgbd(_single_berry_scene(), prior, RenderParams(0.0, 0.0), seed=5)
    noisy = render_rgbd(_single_berry_scene(), prior, RenderParams(sigma, rate), seed=5)
    live = clean.clean_depth.values > 0

    dropped = live & (noisy.depth.values == 0)
    drop_frac = dropped.sum() / live.sum()
    assert abs(drop_frac - rate) < 0.03

    survivors = live & (noisy.depth.values > 0)
    diff = noisy.depth.values[survivors].astype(float) - clean.clean_depth.values[survivors]
    assert abs(diff.mean()) < 0.5
    assert abs(diff.std() - sigma) < 0.5


def test_render_masks_unaffected_by_noise(prior):
    a = render_rgbd(_single_berry_scene(), prior, RenderParams(3.0, 0.1), seed=1)
    b = render_rgbd(_single_berry_scene(), prior, RenderParams(3.0, 0.1), seed=2)
    assert a.masks == b.masks and a.clean_depth == b.clean_depth
    assert a.depth != b.depth


def test_render_is_deterministic_for_a_seed(prior):
    a = render_rgbd(_single_berry_scene(), prior, RenderParams(2.0, 0.05), seed=9)
    b = render_rgbd(_single_berry_scene(), prior, RenderParams(2.0, 0.05), seed=9)
    assert a == b


def test_render_takes_a_seed_sequence_as_a_value(prior):
    """One SeedSequence passed twice draws the same noise twice, the draw a
    fresh copy of it gives, and the caller's object spawns nothing."""
    scene = _single_berry_scene()
    params = RenderParams(2.0, 0.05)
    ss = np.random.SeedSequence(21).spawn(2)[1]
    a, b = (render_rgbd(scene, prior, params, seed=ss) for _ in range(2))
    fresh = render_rgbd(scene, prior, params, seed=np.random.SeedSequence(21, spawn_key=(1,)))
    assert a == b == fresh
    assert ss.n_children_spawned == 0


def _one_shot_corrupt(clean: np.ndarray, params: RenderParams, seed) -> np.ndarray:
    """_corrupt with each stream's live span drawn in one call: the Gaussians
    up to the last live pixel, the uniforms from the first rounded down to a
    multiple of 4."""
    noise_ss, drop_ss = _as_seedseq(seed).spawn(2)
    noisy = clean.copy()
    flat = noisy.reshape(-1)
    live = np.flatnonzero(flat)
    if not len(live):
        return noisy
    if params.noise_sigma_mm > 0:
        jitter = _stream(noise_ss).normal(0.0, params.noise_sigma_mm, size=live[-1] + 1)
        flat[live] = np.clip(np.rint(flat[live] + jitter[live]), 0, 65535).astype(np.uint16)
    if params.dropout_rate > 0:
        start = int(live[0]) // 4 * 4
        draw = _stream(drop_ss)
        draw.bit_generator.advance(start // 4)
        uniform = draw.random(live[-1] + 1 - start)
        flat[live[uniform[live - start] < params.dropout_rate]] = 0
    return noisy


def _depth_frame(live_cells, shape=(300, 400)) -> np.ndarray:
    frame = np.zeros(shape, dtype=np.uint16)
    frame.reshape(-1)[np.asarray(live_cells, dtype=np.int64)] = 400 + np.arange(len(live_cells))
    return frame


_C = _DRAW_CHUNK
_LIVE_FRAMES = {
    # spans that start, end and hold pixels on both sides of chunk edges
    "across-edges": [_C - 1, _C, 2 * _C - 3, 2 * _C, 2 * _C + 1, 3 * _C + 7],
    "one-edge": [_C - 2, _C + 2],
    "block": list(range(_C - 500, 2 * _C + 500, 3)),
    "edge-start": [2 * _C, 2 * _C + 9, 3 * _C - 1],
    "only-last": [300 * 400 - 1],
    "only-first": [0],
    "none": [],
}


@pytest.mark.parametrize("params", [RenderParams(2.0, 0.05), RenderParams(0.0, 0.3),
                                    RenderParams(3.0, 0.0), RenderParams(0.0, 0.0)],
                         ids=["both", "no-noise", "no-dropout", "neither"])
@pytest.mark.parametrize("name", sorted(_LIVE_FRAMES))
def test_chunked_corrupt_equals_one_shot_draw(name, params):
    clean = _depth_frame(_LIVE_FRAMES[name])
    for seed in (0, 7, np.random.SeedSequence(3, spawn_key=(1,))):
        out = _corrupt(DepthImage(values=clean), params, seed).values
        assert np.array_equal(out, _one_shot_corrupt(clean, params, seed))


@pytest.fixture(scope="module")
def cluttered_frame(prior):
    """The 640x480 cluttered scene at seed 11 and its clean composite."""
    scene = generate_scene(CLUTTERED, prior, np.random.Generator(np.random.Philox(11)))
    return scene, _composite(scene, prior)


def test_corrupt_holds_at_most_one_chunk_of_draws(cluttered_frame):
    """Drawing this frame's live span in one call peaks at about 5.1 MB;
    drawing it a chunk at a time, at about 1.2 MB."""
    _, (_, clean, _, _) = cluttered_frame
    assert clean.values.shape == (480, 640) and np.count_nonzero(clean.values)
    for params in (RenderParams(), RenderParams(2.0, 0.05)):
        assert traced_peak(_corrupt, clean, params, 5) < 2_000_000


def test_rgb_holds_less_than_one_frame(cluttered_frame):
    """The rendered RGB holds its drawn crop, and builds the frame it stands for."""
    scene, (rgb, clean, _, _) = cluttered_frame
    assert rgb.crop.nbytes < scene.height * scene.width * 3
    values = rgb.values
    assert values.shape == (scene.height, scene.width, 3)
    assert ((values != 0).any(axis=2) == (clean.values > 0)).all()


def test_render_params_validation():
    with pytest.raises(ParameterError):
        RenderParams(noise_sigma_mm=-1.0)
    with pytest.raises(ParameterError):
        RenderParams(dropout_rate=1.0)
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            RenderParams(noise_sigma_mm=sigma)


# ---------------------------------------------------------------- ground truth


def test_ground_truth_per_instance_sampling(prior):
    scene = SceneTemplate(
        berries=(posed_berry(0, (0.0, 0.02, 0.35)), posed_berry(1, (0.04, 0.0, 0.40))),
        occluders=(),
        intrinsics=CameraIntrinsics(),
    )
    truth = sample_ground_truth(scene, prior, seed=4)
    assert [inst.instance_id for inst in truth.instances] == [0, 1]
    for berry, inst in zip(scene.berries, truth.instances):
        assert len(inst.surface) == SURFACE_POINTS
        assert inst.surface.centroid() == pytest.approx(
            berry.pose.translation, abs=0.002
        )


def test_ground_truth_deterministic_and_round_trips(prior):
    scene = _single_berry_scene()
    a = sample_ground_truth(scene, prior, seed=8)
    b = sample_ground_truth(scene, prior, seed=8)
    assert a == b
    assert surface_bytes(a) == surface_bytes(b)
    loaded = GroundTruth.of(scene, [inst.surface for inst in a.instances])
    assert loaded == a
    assert surface_bytes(loaded) == surface_bytes(a)


def test_ground_truth_takes_a_seed_sequence_as_a_value(prior):
    scene = _single_berry_scene()
    ss = np.random.SeedSequence(8).spawn(3)[2]
    a, b = (sample_ground_truth(scene, prior, seed=ss) for _ in range(2))
    fresh = sample_ground_truth(scene, prior, seed=np.random.SeedSequence(8, spawn_key=(2,)))
    assert a == b == fresh
    assert surface_bytes(a) == surface_bytes(b) == surface_bytes(fresh)
    assert ss.n_children_spawned == 0


def test_ground_truth_radius_is_the_farthest_surface_point(prior):
    (inst,) = sample_ground_truth(_single_berry_scene(), prior, seed=0).instances
    distances = np.linalg.norm(inst.surface.xyz - inst.pose.translation, axis=1)
    assert inst.radius == distances.max() and inst.radius is inst.radius


def test_ground_truth_lookup_by_id(prior):
    truth = sample_ground_truth(_single_berry_scene(), prior, seed=0)
    assert truth.instance(0).instance_id == 0
    with pytest.raises(KeyError):
        truth.instance(99)


@pytest.mark.parametrize("instance_id", [True, "0", 0.5, 0.0, None])
def test_ground_truth_json_takes_only_integer_ids(prior, instance_id):
    """A truth takes its ids from its scene, so the only JSON that gives it
    ids is the scene's, which refuses any id that is not an integer."""
    obj = _single_berry_scene().to_json()
    obj["berries"][0]["instance_id"] = instance_id
    with pytest.raises(InputError) as exc:
        GroundTruth.of(SceneTemplate.from_json(obj), [PointCloud(xyz=np.zeros((1, 3)))])
    assert str(exc.value) == f"scene.berries.instance_id must be an integer, got {instance_id!r}"


def test_ground_truth_rejects_duplicate_ids(prior):
    (inst,) = sample_ground_truth(_single_berry_scene(), prior, seed=0).instances
    with pytest.raises(ParameterError, match="instance 0 appears more than once"):
        GroundTruth(instances=(inst, inst))
