"""Exact round trips for every on-disk format, and honest failures for
malformed input."""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from conftest import CLUTTERED, flipped, surface_bytes, traced_peak
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from berrypick import (
    BerryInstance,
    CameraIntrinsics,
    DepthImage,
    GroundTruth,
    InputError,
    InstanceMask,
    MetricsReport,
    Occluder,
    ParameterError,
    PipelineConfig,
    PointCloud,
    Pose,
    RenderParams,
    Ripeness,
    SceneArtifacts,
    SceneConfig,
    SceneTemplate,
    StorageError,
    generate_scene,
    render_scene_artifacts,
)
from berrypick.io_formats import (
    load_artifacts,
    read_json,
    read_pgm16,
    read_ply,
    read_ppm,
    save_artifacts,
    write_json,
    write_pgm16,
    write_ply,
    write_ppm,
)
from berrypick.prior import SURFACE_POINTS
from berrypick.types import RgbImage


def _scene(prior, seed=0):
    cfg = SceneConfig(n_ripe=1, n_unripe=1, n_occluders=1)
    return generate_scene(cfg, prior, np.random.Generator(np.random.Philox(seed)))


# ---------------------------------------------------------------- PLY


def test_ply_round_trip_is_bit_exact(tmp_path):
    cloud = PointCloud(xyz=np.random.default_rng(0).normal(size=(57, 3)))
    path = str(tmp_path / "cloud.ply")
    write_ply(path, cloud)
    assert read_ply(path) == cloud


def test_ply_without_colors(tmp_path):
    cloud = PointCloud(xyz=np.array([[1e-300, -2.5, 3.0]]))
    path = tmp_path / "plain.ply"
    write_ply(str(path), cloud)
    header = path.read_text().split("end_header")[0]
    assert [line.split()[-1] for line in header.splitlines() if line.startswith("property")] == [
        "x", "y", "z"
    ]
    assert read_ply(str(path)) == cloud


_COLOURED_PLY = (
    "ply\nformat ascii 1.0\nelement vertex 2\n"
    "property double x\nproperty double y\nproperty double z\n"
    "property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n"
    "0.5 -0.25 0.125 255 0 7\n{row}\n"
)


def test_ply_colour_properties_are_read_and_ignored(tmp_path):
    path = tmp_path / "coloured.ply"
    # any integer colour passes: colours are dropped, never cast to uchar
    path.write_text(_COLOURED_PLY.format(row="1.0 2.0 3.0 10 20 300"))
    loaded = read_ply(str(path))
    assert np.array_equal(loaded.xyz, [[0.5, -0.25, 0.125], [1.0, 2.0, 3.0]])


def test_ply_header_comments_and_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "commented.ply"
    path.write_text(
        "ply\nformat ascii 1.0\ncomment made by hand\n\nelement vertex 1\n"
        "property double x\nproperty double y\nproperty double z\nend_header\n1 2 3\n"
    )
    assert np.array_equal(read_ply(str(path)).xyz, [[1.0, 2.0, 3.0]])


def test_ply_empty_cloud(tmp_path):
    path = str(tmp_path / "empty.ply")
    write_ply(path, PointCloud.empty())
    assert len(read_ply(path)) == 0


@pytest.mark.parametrize(
    "text",
    [
        "solid not_a_ply\n",
        "ply\nformat binary_little_endian 1.0\nelement vertex 0\nend_header\n",
        "ply\nformat ascii 1.0\nelement face 1\nproperty list uchar int vertex_indices\n"
        "end_header\n3 0 1 2\n",
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property double x\nproperty double y\nproperty double z\nend_header\n0 0 0\n",
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property double y\nproperty double x\nproperty double z\nend_header\n0 0 0\n",
        "ply\nformat ascii 1.0\n",
        _COLOURED_PLY.format(row="1.0 2.0 3.0 10 2.5 30"),
        _COLOURED_PLY.format(row="1.0 2.0 3.0 10 20 red"),
        _COLOURED_PLY.format(row="1.0 2.0 3.0 10 20"),
    ],
)
def test_ply_malformed_inputs(tmp_path, text):
    path = tmp_path / "bad.ply"
    path.write_text(text)
    with pytest.raises(InputError):
        read_ply(str(path))


@pytest.mark.parametrize(
    "header",
    [
        "ply\nformat\n",  # cut off after the format keyword
        "ply\nformat ascii 1.0\nelement vertex x\nend_header\n",
        "ply\nformat ascii 1.0\nelement vertex\nend_header\n",
        "ply\nformat ascii 1.0\nelement vertex 1\nproperty double\nend_header\n0\n",
    ],
)
def test_ply_malformed_header_lines(tmp_path, header):
    path = tmp_path / "bad.ply"
    path.write_text(header)
    with pytest.raises(InputError, match="malformed PLY header line"):
        read_ply(str(path))


def test_ply_missing_file(tmp_path):
    with pytest.raises(InputError):
        read_ply(str(tmp_path / "nope.ply"))


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
def test_ply_non_finite_coordinate_is_input_error_naming_the_file(tmp_path, value):
    # Regression: a non-finite coordinate escaped as the ParameterError
    # "point coordinates must be finite", which named no file.
    path = tmp_path / "nan.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\n"
                    "property double y\nproperty double z\nend_header\n"
                    f"0 0 0.3\n{value} 0 0.3\n")
    with pytest.raises(InputError) as err:
        read_ply(str(path))
    assert str(err.value) == f"{path}: non-finite coordinate in vertex row 2: '{value} 0 0.3'"


@st.composite
def _mutated_ply(draw):
    """A valid PLY file's bytes with one mutation, truncation, one to three
    flipped bytes or a coordinate replaced by NaN or an infinity, and whether
    the mutation must make it invalid. A cut or flip may leave it valid (say,
    a cut final newline or a changed digit); a non-finite value never does."""
    rng = np.random.default_rng(draw(st.integers(0, 3)))
    rows = rng.normal(size=(draw(st.integers(1, 6)), 3))
    header = f"ply\nformat ascii 1.0\nelement vertex {len(rows)}\n"
    header += "".join(f"property double {axis}\n" for axis in "xyz") + "end_header\n"
    body = [[repr(float(v)) for v in row] for row in rows]
    kind = draw(st.sampled_from(["truncate", "flip", "non-finite"]))
    if kind == "non-finite":
        at = draw(st.integers(0, 3 * len(rows) - 1))
        body[at // 3][at % 3] = draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity",
                                                      "-1e400"]))
    data = (header + "".join(" ".join(row) + "\n" for row in body)).encode("ascii")
    if kind == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif kind == "flip":
        data = flipped(draw, data)
    return bytes(data), kind == "non-finite"


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_mutated_ply())
def test_mutated_ply_is_input_error_or_valid(tmp_path_factory, mutated):
    data, must_fail = mutated
    path = tmp_path_factory.mktemp("ply") / "cloud.ply"
    path.write_bytes(data)
    try:
        cloud = read_ply(str(path))
    except InputError:
        return
    assert not must_fail, "a non-finite coordinate loaded"
    assert cloud.xyz.shape[1:] == (3,) and np.isfinite(cloud.xyz).all()


# ---------------------------------------------------------------- PGM / PPM


def test_pgm16_round_trip(tmp_path):
    values = np.random.default_rng(1).integers(0, 65536, size=(24, 31), dtype=np.uint16)
    path = str(tmp_path / "depth.pgm")
    write_pgm16(path, values)
    assert np.array_equal(read_pgm16(path), values)


def test_pgm16_header_comments_are_skipped(tmp_path):
    payload = np.array([[1000]], dtype=">u2").tobytes()
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n1 1\n65535\n" + payload)
    assert read_pgm16(str(path))[0, 0] == 1000


def test_pgm16_rejects_wrong_depth_and_truncation(tmp_path):
    eight_bit = tmp_path / "8bit.pgm"
    eight_bit.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(InputError):
        read_pgm16(str(eight_bit))
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n2 2\n65535\n\x00\x01")
    with pytest.raises(InputError):
        read_pgm16(str(short))


def test_pgm16_refuses_bytes_after_the_payload(tmp_path):
    # Regression: the payload the header announced was read and any bytes
    # after it ignored, so this file loaded as [[1 2]].
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n2 1\n65535\n\x00\x01\x00\x02GARBAGE")
    with pytest.raises(InputError, match=f"{path}: 11 payload bytes, but the 2x1 header gives 4"):
        read_pgm16(str(path))


@pytest.mark.parametrize("data", [b"P5", b"P5\n", b"P5\n4 x\n65535\n", b"P5\n-1 1\n65535\n"])
def test_pgm16_malformed_header(tmp_path, data):
    path = tmp_path / "cut.pgm"
    path.write_bytes(data)
    with pytest.raises(InputError, match="malformed header field"):
        read_pgm16(str(path))


@pytest.mark.parametrize("value", [300, -1, 1.5], ids=["300", "-1", "1.5"])
def test_rgb_image_refuses_values_outside_8_bits(value):
    with pytest.raises(ParameterError, match="8-bit"):
        RgbImage(crop=np.full((1, 1, 3), value))


def test_rgb_image_casts_integers_within_8_bits():
    image = RgbImage(crop=np.array([[[0, 128, 255]]], dtype=np.int64))
    assert image.values.dtype == np.uint8 and image.values.tolist() == [[[0, 128, 255]]]


def test_ppm_round_trip(tmp_path):
    values = np.random.default_rng(2).integers(0, 256, size=(8, 9, 3), dtype=np.uint8)
    path = str(tmp_path / "img.ppm")
    write_ppm(path, RgbImage(crop=values))
    assert np.array_equal(read_ppm(path).values, values)


def test_ppm_round_trip_of_a_black_frame(tmp_path):
    rgb = RgbImage(crop=np.zeros((5, 4, 3), dtype=np.uint8))
    assert (rgb.crop.shape, rgb.offset, rgb.shape) == ((0, 0, 3), (0, 0), (5, 4))
    path = tmp_path / "black.ppm"
    write_ppm(str(path), rgb)
    assert path.read_bytes() == b"P6\n4 5\n255\n" + bytes(5 * 4 * 3)
    assert read_ppm(str(path)) == rgb


@pytest.mark.parametrize("row, col", [(0, 0), (0, 8), (6, 0), (6, 8)])
def test_ppm_round_trip_of_one_pixel_in_a_corner(tmp_path, row, col):
    values = np.zeros((7, 9, 3), dtype=np.uint8)
    values[row, col] = (0, 1, 200)
    rgb = RgbImage(crop=values)
    assert (rgb.crop.shape, rgb.offset) == ((1, 1, 3), (row, col))
    path = tmp_path / "corner.ppm"
    write_ppm(str(path), rgb)
    assert path.read_bytes() == b"P6\n9 7\n255\n" + values.tobytes()
    loaded = read_ppm(str(path))
    assert loaded == rgb and np.array_equal(loaded.values, values)


def test_image_writers_write_the_bytes_of_the_whole_frame(tmp_path):
    """A depth map passed as a column-major view, and an RGB image drawn in
    a window away from every edge and written over several bands, keep the
    bytes of their frames written whole."""
    rng = np.random.default_rng(6)
    depth = rng.integers(0, 65536, size=(150, 700), dtype=np.uint16)
    write_pgm16(str(tmp_path / "d.pgm"), np.asfortranarray(depth))
    expected = b"P5\n700 150\n65535\n" + depth.astype(">u2").tobytes()
    assert (tmp_path / "d.pgm").read_bytes() == expected
    assert np.array_equal(read_pgm16(str(tmp_path / "d.pgm")), depth)

    values = np.zeros((150, 700, 3), dtype=np.uint8)
    values[40:131, 3:650] = rng.integers(0, 256, size=(91, 647, 3))
    write_ppm(str(tmp_path / "c.ppm"), RgbImage(crop=values))
    assert (tmp_path / "c.ppm").read_bytes() == b"P6\n700 150\n255\n" + values.tobytes()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"crop": np.ones((2, 2, 3)), "offset": (1, 0), "shape": (2, 2)},
        {"crop": np.ones((2, 2, 3)), "offset": (0, -1), "shape": (3, 3)},
        {"crop": np.ones((2, 2)), "shape": (2, 2)},
        {"crop": np.ones((2, 2, 4))},
    ],
    ids=["past-edge", "negative", "2-d", "4-channel"],
)
def test_rgb_image_refuses_malformed_arguments(kwargs):
    with pytest.raises(ParameterError):
        RgbImage(**kwargs)


def test_ppm_rejects_pgm_magic(tmp_path):
    path = tmp_path / "magic.ppm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(InputError):
        read_ppm(str(path))


def test_header_dimension_past_2_31_is_input_error(tmp_path):
    # Regression: a zero-pixel image with a 10**20-row header matched its
    # empty payload, and the reshape ended in a ValueError.
    path = tmp_path / "tall.pgm"
    path.write_bytes(b"P5\n0 100000000000000000000\n65535\n")
    with pytest.raises(InputError, match="^" + re.escape(
            f"{path}: 0x100000000000000000000 image is too large")):
        read_pgm16(str(path))


_NETPBM = {"pgm": (b"P5", 65535, 1, 2), "ppm": (b"P6", 255, 3, 1)}


@st.composite
def _mutated_netpbm(draw, kind_of_file):
    """A valid binary PGM or PPM with one mutation, and whether that mutation
    must make it invalid. A flipped byte may leave it valid (say, a changed
    sample); a cut, an extension or a header whose size the payload does
    not match never does."""
    magic, maxval, channels, itemsize = _NETPBM[kind_of_file]
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    payload = draw(st.binary(min_size=w * h * channels * itemsize,
                             max_size=w * h * channels * itemsize))
    comment = draw(st.sampled_from([b"", b"# a comment\n", b"#\n# two\n"]))
    kind = draw(st.sampled_from(["valid", "truncate", "flip", "extend", "dimensions"]))
    if kind == "dimensions":
        w, h = (draw(st.sampled_from([0, 1, 7, 2**31 - 1, 2**31, 10**20])) for _ in range(2))
        if w * h == 0:
            payload = b""
    data = magic + b"\n" + comment + f"{w} {h}\n{maxval}\n".encode() + payload
    must_fail = kind in ("truncate", "extend") or (
        kind == "dimensions" and (w * h * channels * itemsize != len(payload) or max(w, h) >= 2**31)
    )
    if kind == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif kind == "extend":
        data += draw(st.binary(min_size=1, max_size=8))
    elif kind == "flip":
        data = flipped(draw, data)
    return bytes(data), must_fail


@pytest.mark.parametrize("kind_of_file", ["pgm", "ppm"])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_netpbm_is_input_error_naming_it_or_valid(tmp_path_factory, kind_of_file, data):
    raw, must_fail = data.draw(_mutated_netpbm(kind_of_file))
    path = tmp_path_factory.mktemp("pnm") / f"image.{kind_of_file}"
    path.write_bytes(raw)
    try:
        if kind_of_file == "pgm":
            values = read_pgm16(str(path))
        else:
            values = read_ppm(str(path)).values
    except InputError as exc:
        assert str(exc).startswith(f"{path}: "), exc
        return
    assert not must_fail, "a malformed image loaded"
    assert values.dtype == (np.uint16 if kind_of_file == "pgm" else np.uint8)
    assert values.ndim == (2 if kind_of_file == "pgm" else 3)


# ---------------------------------------------------------------- masks


def _labelled(labels: np.ndarray, n: int) -> SceneArtifacts:
    """Artifacts of a blank frame of labels' size with n berries, where berry
    k (id 10 * k, ripe when k is odd) owns the pixels labelled k."""
    h, w = labels.shape
    berries = [(10 * k, Ripeness.RIPE if k % 2 else Ripeness.UNRIPE) for k in range(1, n + 1)]
    scene = SceneTemplate(
        berries=tuple(
            BerryInstance(i, Pose(translation=np.array([0.01 * k, 0.0, 0.3])), r)
            for k, (i, r) in enumerate(berries)
        ),
        intrinsics=CameraIntrinsics(cx=0.0, cy=0.0),
        width=w,
        height=h,
    )
    rng = np.random.default_rng(n)
    return SceneArtifacts(
        scene=scene,
        rgb=RgbImage(crop=np.zeros((h, w, 3), dtype=np.uint8)),
        depth=DepthImage(values=np.zeros((h, w), dtype=np.uint16)),
        masks=tuple(
            InstanceMask(crop=labels == k, instance_id=i, ripeness=r)
            for k, (i, r) in enumerate(berries, start=1)
        ),
        truth=GroundTruth.of(
            scene, [PointCloud(xyz=rng.normal(size=(SURFACE_POINTS, 3))) for _ in berries]
        ),
    )


def _pixel(shape, row, col) -> np.ndarray:
    bits = np.zeros(shape, dtype=bool)
    bits[row, col] = True
    return bits


_FRAMES = hnp.arrays(np.bool_, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=9))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_FRAMES)
@example(np.zeros((4, 5), dtype=bool))
@example(np.ones((4, 5), dtype=bool))
@example(_pixel((4, 5), 2, 3))
@example(_pixel((4, 5), 0, 2))  # one per frame edge: top, bottom, left, right
@example(_pixel((4, 5), 3, 2))
@example(_pixel((4, 5), 1, 0))
@example(_pixel((4, 5), 1, 4))
def test_instance_mask_holds_a_tight_crop_of_its_frame(bits):
    mask = InstanceMask(crop=bits, instance_id=3, ripeness=Ripeness.RIPE)
    assert mask.bits.dtype == np.bool_ and np.array_equal(mask.bits, bits)
    assert mask.pixel_count() == bits.sum() and mask.shape == bits.shape
    crop = mask.crop
    if bits.any():
        assert crop[0].any() and crop[-1].any() and crop[:, 0].any() and crop[:, -1].any()
    else:
        assert crop.shape == (0, 0) and mask.offset == (0, 0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_masks_are_equal_exactly_when_their_frames_and_labels_are(data):
    a_bits = data.draw(_FRAMES)
    flipped = a_bits.copy()
    flipped.flat[:1] ^= True  # a one-pixel change, when the frame has a pixel
    b_bits = data.draw(st.sampled_from([a_bits.copy(), flipped]) | _FRAMES)
    labels = st.tuples(st.sampled_from([1, 2]), st.sampled_from(Ripeness))
    (a_id, a_ripeness), (b_id, b_ripeness) = data.draw(labels), data.draw(labels)
    a = InstanceMask(crop=a_bits, instance_id=a_id, ripeness=a_ripeness)
    b = InstanceMask(crop=b_bits, instance_id=b_id, ripeness=b_ripeness)
    same = (
        a_bits.shape == b_bits.shape and np.array_equal(a_bits, b_bits)
        and (a_id, a_ripeness) == (b_id, b_ripeness)
    )
    assert (a == b) is same and (b == a) is same and (a != b) is not same


def test_instance_mask_crops_a_window_placed_in_its_frame():
    window = np.zeros((3, 4), dtype=bool)
    window[1, 1:3] = True
    mask = InstanceMask(crop=window, offset=(2, 5), shape=(6, 9), instance_id=1,
                        ripeness=Ripeness.UNRIPE)
    assert (mask.offset, mask.crop.shape, mask.pixel_count()) == ((3, 6), (1, 2), 2)
    expected = np.zeros((6, 9), dtype=bool)
    expected[3, 6:8] = True
    assert np.array_equal(mask.bits, expected)
    relabelled = dataclasses.replace(mask, ripeness=Ripeness.RIPE)
    assert relabelled.offset == (3, 6) and np.array_equal(relabelled.bits, expected)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"crop": np.ones((2, 2)), "offset": (1, 0), "shape": (2, 2)},
        {"crop": np.ones((2, 2)), "offset": (-1, 0), "shape": (3, 3)},
        {"crop": np.ones((2, 2, 2))},
    ],
    ids=["past-edge", "negative", "3-d"],
)
def test_instance_mask_refuses_malformed_arguments(kwargs):
    with pytest.raises(ParameterError):
        InstanceMask(**kwargs, instance_id=1, ripeness=Ripeness.RIPE)


def test_mask_round_trip(tmp_path, prior):
    """A berry out of the frame renders a zero-pixel mask, and it comes back
    in its place among the others."""
    scene = SceneTemplate(
        berries=tuple(
            BerryInstance(i, Pose(translation=np.array(center)), ripeness)
            for i, center, ripeness in [
                (4, (-0.03, 0.0, 0.36), Ripeness.RIPE),
                (7, (1.0, 0.0, 0.36), Ripeness.UNRIPE),
                (2, (0.03, 0.0, 0.36), Ripeness.UNRIPE),
            ]
        )
    )
    artifacts = render_scene_artifacts(scene, prior)
    assert [m.pixel_count() > 0 for m in artifacts.masks] == [True, False, True]
    save_artifacts(str(tmp_path), artifacts)
    assert load_artifacts(str(tmp_path)).masks == artifacts.masks


@pytest.mark.parametrize("seed", range(6))
def test_mask_pgm_bytes_match_the_where_encoding(tmp_path, seed):
    rng = np.random.default_rng(seed)
    h, w = (int(v) for v in rng.integers(1, 60, 2))
    n = int(rng.integers(1, 5))
    labels = rng.integers(0, n + 1, size=(h, w)) * (rng.random((h, w)) < rng.random())
    artifacts = _labelled(labels, n)
    if seed % 2:  # strided, non-contiguous views
        views = [np.ascontiguousarray(m.bits.T).T for m in artifacts.masks]
        assert not views[0].flags.c_contiguous
        masks = [InstanceMask(crop=v, instance_id=m.instance_id, ripeness=m.ripeness)
                 for v, m in zip(views, artifacts.masks)]
        artifacts = dataclasses.replace(artifacts, masks=tuple(masks))
    save_artifacts(str(tmp_path), artifacts)
    encoded = sum(np.where(m.bits, k, 0) for k, m in enumerate(artifacts.masks, start=1))
    expected = f"P5\n{w} {h}\n65535\n".encode("ascii") + encoded.astype(">u2").tobytes()
    assert (tmp_path / "masks.pgm").read_bytes() == expected
    assert load_artifacts(str(tmp_path)).masks == artifacts.masks


def test_a_scene_directory_holds_five_files(tmp_path, prior):
    save_artifacts(str(tmp_path), render_scene_artifacts(_scene(prior), prior))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "depth.pgm", "ground_truth.f64", "masks.pgm", "rgb.ppm", "scene.json"
    ]


def test_save_artifacts_builds_no_image_beyond_a_frame_and_the_labels(tmp_path, prior):
    """Saving the 640x480 cluttered scene allocates, at its peak, less than
    one RGB frame and the masks' label image together: the RGB is written a
    band at a time, each 16-bit image through one big-endian copy, and the
    surfaces as they are held."""
    scene = generate_scene(CLUTTERED, prior, np.random.Generator(np.random.Philox(11)))
    artifacts = render_scene_artifacts(scene, prior, RenderParams(2.0, 0.05), 1, 2)
    peak = traced_peak(save_artifacts, str(tmp_path), artifacts)
    h, w = scene.height, scene.width
    assert (h, w) == (480, 640) and peak < h * w * 3 + h * w * 2
    assert load_artifacts(str(tmp_path)) == artifacts


def _edit(index, field, value):
    """Sets item `index`'s `field` to value(item), in a tuple of masks or of
    truth instances."""
    def edit(items):
        changed = dataclasses.replace(items[index], **{field: value(items[index])})
        return items[:index] + (changed,) + items[index + 1 :]
    return edit


def _edit_bits(index, value):
    """Rebuilds mask `index` from value(its full-frame bits)."""
    def edit(masks):
        m = masks[index]
        changed = InstanceMask(crop=value(m.bits), instance_id=m.instance_id, ripeness=m.ripeness)
        return masks[:index] + (changed,) + masks[index + 1 :]
    return edit


_ONE_PER_BERRY = "one frame-sized mask per berry, in berries order"


@pytest.mark.parametrize(
    "edit, message",
    [
        (_edit_bits(1, lambda bits: bits | (np.arange(3) == 1)), "masks overlap"),
        (lambda masks: masks[::-1], _ONE_PER_BERRY),
        (lambda masks: masks[:1], _ONE_PER_BERRY),
        (_edit(0, "ripeness", lambda m: Ripeness.UNRIPE), _ONE_PER_BERRY),
        (_edit(0, "instance_id", lambda m: 11), _ONE_PER_BERRY),
        (_edit_bits(0, lambda bits: bits[:, :2]), _ONE_PER_BERRY),
    ],
    ids=["overlap", "reversed", "missing", "ripeness", "instance-id", "frame"],
)
def test_save_artifacts_refuses_masks_it_cannot_store(tmp_path, edit, message):
    artifacts = _labelled(np.array([[0, 1, 1], [2, 2, 0]]), 2)
    out = tmp_path / "scene"
    edited = dataclasses.replace(artifacts, masks=edit(artifacts.masks))
    with pytest.raises(ParameterError, match=message):
        save_artifacts(str(out), edited)
    assert not out.exists()


_ONE_SURFACE_PER_BERRY = f"one {SURFACE_POINTS}-point surface per berry, in berries order"


@pytest.mark.parametrize(
    "edit",
    [
        lambda instances: instances[::-1],
        _edit(0, "instance_id", lambda t: 11),
        _edit(1, "pose", lambda t: Pose(translation=t.pose.translation + [0.0, 0.0, 1e-3])),
        _edit(0, "surface", lambda t: PointCloud(xyz=t.surface.xyz[1:])),
    ],
    ids=["reversed", "instance-id", "pose", "4095-points"],
)
def test_save_artifacts_refuses_truth_it_cannot_store(tmp_path, edit):
    """ground_truth.f64 stores surfaces alone and load_artifacts takes each
    berry's id and pose from scene.json, so a truth that disagrees with the
    scene cannot be stored."""
    artifacts = _labelled(np.array([[0, 1, 1], [2, 2, 0]]), 2)
    out = tmp_path / "scene"
    truth = GroundTruth(instances=edit(artifacts.truth.instances))
    with pytest.raises(ParameterError, match=_ONE_SURFACE_PER_BERRY):
        save_artifacts(str(out), dataclasses.replace(artifacts, truth=truth))
    assert not out.exists()


_LABELS = np.array([[0, 1, 1, 0, 3], [2, 2, 0, 3, 3], [0, 0, 0, 0, 1]])


@st.composite
def _mutated_label_image(draw):
    """_LABELS' masks.pgm with one mutation, and whether that mutation must
    make it invalid. A flipped byte may leave it valid (say, a label moved
    to another berry); the other mutations never do."""
    header, payload = b"P5\n5 3\n65535\n", _LABELS.astype(">u2").tobytes()
    kind = draw(st.sampled_from(["truncate", "extend", "flip", "maxval-255", "label-above"]))
    if kind == "truncate":
        data = (header + payload)[: draw(st.integers(0, len(header + payload) - 1))]
    elif kind == "extend":
        data = header + payload + draw(st.binary(min_size=1, max_size=32))
    elif kind == "flip":
        data = flipped(draw, header + payload)
    elif kind == "maxval-255":
        data = b"P5\n5 3\n255\n" + payload[: draw(st.sampled_from([15, 30]))]
    else:
        labels = _LABELS.copy()
        labels.flat[draw(st.integers(0, labels.size - 1))] = draw(st.integers(4, 65535))
        data = header + labels.astype(">u2").tobytes()
    return bytes(data), kind != "flip"


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_mutated_label_image())
def test_mutated_label_image_is_input_error_or_valid(tmp_path_factory, mutated):
    data, must_fail = mutated
    folder = tmp_path_factory.mktemp("scene")
    save_artifacts(str(folder), _labelled(_LABELS, 3))
    (folder / "masks.pgm").write_bytes(data)
    try:
        masks = load_artifacts(str(folder)).masks
    except InputError:
        return
    assert not must_fail, "a malformed masks.pgm loaded"
    assert [m.instance_id for m in masks] == [10, 20, 30]
    assert np.sum([m.bits for m in masks], axis=0).max() <= 1


def _leaf_paths(value, path=()):
    """The key path of every number and string in a JSON value."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _leaf_paths(v, path + (k,))]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _leaf_paths(v, path + (i,))]
    return [path]


def _set_at(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@st.composite
def _mutated_scene_document(draw):
    """_labelled(_LABELS, 3)'s scene.json with one mutation, and whether that
    mutation must make it invalid. A flipped byte may leave it valid (say, a
    changed digit of a coordinate); the other mutations never do. An extra
    key goes in at the top level, in the intrinsics, in a berry or in an
    occluder added for it."""
    doc = _labelled(_LABELS, 3).scene.to_json()
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    kind = draw(st.sampled_from(
        ["truncate", "flip", "non-finite", "swap", "remove", "nest", "extra"]
    ))
    if kind == "truncate":
        return text.encode("utf-8")[: draw(st.integers(0, len(text) - 3))], True
    if kind == "flip":
        return flipped(draw, text.encode("utf-8")), False
    berry = doc["berries"][draw(st.integers(0, len(doc["berries"]) - 1))]
    if kind == "extra":
        leaf = Occluder(np.array([0.0, 0.0, 0.2]), np.array([0.0, 0.0, 1.0]), 0.01, 0.01)
        doc["occluders"] = [leaf.to_json()]
        parts = {"top": doc, "intrinsics": doc["intrinsics"], "berry": berry,
                 "occluder": doc["occluders"][0]}
        part = parts[draw(st.sampled_from(sorted(parts)))]
        key = draw(st.sampled_from(["camera_model", "scale", "skew", "thickness"]))
        part[key] = draw(st.sampled_from([0, 1.5, "x", None, [], {}]))
    elif kind == "swap":
        a, b = draw(st.lists(st.sampled_from(sorted(berry)), min_size=2, max_size=2,
                             unique=True))
        berry[a], berry[b] = berry[b], berry[a]
    elif kind == "remove":
        del berry[draw(st.sampled_from(sorted(berry)))]
    else:
        numbers = [p for p in _leaf_paths(doc) if p[-1] != "ripeness"]
        path = draw(st.sampled_from([()] + numbers if kind == "nest" else numbers))
        if kind == "non-finite":
            _set_at(doc, path, draw(st.sampled_from([math.nan, math.inf, -math.inf])))
        else:
            depth = draw(st.sampled_from([2, 3, 64, 500, 990, 2000, 100_000]))
            nested = "[" * depth + "]" * depth
            marker = "NESTED_HERE"
            if path:
                _set_at(doc, path, marker)
                return json.dumps(doc).replace(f'"{marker}"', nested).encode("utf-8"), True
            return nested.encode("utf-8"), True
    return json.dumps(doc).encode("utf-8"), True


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_mutated_scene_document())
def test_mutated_scene_document_is_input_error_or_valid(tmp_path_factory, mutated):
    """scene.json alone gives every berry's id, ripeness and pose to masks.pgm
    and ground_truth.f64, so no change to it may end in anything but a load
    or an InputError."""
    data, must_fail = mutated
    folder = tmp_path_factory.mktemp("scene")
    save_artifacts(str(folder), _labelled(_LABELS, 3))
    (folder / "scene.json").write_bytes(data)
    try:
        artifacts = load_artifacts(str(folder))
    except InputError:
        return
    assert not must_fail, "a malformed scene.json loaded"
    assert len(artifacts.masks) == len(artifacts.truth.instances) == 3


# ---------------------------------------------------------------- documents


def _text(scene: SceneTemplate) -> str:
    """The scene as JSON text, which tells -0.0 from 0.0 where == does not."""
    return json.dumps(scene.to_json(), sort_keys=True)


def test_scene_document_round_trip(tmp_path, prior):
    scene = _scene(prior)
    path = str(tmp_path / "scene.json")
    write_json(path, scene.to_json())
    loaded = read_json(path, SceneTemplate.from_json)
    assert _text(loaded) == _text(scene)


def test_scene_document_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"berries": "nope"}')
    with pytest.raises(InputError):
        read_json(str(path), SceneTemplate.from_json)
    path.write_text("not json at all")
    with pytest.raises(InputError):
        read_json(str(path), SceneTemplate.from_json)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_non_finite_numbers(tmp_path, value):
    path = tmp_path / "doc.json"
    with pytest.raises(ParameterError, match=f"^{path}: Out of range float"):
        write_json(str(path), {"a": [1.0, {"b": value}]})
    assert not path.exists()


_METRICS = MetricsReport(
    rho_a=50.0, rho_s=40.0, rho_s_over_a=80.0, rho_h=10.0, cd_mean_mm=1.25, cd_median_mm=None,
    n_trials=2, n_detections=2, n_attempts=1, n_successes=1, n_hit_trials=0,
)
_DOCUMENTS = {
    "config": (PipelineConfig().to_json(), PipelineConfig.from_json),
    "template": (SceneConfig(n_occluders=2).to_json(), SceneConfig.from_json),
    "metrics": (_METRICS.to_json(), MetricsReport.from_json),
}


def _get_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _key_paths(value, path=()):
    """The key path of every object member in a JSON value, at any depth."""
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _key_paths(v, path + (i,))]
    if not isinstance(value, dict):
        return []
    return [p for k, v in value.items() for p in [path + (k,), *_key_paths(v, path + (k,))]]


@st.composite
def _mutated_document(draw, doc):
    """doc's JSON text with one mutation: truncation, flipped bytes, a NaN,
    an infinity or an integer too large for a float, two values swapped, a
    member removed, or a value (or the whole document) replaced by arrays or
    objects nested 2 to 100000 deep."""
    doc = json.loads(json.dumps(doc))
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    kind = draw(st.sampled_from(["truncate", "flip", "out-of-range", "swap", "remove", "nest"]))
    if kind == "truncate":
        return text.encode("utf-8")[: draw(st.integers(0, len(text) - 3))]
    if kind == "flip":
        return flipped(draw, text.encode("utf-8"))
    leaves = _leaf_paths(doc)
    if kind == "swap":
        a, b = draw(st.lists(st.sampled_from(leaves), min_size=2, max_size=2, unique=True))
        value_a, value_b = _get_at(doc, a), _get_at(doc, b)
        _set_at(doc, a, value_b)
        _set_at(doc, b, value_a)
    elif kind == "remove":
        path = draw(st.sampled_from(_key_paths(doc)))
        del _get_at(doc, path[:-1])[path[-1]]
    elif kind == "out-of-range":
        value = draw(st.sampled_from([math.nan, -math.inf, math.inf, 10**400, -(10**400)]))
        _set_at(doc, draw(st.sampled_from(leaves)), value)
    else:
        depth = draw(st.sampled_from([2, 3, 64, 500, 990, 2000, 100_000]))
        nested = ("[" * depth + "]" * depth) if draw(st.booleans()) else (
            '{"a": ' * depth + "1" + "}" * depth
        )
        path = draw(st.sampled_from([()] + leaves))
        if not path:
            return nested.encode("utf-8")
        _set_at(doc, path, "NESTED_HERE")
        return json.dumps(doc).replace('"NESTED_HERE"', nested).encode("utf-8")
    return json.dumps(doc).encode("utf-8")


@pytest.mark.parametrize("name", sorted(_DOCUMENTS))
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_json_document_is_input_error_naming_it_or_valid(tmp_path_factory, name, data):
    """The config, the template and metrics.json, read through read_json:
    any mutation either parses or is one InputError that starts with the
    file's path."""
    doc, parse = _DOCUMENTS[name]
    path = tmp_path_factory.mktemp(name) / f"{name}.json"
    path.write_bytes(data.draw(_mutated_document(doc)))
    try:
        read_json(str(path), parse)
    except InputError as exc:
        assert str(exc).startswith(f"{path}"), str(exc)


def test_ground_truth_document_round_trip(tmp_path, prior):
    artifacts = render_scene_artifacts(_scene(prior), prior, truth_seed=3)
    save_artifacts(str(tmp_path), artifacts)
    loaded, truth = load_artifacts(str(tmp_path)).truth, artifacts.truth
    assert loaded == truth
    assert surface_bytes(loaded) == surface_bytes(truth)


def test_ground_truth_surfaces_are_little_endian_float64_beside_the_document(tmp_path, prior):
    """Berry k of scene.json owns rows [k * SURFACE_POINTS, (k + 1) *
    SURFACE_POINTS) of ground_truth.f64, and nothing else is stored."""
    artifacts = render_scene_artifacts(_scene(prior), prior, truth_seed=3)
    save_artifacts(str(tmp_path), artifacts)
    truth = artifacts.truth
    assert [(inst.instance_id, inst.pose) for inst in truth.instances] == [
        (b.instance_id, b.pose) for b in artifacts.scene.berries
    ]
    raw = (tmp_path / "ground_truth.f64").read_bytes()
    assert raw == b"".join(inst.surface.xyz.astype("<f8").tobytes() for inst in truth.instances)
    assert len(raw) == 24 * SURFACE_POINTS * len(artifacts.scene.berries)


def _pr21_document(truth, scene):
    """The ground_truth.json that scene directories held beside
    ground_truth.f64 before the surfaces were indexed by scene.json."""
    return {"instances": [
        {"instance_id": b.instance_id, "ripeness": b.ripeness.value, **b.pose.to_json(),
         "surface_points": len(inst.surface)}
        for b, inst in zip(scene.berries, truth.instances, strict=True)
    ]}


@pytest.mark.parametrize("leftover", ["pr21-form", "garbage"])
def test_a_leftover_ground_truth_json_is_never_opened(tmp_path, prior, leftover):
    artifacts = render_scene_artifacts(_scene(prior), prior, truth_seed=3)
    save_artifacts(str(tmp_path), artifacts)
    without = load_artifacts(str(tmp_path)).truth
    text = {"pr21-form": json.dumps(_pr21_document(artifacts.truth, artifacts.scene)),
            "garbage": "[" * 100_000}[leftover]
    (tmp_path / "ground_truth.json").write_text(text)
    beside = load_artifacts(str(tmp_path)).truth
    assert beside == without == artifacts.truth
    assert surface_bytes(beside) == surface_bytes(without) == surface_bytes(artifacts.truth)


def _saved_truth(tmp_path):
    """A saved two-berry scene directory: (its ground_truth.json path, where
    older versions kept the document, and its ground_truth.f64 path)."""
    save_artifacts(str(tmp_path), _labelled(np.array([[0, 1], [2, 0]]), 2))
    return tmp_path / "ground_truth.json", tmp_path / "ground_truth.f64"


def _in_document(surface):
    """The document holds a "surface" again, as ground truth written before
    the surface file did, and no surface file lies beside it."""
    def corrupt(doc_path, f64_path):
        doc_path.write_text(json.dumps({"instances": [{"instance_id": 10, "surface": surface}]}))
        f64_path.unlink()
    return corrupt


def _surface_file(edit):
    def corrupt(doc_path, f64_path):
        f64_path.write_bytes(edit(f64_path.read_bytes()))
    return corrupt


def _poke(value, at=4):
    def edit(raw):
        xyz = np.frombuffer(raw, dtype="<f8").copy()
        xyz[at] = value
        return xyz.tobytes()
    return edit


_POINTS = 2 * SURFACE_POINTS  # the saved truth's two surfaces
_NO_SURFACE_FILE = "scene artifacts missing ground_truth.f64 in {dir}"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_in_document([[0.0, 0.0, 0.36]]), _NO_SURFACE_FILE),
        (_in_document(3), _NO_SURFACE_FILE),
        (_in_document(None), _NO_SURFACE_FILE),
        (_in_document("!!!!"), _NO_SURFACE_FILE),
        (_in_document("AAA"), _NO_SURFACE_FILE),
        (_in_document("AAAA AAAA"), _NO_SURFACE_FILE),
        (_surface_file(lambda raw: b""),
         f"{{f64}} holds 0 bytes, but scene.json's 2 berries take {24 * _POINTS}"),
        (_surface_file(lambda raw: raw[:-16]),
         f"{{f64}} holds {24 * _POINTS - 16} bytes, but scene.json's 2 berries take "
         f"{24 * _POINTS}"),
        (_surface_file(lambda raw: raw + bytes(8)),
         f"{{f64}} holds {24 * _POINTS + 8} bytes, but scene.json's 2 berries take "
         f"{24 * _POINTS}"),
        (_surface_file(_poke(float("nan"))), "{f64}: non-finite coordinate in row 1"),
        (_surface_file(_poke(-float("inf"))), "{f64}: non-finite coordinate in row 1"),
        (_surface_file(_poke(float("nan"), at=3 * (SURFACE_POINTS + 7) + 2)),
         f"{{f64}}: non-finite coordinate in row {SURFACE_POINTS + 7}"),
    ],
    ids=["old-list-form", "number", "null", "bad-alphabet", "bad-padding", "whitespace",
         "empty", "short-row", "partial-row", "nan", "infinity", "nan-second-berry"],
)
def test_ground_truth_malformed_surface(tmp_path, corrupt, message):
    """A directory whose truth is only in an older ground_truth.json, in any
    form, is refused as missing ground_truth.f64: the document is never read."""
    doc_path, f64_path = _saved_truth(tmp_path)
    corrupt(doc_path, f64_path)
    with pytest.raises(InputError) as err:
        load_artifacts(str(tmp_path))
    assert message.format(dir=tmp_path, f64=f64_path) in str(err.value)


def test_ground_truth_missing_surface_file_is_named(tmp_path):
    _, f64_path = _saved_truth(tmp_path)
    f64_path.unlink()
    with pytest.raises(InputError, match=_NO_SURFACE_FILE.format(dir=tmp_path)):
        load_artifacts(str(tmp_path))


def _base64(xyz):
    return base64.b64encode(np.asarray(xyz, dtype="<f8").tobytes()).decode("ascii")


@pytest.mark.parametrize(
    "older",
    [
        lambda xyz: [_base64(xyz)] * 3,
        lambda xyz: [xyz.tolist()] * 3,
        lambda xyz: dict(zip("abc", [_base64(xyz)] * 3)),
        lambda xyz: _base64(xyz),
    ],
    ids=["three-strings", "coordinate-lists", "dict", "one-string"],
)
def test_ground_truth_surfaces_field_is_refused(tmp_path, older):
    """A directory whose truth is a "surfaces" field, the older three-surface
    form in any shape, and no surface file is refused as a whole."""
    doc_path, f64_path = _saved_truth(tmp_path)
    saved = load_artifacts(str(tmp_path)).truth
    doc = {"instances": [{"instance_id": inst.instance_id, "surfaces": older(inst.surface.xyz)}
                         for inst in saved.instances]}
    doc_path.write_text(json.dumps(doc))
    f64_path.unlink()
    with pytest.raises(InputError, match=_NO_SURFACE_FILE.format(dir=tmp_path)):
        load_artifacts(str(tmp_path))


@st.composite
def _mutated_ground_truth(draw):
    """_labelled(_LABELS, 3)'s ground_truth.f64 with one mutation, and whether
    that mutation must make it invalid. A flipped byte may leave it valid
    (say, a changed digit of a mantissa); the other mutations never do."""
    raw = surface_bytes(_labelled(_LABELS, 3).truth)
    kind = draw(st.sampled_from(["flip", "truncate", "append", "non-finite"]))
    if kind == "flip":
        return flipped(draw, raw), False
    if kind == "truncate":
        raw = raw[: draw(st.integers(0, len(raw) - 1))]
    elif kind == "append":
        raw += draw(st.binary(min_size=1, max_size=48))
    else:
        xyz = np.frombuffer(raw, dtype="<u8").copy()
        mantissa = draw(st.integers(0, 2**52 - 1))  # 0 is an infinity, else a NaN
        sign = draw(st.sampled_from([0, 1 << 63]))
        xyz[draw(st.integers(0, xyz.size - 1))] = sign | 0x7FF0_0000_0000_0000 | mantissa
        raw = xyz.tobytes()
    return raw, True


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_mutated_ground_truth())
def test_mutated_ground_truth_is_input_error_or_valid(tmp_path_factory, mutated):
    surfaces, must_fail = mutated
    folder = tmp_path_factory.mktemp("truth")
    save_artifacts(str(folder), _labelled(_LABELS, 3))
    (folder / "ground_truth.f64").write_bytes(surfaces)
    try:
        truth = load_artifacts(str(folder)).truth
    except InputError:
        return
    assert not must_fail, "a malformed ground_truth.f64 loaded"
    assert [inst.instance_id for inst in truth.instances] == [10, 20, 30]
    assert surface_bytes(truth) == surfaces


# ---------------------------------------------------------------- artifacts


def test_artifact_directory_round_trip(tmp_path, prior):
    artifacts = render_scene_artifacts(
        _scene(prior), prior, RenderParams(1.0, 0.02), render_seed=5, truth_seed=6
    )
    out = str(tmp_path / "scene0")
    save_artifacts(out, artifacts)
    loaded = load_artifacts(out)
    assert loaded == artifacts
    assert _text(loaded.scene) == _text(artifacts.scene)
    assert surface_bytes(loaded.truth) == surface_bytes(artifacts.truth)


def test_load_artifacts_requires_every_file(tmp_path, prior):
    with pytest.raises(InputError):
        load_artifacts(str(tmp_path / "missing"))
    artifacts = render_scene_artifacts(_scene(prior), prior)
    out = tmp_path / "partial"
    save_artifacts(str(out), artifacts)
    (out / "depth.pgm").unlink()
    with pytest.raises(InputError):
        load_artifacts(str(out))


def test_writes_into_missing_directory_fail_loudly(tmp_path):
    target = str(tmp_path / "no_such_dir" / "x.ply")
    with pytest.raises(StorageError):
        write_ply(target, PointCloud.empty())
    with pytest.raises(StorageError):
        write_pgm16(str(tmp_path / "no_such_dir" / "x.pgm"), np.zeros((2, 2), dtype=np.uint16))


def test_camera_defaults_match_rendered_artifacts(tmp_path, prior):
    # intrinsics survive the JSON trip inside the scene document
    scene = _scene(prior)
    path = str(tmp_path / "scene.json")
    write_json(path, scene.to_json())
    loaded = read_json(path, SceneTemplate.from_json)
    k = CameraIntrinsics()
    assert loaded.intrinsics == k
