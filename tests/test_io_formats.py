"""Exact round trips for every on-disk format, and honest failures for
malformed input."""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berrypick import (
    CameraIntrinsics,
    DepthImage,
    GroundTruth,
    GroundTruthInstance,
    InputError,
    InstanceMask,
    PointCloud,
    Pose,
    RenderParams,
    Ripeness,
    SceneConfig,
    StorageError,
    generate_scene,
    render_scene_artifacts,
    sample_ground_truth,
)
from berrypick.io_formats import (
    load_artifacts,
    load_ground_truth,
    load_scene,
    read_mask,
    read_pgm16,
    read_ply,
    read_ppm,
    save_artifacts,
    save_ground_truth,
    save_scene,
    write_mask,
    write_pgm16,
    write_ply,
    write_ppm,
)
from berrypick.types import RgbImage


def _scene(prior, seed=0):
    cfg = SceneConfig(n_ripe=1, n_unripe=1, n_occluders=1)
    return generate_scene(cfg, prior, np.random.Generator(np.random.Philox(seed)))


# ---------------------------------------------------------------- PLY


def test_ply_round_trip_is_bit_exact(tmp_path):
    cloud = PointCloud(xyz=np.random.default_rng(0).normal(size=(57, 3)))
    path = str(tmp_path / "cloud.ply")
    write_ply(path, cloud)
    loaded = read_ply(path)
    assert loaded.xyz.dtype == cloud.xyz.dtype
    assert np.array_equal(loaded.xyz, cloud.xyz)


def test_ply_without_colors(tmp_path):
    cloud = PointCloud(xyz=np.array([[1e-300, -2.5, 3.0]]))
    path = tmp_path / "plain.ply"
    write_ply(str(path), cloud)
    header = path.read_text().split("end_header")[0]
    assert [line.split()[-1] for line in header.splitlines() if line.startswith("property")] == [
        "x", "y", "z"
    ]
    assert np.array_equal(read_ply(str(path)).xyz, cloud.xyz)


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


def test_ply_empty_cloud(tmp_path):
    path = str(tmp_path / "empty.ply")
    write_ply(path, PointCloud.empty())
    assert len(read_ply(path)) == 0


@pytest.mark.parametrize(
    "text",
    [
        "solid not_a_ply\n",
        "ply\nformat binary_little_endian 1.0\nelement vertex 0\nend_header\n",
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


# ---------------------------------------------------------------- PGM / PPM


def test_pgm16_round_trip(tmp_path):
    values = np.random.default_rng(1).integers(0, 65536, size=(24, 31), dtype=np.uint16)
    path = str(tmp_path / "depth.pgm")
    write_pgm16(path, DepthImage(values=values))
    assert np.array_equal(read_pgm16(path).values, values)


def test_pgm16_header_comments_are_skipped(tmp_path):
    payload = np.array([[1000]], dtype=">u2").tobytes()
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n1 1\n65535\n" + payload)
    assert read_pgm16(str(path)).values[0, 0] == 1000


def test_pgm16_rejects_wrong_depth_and_truncation(tmp_path):
    eight_bit = tmp_path / "8bit.pgm"
    eight_bit.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(InputError):
        read_pgm16(str(eight_bit))
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n2 2\n65535\n\x00\x01")
    with pytest.raises(InputError):
        read_pgm16(str(short))


@pytest.mark.parametrize("data", [b"P5", b"P5\n", b"P5\n4 x\n65535\n", b"P5\n-1 1\n65535\n"])
def test_pgm16_malformed_header(tmp_path, data):
    path = tmp_path / "cut.pgm"
    path.write_bytes(data)
    with pytest.raises(InputError, match="malformed header field"):
        read_pgm16(str(path))


def test_ppm_round_trip(tmp_path):
    values = np.random.default_rng(2).integers(0, 256, size=(8, 9, 3), dtype=np.uint8)
    path = str(tmp_path / "img.ppm")
    write_ppm(path, RgbImage(values=values))
    assert np.array_equal(read_ppm(path).values, values)


def test_ppm_rejects_pgm_magic(tmp_path):
    path = tmp_path / "magic.ppm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(InputError):
        read_ppm(str(path))


# ---------------------------------------------------------------- masks


def test_mask_round_trip(tmp_path):
    bits = np.zeros((16, 20), dtype=bool)
    bits[3:7, 4:9] = True
    mask = InstanceMask(bits=bits, instance_id=3, ripeness=Ripeness.UNRIPE)
    stem = str(tmp_path / "mask_003")
    write_mask(stem, mask)
    loaded = read_mask(stem)
    assert np.array_equal(loaded.bits, bits)
    assert loaded.instance_id == 3
    assert loaded.ripeness is Ripeness.UNRIPE


def test_mask_missing_sidecar(tmp_path):
    bits = np.ones((4, 4), dtype=bool)
    stem = str(tmp_path / "m")
    write_mask(stem, InstanceMask(bits=bits, instance_id=0, ripeness=Ripeness.RIPE))
    (tmp_path / "m.json").unlink()
    with pytest.raises(InputError):
        read_mask(stem)


@pytest.mark.parametrize(
    "sidecar",
    ['{"ripeness": "ripe"}', '{"instance_id": 1}', '{"instance_id": "a", "ripeness": "ripe"}',
     '{"instance_id": 1, "ripeness": "green"}', "[1, 2]",
     '{"instance_id": 0.5, "ripeness": "ripe"}', '{"instance_id": true, "ripeness": "ripe"}',
     '{"instance_id": "3", "ripeness": "ripe"}', '{"instance_id": 1.0, "ripeness": "ripe"}'],
)
def test_mask_malformed_sidecar(tmp_path, sidecar):
    stem = str(tmp_path / "m")
    write_mask(stem, InstanceMask(bits=np.ones((2, 2), bool), instance_id=0, ripeness=Ripeness.RIPE))
    (tmp_path / "m.json").write_text(sidecar)
    with pytest.raises(InputError, match="needs instance_id and ripeness"):
        read_mask(stem)


# ---------------------------------------------------------------- documents


def test_scene_document_round_trip(tmp_path, prior):
    scene = _scene(prior)
    path = str(tmp_path / "scene.json")
    save_scene(path, scene)
    assert load_scene(path).to_json_str() == scene.to_json_str()


def test_scene_document_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"berries": "nope"}')
    with pytest.raises(InputError):
        load_scene(str(path))
    path.write_text("not json at all")
    with pytest.raises(InputError):
        load_scene(str(path))


def test_ground_truth_document_round_trip(tmp_path, prior):
    truth = sample_ground_truth(_scene(prior), prior, seed=3)
    path = str(tmp_path / "truth.json")
    save_ground_truth(path, truth)
    assert load_ground_truth(path).to_json_str() == truth.to_json_str()


def test_ground_truth_surfaces_are_base64_little_endian_float64(tmp_path, prior):
    truth = sample_ground_truth(_scene(prior), prior, seed=3)
    path = tmp_path / "ground_truth.json"
    save_ground_truth(str(path), truth)
    doc = json.loads(path.read_text())
    for inst, stored in zip(truth.instances, doc["instances"], strict=True):
        assert stored["instance_id"] == inst.instance_id
        xyz = np.frombuffer(base64.b64decode(stored["surface"], validate=True), dtype="<f8")
        assert np.array_equal(xyz.reshape(-1, 3), inst.surface.xyz)


def _b64_floats(*values):
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode("ascii")


@pytest.mark.parametrize(
    "surface, message",
    [
        ([[0.0, 0.0, 0.36]], "a surface must be a base64 string, got list"),
        (3, "a surface must be a base64 string, got int"),
        (None, "a surface must be a base64 string, got NoneType"),
        ("!!!!", "not valid base64"),
        ("AAA", "not valid base64"),
        ("AAAA AAAA", "not valid base64"),
        ("", "holds 0 bytes"),
        (_b64_floats(0.0, 0.1), "holds 16 bytes"),
        (_b64_floats(0.0, 0.0, 0.36, 0.0), "holds 32 bytes"),
        (_b64_floats(0.0, float("nan"), 0.36), "point coordinates must be finite"),
        (_b64_floats(0.0, 0.0, -float("inf")), "point coordinates must be finite"),
    ],
    ids=["old-list-form", "number", "null", "bad-alphabet", "bad-padding", "whitespace",
         "empty", "short-row", "partial-row", "nan", "infinity"],
)
def test_ground_truth_malformed_surface(tmp_path, prior, surface, message):
    path = tmp_path / "ground_truth.json"
    save_ground_truth(str(path), sample_ground_truth(_scene(prior), prior, seed=3))
    doc = json.loads(path.read_text())
    doc["instances"][0]["surface"] = surface
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="ground_truth.json: ") as err:
        load_ground_truth(str(path))
    assert message in str(err.value)


def _decode(text):
    return np.frombuffer(base64.b64decode(text), dtype="<f8").reshape(-1, 3)


@pytest.mark.parametrize(
    "older",
    [
        lambda surfaces: surfaces,
        lambda surfaces: [_decode(s).tolist() for s in surfaces],
        lambda surfaces: dict(zip("abc", surfaces)),
        lambda surfaces: surfaces[2],
    ],
    ids=["three-strings", "coordinate-lists", "dict", "one-string"],
)
def test_ground_truth_surfaces_field_is_refused(tmp_path, prior, older):
    """A "surfaces" field, the older three-surface form in any shape, is
    refused as a whole with a message to re-render."""
    path = tmp_path / "ground_truth.json"
    save_ground_truth(str(path), sample_ground_truth(_scene(prior), prior, seed=3))
    doc = json.loads(path.read_text())
    surface = doc["instances"][0].pop("surface")
    doc["instances"][0]["surfaces"] = older([surface, surface, surface])
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="ground_truth.json: .*three-surface form; re-render"):
        load_ground_truth(str(path))


@st.composite
def _mutated_truth_document(draw):
    """A small valid ground_truth.json with one mutation, and whether that
    mutation must make it invalid. A flipped byte may leave a valid
    document (say, a changed digit); the other three never do."""
    rng = np.random.default_rng(draw(st.integers(0, 3)))
    truth = GroundTruth(
        instances=tuple(
            GroundTruthInstance(
                instance_id=i,
                ripeness=draw(st.sampled_from(Ripeness)),
                pose=Pose(translation=rng.normal(size=3)),
                surface=PointCloud(xyz=rng.normal(size=(draw(st.integers(1, 5)), 3))),
            )
            for i in range(draw(st.integers(1, 3)))
        )
    )
    doc = truth.to_json()
    kind = draw(st.sampled_from(["truncate", "flip", "nan", "list"]))
    if kind == "flip":
        data = bytearray(json.dumps(doc).encode("utf-8"))
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return bytes(data), False
    inst = draw(st.integers(0, len(truth.instances) - 1))
    xyz = truth.instances[inst].surface.xyz
    stored = doc["instances"][inst]
    if kind == "truncate":
        # a cut at a whole point (a multiple of 32 characters) is a valid,
        # shorter surface, so cuts land anywhere else
        cut = draw(st.integers(0, len(stored["surface"]) - 1).filter(lambda n: n == 0 or n % 32))
        stored["surface"] = stored["surface"][:cut]
    elif kind == "nan":
        bad = xyz.copy()
        mantissa = draw(st.integers(0, 2**52 - 1))
        bits = np.array([0x7FF0_0000_0000_0000 | mantissa], dtype="<u8")
        bad.reshape(-1)[draw(st.integers(0, bad.size - 1))] = bits.view("<f8")[0]
        stored["surface"] = base64.b64encode(bad.astype("<f8").tobytes()).decode("ascii")
    else:
        stored["surface"] = xyz.tolist()
    return json.dumps(doc).encode("utf-8"), True


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_mutated_truth_document())
def test_mutated_ground_truth_is_input_error_or_valid(tmp_path_factory, mutated):
    data, must_fail = mutated
    path = tmp_path_factory.mktemp("truth") / "ground_truth.json"
    path.write_bytes(data)
    try:
        load_ground_truth(str(path))
    except InputError:
        return
    assert not must_fail, "a malformed ground truth document loaded"


# ---------------------------------------------------------------- artifacts


def test_artifact_directory_round_trip(tmp_path, prior):
    artifacts = render_scene_artifacts(
        _scene(prior), prior, RenderParams(1.0, 0.02), render_seed=5, truth_seed=6
    )
    out = str(tmp_path / "scene0")
    save_artifacts(out, artifacts)
    loaded = load_artifacts(out)
    assert loaded.scene.to_json_str() == artifacts.scene.to_json_str()
    assert np.array_equal(loaded.depth.values, artifacts.depth.values)
    assert np.array_equal(loaded.rgb.values, artifacts.rgb.values)
    assert loaded.truth.to_json_str() == artifacts.truth.to_json_str()
    assert len(loaded.masks) == len(artifacts.masks)
    for a, b in zip(loaded.masks, artifacts.masks):
        assert a.instance_id == b.instance_id
        assert a.ripeness is b.ripeness
        assert np.array_equal(a.bits, b.bits)


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
        write_pgm16(
            str(tmp_path / "no_such_dir" / "x.pgm"),
            DepthImage(values=np.zeros((2, 2), dtype=np.uint16)),
        )


def test_camera_defaults_match_rendered_artifacts(tmp_path, prior):
    # intrinsics survive the JSON trip inside the scene document
    scene = _scene(prior)
    path = str(tmp_path / "scene.json")
    save_scene(path, scene)
    loaded = load_scene(path)
    k = CameraIntrinsics()
    assert loaded.intrinsics == k
