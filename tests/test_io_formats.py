"""Exact round trips for every on-disk format, and honest failures for
malformed input."""

from __future__ import annotations

import base64
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berrypick import (
    BerryInstance,
    CameraIntrinsics,
    DepthImage,
    GroundTruth,
    GroundTruthInstance,
    InputError,
    InstanceMask,
    ParameterError,
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
    sample_ground_truth,
)
from berrypick.io_formats import (
    load_artifacts,
    load_ground_truth,
    load_scene,
    read_pgm16,
    read_ply,
    read_ppm,
    save_artifacts,
    save_ground_truth,
    save_scene,
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
        data = bytearray(data)
        for _ in range(draw(st.integers(1, 3))):
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
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


def _labelled(labels: np.ndarray, n: int) -> SceneArtifacts:
    """Artifacts of a blank frame of labels' size with n berries, where berry
    k (id 10 * k, ripe when k is odd) owns the pixels labelled k."""
    h, w = labels.shape
    berries = [(10 * k, Ripeness.RIPE if k % 2 else Ripeness.UNRIPE) for k in range(1, n + 1)]
    return SceneArtifacts(
        scene=SceneTemplate(
            berries=tuple(BerryInstance(i, Pose.identity(), r) for i, r in berries),
            intrinsics=CameraIntrinsics(cx=0.0, cy=0.0),
            width=w,
            height=h,
        ),
        rgb=RgbImage(values=np.zeros((h, w, 3), dtype=np.uint8)),
        depth=DepthImage(values=np.zeros((h, w), dtype=np.uint16)),
        masks=tuple(
            InstanceMask(bits=labels == k, instance_id=i, ripeness=r)
            for k, (i, r) in enumerate(berries, start=1)
        ),
        truth=GroundTruth(
            instances=tuple(
                GroundTruthInstance(i, r, Pose.identity(), PointCloud(xyz=np.zeros((1, 3))))
                for i, r in berries
            )
        ),
    )


def _assert_same_masks(loaded, saved):
    assert [(m.instance_id, m.ripeness) for m in loaded] == [
        (m.instance_id, m.ripeness) for m in saved
    ]
    for a, b in zip(loaded, saved, strict=True):
        assert a.bits.dtype == np.bool_ and np.array_equal(a.bits, b.bits)


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
    _assert_same_masks(load_artifacts(str(tmp_path)).masks, artifacts.masks)


@pytest.mark.parametrize("seed", range(6))
def test_mask_pgm_bytes_match_the_where_encoding(tmp_path, seed):
    rng = np.random.default_rng(seed)
    h, w = (int(v) for v in rng.integers(1, 60, 2))
    n = int(rng.integers(1, 5))
    labels = rng.integers(0, n + 1, size=(h, w)) * (rng.random((h, w)) < rng.random())
    artifacts = _labelled(labels, n)
    if seed % 2:  # strided, non-contiguous views
        masks = [dataclasses.replace(m, bits=np.ascontiguousarray(m.bits.T).T)
                 for m in artifacts.masks]
        assert not masks[0].bits.flags.c_contiguous
        artifacts = dataclasses.replace(artifacts, masks=tuple(masks))
    save_artifacts(str(tmp_path), artifacts)
    encoded = sum(np.where(m.bits, k, 0) for k, m in enumerate(artifacts.masks, start=1))
    expected = f"P5\n{w} {h}\n65535\n".encode("ascii") + encoded.astype(">u2").tobytes()
    assert (tmp_path / "masks.pgm").read_bytes() == expected
    _assert_same_masks(load_artifacts(str(tmp_path)).masks, artifacts.masks)


def test_a_scene_directory_holds_six_files(tmp_path, prior):
    save_artifacts(str(tmp_path), render_scene_artifacts(_scene(prior), prior))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "depth.pgm", "ground_truth.f64", "ground_truth.json", "masks.pgm", "rgb.ppm", "scene.json"
    ]


def _edit_mask(index, field, value):
    """Sets mask `index`'s `field` to value(mask)."""
    def edit(masks):
        changed = dataclasses.replace(masks[index], **{field: value(masks[index])})
        return masks[:index] + (changed,) + masks[index + 1 :]
    return edit


_ONE_PER_BERRY = "one frame-sized mask per berry, in berries order"


@pytest.mark.parametrize(
    "edit, message",
    [
        (_edit_mask(1, "bits", lambda m: m.bits | (np.arange(3) == 1)), "masks overlap"),
        (lambda masks: masks[::-1], _ONE_PER_BERRY),
        (lambda masks: masks[:1], _ONE_PER_BERRY),
        (_edit_mask(0, "ripeness", lambda m: Ripeness.UNRIPE), _ONE_PER_BERRY),
        (_edit_mask(0, "instance_id", lambda m: 11), _ONE_PER_BERRY),
        (_edit_mask(0, "bits", lambda m: m.bits[:, :2]), _ONE_PER_BERRY),
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


_LABELS = np.array([[0, 1, 1, 0, 3], [2, 2, 0, 3, 3], [0, 0, 0, 0, 1]])


@st.composite
def _mutated_label_image(draw):
    """_LABELS' masks.pgm with one mutation, and whether that mutation must
    make it invalid. A flipped byte may leave it valid (say, a label moved
    to another berry); the other mutations never do."""
    header, payload = b"P5\n5 3\n65535\n", _LABELS.astype(">u2").tobytes()
    kind = draw(st.sampled_from(["truncate", "flip", "maxval-255", "label-above"]))
    if kind == "truncate":
        data = (header + payload)[: draw(st.integers(0, len(header + payload) - 1))]
    elif kind == "flip":
        data = bytearray(header + payload)
        for _ in range(draw(st.integers(1, 3))):
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
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
    loaded = load_ground_truth(path)
    assert loaded.to_json_str() == truth.to_json_str()
    assert loaded.surface_bytes() == truth.surface_bytes()
    for a, b in zip(loaded.instances, truth.instances, strict=True):
        assert np.array_equal(a.surface.xyz, b.surface.xyz)


def test_ground_truth_surfaces_are_little_endian_float64_beside_the_document(tmp_path, prior):
    truth = sample_ground_truth(_scene(prior), prior, seed=3)
    path = tmp_path / "ground_truth.json"
    save_ground_truth(str(path), truth)
    doc = json.loads(path.read_text())
    for inst, stored in zip(truth.instances, doc["instances"], strict=True):
        assert stored["instance_id"] == inst.instance_id
        assert stored["surface_points"] == len(inst.surface)
        assert "surface" not in stored and "surfaces" not in stored
    raw = (tmp_path / "ground_truth.f64").read_bytes()
    assert raw == b"".join(inst.surface.xyz.astype("<f8").tobytes() for inst in truth.instances)
    assert len(raw) == 24 * sum(len(inst.surface) for inst in truth.instances)


def _saved_truth(tmp_path, prior):
    """A saved two-berry ground truth: (document path, surface file path)."""
    path = tmp_path / "ground_truth.json"
    save_ground_truth(str(path), sample_ground_truth(_scene(prior), prior, seed=3))
    return path, tmp_path / "ground_truth.f64"


def _in_document(surface):
    """The document holds a "surface" again, as ground truth written before
    the surface file did, and no surface file lies beside it."""
    def corrupt(doc_path, f64_path):
        doc = json.loads(doc_path.read_text())
        doc["instances"][0]["surface"] = surface
        doc_path.write_text(json.dumps(doc))
        f64_path.unlink()
    return corrupt


def _surface_file(edit):
    def corrupt(doc_path, f64_path):
        f64_path.write_bytes(edit(f64_path.read_bytes()))
    return corrupt


def _poke(value):
    def edit(raw):
        xyz = np.frombuffer(raw, dtype="<f8").copy()
        xyz[4] = value
        return xyz.tobytes()
    return edit


_POINTS = 2 * 4096  # the saved truth's two surfaces
_IN_DOCUMENT = 'older in-document "surface" form; re-render'


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_in_document([[0.0, 0.0, 0.36]]), _IN_DOCUMENT),
        (_in_document(3), _IN_DOCUMENT),
        (_in_document(None), _IN_DOCUMENT),
        (_in_document("!!!!"), _IN_DOCUMENT),
        (_in_document("AAA"), _IN_DOCUMENT),
        (_in_document("AAAA AAAA"), _IN_DOCUMENT),
        (_surface_file(lambda raw: b""), "ground_truth.f64 holds 0 bytes, but"),
        (_surface_file(lambda raw: raw[:-16]),
         f"holds {24 * _POINTS - 16} bytes, but {{doc}} gives {_POINTS} surface points, "
         f"{24 * _POINTS} bytes"),
        (_surface_file(lambda raw: raw + bytes(8)),
         f"holds {24 * _POINTS + 8} bytes, but {{doc}} gives {_POINTS} surface points, "
         f"{24 * _POINTS} bytes"),
        (_surface_file(_poke(float("nan"))), "point coordinates must be finite"),
        (_surface_file(_poke(-float("inf"))), "point coordinates must be finite"),
    ],
    ids=["old-list-form", "number", "null", "bad-alphabet", "bad-padding", "whitespace",
         "empty", "short-row", "partial-row", "nan", "infinity"],
)
def test_ground_truth_malformed_surface(tmp_path, prior, corrupt, message):
    doc_path, f64_path = _saved_truth(tmp_path, prior)
    corrupt(doc_path, f64_path)
    with pytest.raises(InputError) as err:
        load_ground_truth(str(doc_path))
    assert message.format(doc=doc_path) in str(err.value)
    assert str(doc_path) in str(err.value)


def test_ground_truth_missing_surface_file_is_named(tmp_path, prior):
    doc_path, f64_path = _saved_truth(tmp_path, prior)
    f64_path.unlink()
    with pytest.raises(InputError, match=f"cannot read {f64_path}"):
        load_ground_truth(str(doc_path))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda inst: inst.pop("surface_points"), "'surface_points'"),
        (lambda inst: inst.update(surface_points=True), "surface_points must be an integer, got True"),
        (lambda inst: inst.update(surface_points=4096.0),
         "surface_points must be an integer, got 4096.0"),
        (lambda inst: inst.update(surface_points="4096"),
         "surface_points must be an integer, got '4096'"),
        (lambda inst: inst.update(surface_points=0), "surface_points must be at least 1, got 0"),
        (lambda inst: inst.update(surface_points=-1), "surface_points must be at least 1, got -1"),
        (lambda inst: inst.update(surface_points=4095), f"but {{doc}} gives {_POINTS - 1} surface"),
    ],
    ids=["missing", "bool", "float", "string", "zero", "negative", "sum-disagrees"],
)
def test_ground_truth_surface_points_is_a_positive_integer(tmp_path, prior, edit, message):
    doc_path, _ = _saved_truth(tmp_path, prior)
    doc = json.loads(doc_path.read_text())
    edit(doc["instances"][1])
    doc_path.write_text(json.dumps(doc))
    with pytest.raises(InputError) as err:
        load_ground_truth(str(doc_path))
    assert message.format(doc=doc_path) in str(err.value)


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
def test_ground_truth_surfaces_field_is_refused(tmp_path, prior, older):
    """A "surfaces" field, the older three-surface form in any shape, is
    refused as a whole with a message to re-render, though no surface file
    lies beside it."""
    doc_path, f64_path = _saved_truth(tmp_path, prior)
    doc = json.loads(doc_path.read_text())
    saved = load_ground_truth(str(doc_path))
    for stored, inst in zip(doc["instances"], saved.instances, strict=True):
        del stored["surface_points"]
        stored["surfaces"] = older(inst.surface.xyz)
    doc_path.write_text(json.dumps(doc))
    f64_path.unlink()
    with pytest.raises(InputError, match="ground_truth.json: .*three-surface form; re-render"):
        load_ground_truth(str(doc_path))


_NOT_A_COUNT = [None, True, False, 1.0, 2.5, 0, -3, "1"]


@st.composite
def _mutated_ground_truth(draw):
    """A small valid ground truth, as (document bytes, surface file bytes),
    with one mutation, and whether that mutation must make it invalid. A
    flipped byte may leave it valid (say, a changed digit); the other
    mutations never do."""
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
    doc, raw = truth.to_json(), truth.surface_bytes()
    kind = draw(st.sampled_from(["flip-document", "flip-surfaces", "truncate", "append",
                                 "non-finite", "count"]))
    if kind == "flip-document":
        data = bytearray(json.dumps(doc).encode("utf-8"))
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return bytes(data), raw, False
    if kind == "flip-surfaces":
        data = bytearray(raw)
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return json.dumps(doc).encode("utf-8"), bytes(data), False
    if kind == "truncate":
        raw = raw[: draw(st.integers(0, len(raw) - 1))]
    elif kind == "append":
        raw += draw(st.binary(min_size=1, max_size=48))
    elif kind == "non-finite":
        xyz = np.frombuffer(raw, dtype="<u8").copy()
        mantissa = draw(st.integers(0, 2**52 - 1))  # 0 is an infinity, else a NaN
        sign = draw(st.sampled_from([0, 1 << 63]))
        xyz[draw(st.integers(0, xyz.size - 1))] = sign | 0x7FF0_0000_0000_0000 | mantissa
        raw = xyz.tobytes()
    else:
        stored = doc["instances"][draw(st.integers(0, len(doc["instances"]) - 1))]
        value = draw(st.sampled_from(_NOT_A_COUNT + ["missing", "other"]))
        if value == "missing":
            del stored["surface_points"]
        elif value == "other":  # a valid count that disagrees with the file's size
            others = st.integers(1, 8).filter(lambda n: n != stored["surface_points"])
            stored["surface_points"] = draw(others)
        else:
            stored["surface_points"] = value
    return json.dumps(doc).encode("utf-8"), raw, True


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_mutated_ground_truth())
def test_mutated_ground_truth_is_input_error_or_valid(tmp_path_factory, mutated):
    document, surfaces, must_fail = mutated
    folder = tmp_path_factory.mktemp("truth")
    (folder / "ground_truth.json").write_bytes(document)
    (folder / "ground_truth.f64").write_bytes(surfaces)
    try:
        load_ground_truth(str(folder / "ground_truth.json"))
    except InputError:
        return
    assert not must_fail, "a malformed ground truth loaded"


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
    assert loaded.truth.surface_bytes() == artifacts.truth.surface_bytes()
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
        write_pgm16(str(tmp_path / "no_such_dir" / "x.pgm"), np.zeros((2, 2), dtype=np.uint16))


def test_camera_defaults_match_rendered_artifacts(tmp_path, prior):
    # intrinsics survive the JSON trip inside the scene document
    scene = _scene(prior)
    path = str(tmp_path / "scene.json")
    save_scene(path, scene)
    loaded = load_scene(path)
    k = CameraIntrinsics()
    assert loaded.intrinsics == k
