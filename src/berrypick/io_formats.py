"""File formats: ASCII PLY clouds, PGM/PPM images, JSON scene documents.

PLY and scene coordinates are written with repr(), which emits the shortest
decimal string that round-trips to the same float64, so save/load is exact.
Each berry's one ground-truth surface, the bulk of a scene's artifacts, is
not in ground_truth.json but in ground_truth.f64 beside it: every instance's
(N, 3) coordinates as little-endian float64, row-major, in the document's
instance order, while the document gives each instance's N as
"surface_points" (see render.GroundTruth). The file is exactly 24 x sum(N)
bytes, so it is exact and costs little more than a copy to write and read.
Ground truth whose document holds the surfaces itself, the older base64
"surface" or three-surface "surfaces" form, is refused with a message to
re-render. Depth images are 16-bit big-endian PGM with millimeter values.
A scene directory keeps every berry's mask in one label image, masks.pgm, in
the same 16-bit PGM format: 0 means no berry and k means the k-th entry of
scene.json's "berries", which gives that mask's instance id and ripeness. A
directory without masks.pgm, written when each berry had its own
mask_NNN.pgm, is refused with a message to re-render.

Read-side problems (missing or malformed files, JSON that is not UTF-8)
raise InputError; write-side failures raise StorageError. The CLI maps these
to exit codes 1 and 2.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import InputError, ParameterError, StorageError
from .pipeline import SceneArtifacts
from .render import GroundTruth
from .scene import SceneTemplate
from .types import DepthImage, InstanceMask, PointCloud, RgbImage


def _write_bytes(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise StorageError(f"failed writing {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    _write_bytes(path, text.encode("utf-8"))


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


# -- PLY ----------------------------------------------------------------------


def write_ply(path: str, cloud: PointCloud) -> None:
    lines = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}"]
    lines += [f"property double {axis}" for axis in "xyz"]
    lines.append("end_header")
    lines += [" ".join(repr(float(v)) for v in row) for row in cloud.xyz]
    _write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_ply(path: str) -> PointCloud:
    text = _read_bytes(path).decode("ascii", errors="replace")
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise InputError(f"{path}: not a PLY file")
    n_vertex = None
    properties: list[str] = []
    body_at = None
    for i, line in enumerate(lines[1:], start=1):
        tokens = line.split()
        if not tokens or tokens[0] == "comment":
            continue
        malformed = InputError(f"{path}: malformed PLY header line {i + 1}: {line.strip()!r}")
        if tokens[0] == "format":
            if len(tokens) < 2:
                raise malformed
            if tokens[1] != "ascii":
                raise InputError(f"{path}: only ascii PLY is supported")
        elif tokens[0] == "element":
            if len(tokens) != 3:
                raise malformed
            if tokens[1] != "vertex":
                raise InputError(f"{path}: unsupported element {tokens[1]}")
            if not tokens[2].isdigit():
                raise malformed
            n_vertex = int(tokens[2])
        elif tokens[0] == "property":
            if len(tokens) < 3:
                raise malformed
            properties.append(tokens[2])
        elif tokens[0] == "end_header":
            body_at = i + 1
            break
    if n_vertex is None or body_at is None:
        raise InputError(f"{path}: malformed PLY header")
    if properties[:3] != ["x", "y", "z"]:
        raise InputError(f"{path}: expected x y z properties, got {properties}")
    has_color = properties[3:6] == ["red", "green", "blue"]

    rows = [line.split() for line in lines[body_at : body_at + n_vertex]]
    if len(rows) != n_vertex:
        raise InputError(f"{path}: expected {n_vertex} vertices, found {len(rows)}")
    if n_vertex == 0:
        return PointCloud.empty()
    try:
        xyz = np.array([[float(r[0]), float(r[1]), float(r[2])] for r in rows])
        if has_color:  # colours must parse, but no stage reads them
            [int(r[i]) for r in rows for i in (3, 4, 5)]
    except (ValueError, IndexError) as exc:
        raise InputError(f"{path}: malformed vertex row: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(xyz).all(axis=1))
    if bad.size:
        row = lines[body_at + bad[0]].strip()
        raise InputError(f"{path}: non-finite coordinate in vertex row {bad[0] + 1}: {row!r}")
    return PointCloud(xyz=xyz)


# -- PGM / PPM ----------------------------------------------------------------


def _parse_netpbm_header(data: bytes, magic: bytes, path: str) -> tuple[int, int, int, int]:
    """Returns (width, height, maxval, data offset)."""
    if not data.startswith(magic):
        raise InputError(f"{path}: expected {magic.decode()} file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise InputError(f"{path}: malformed header field {token[:16]!r}")
        fields.append(int(token))
    pos += 1  # single whitespace byte after maxval
    return fields[0], fields[1], fields[2], pos


def _read_netpbm(path: str, magic: bytes, maxval: int, dtype, channels: int) -> np.ndarray:
    """The (H, W) or (H, W, channels) samples of a binary PGM or PPM file
    whose maxval must be `maxval`."""
    data = _read_bytes(path)
    w, h, found, offset = _parse_netpbm_header(data, magic, path)
    if found != maxval:
        raise InputError(f"{path}: expected maxval {maxval}, got {found}")
    shape = (h, w, channels) if channels > 1 else (h, w)
    expected = w * h * channels * np.dtype(dtype).itemsize
    body = data[offset : offset + expected]
    if len(body) != expected:
        raise InputError(f"{path}: truncated {magic.decode()} payload")
    return np.frombuffer(body, dtype=dtype).reshape(shape)


def write_pgm16(path: str, values: np.ndarray) -> None:
    """Writes (H, W) samples in 0..65535, a depth map or a label image."""
    h, w = values.shape
    _write_bytes(path, f"P5\n{w} {h}\n65535\n".encode("ascii") + values.astype(">u2").tobytes())


def read_pgm16(path: str) -> np.ndarray:
    return _read_netpbm(path, b"P5", 65535, ">u2", 1).astype(np.uint16)


def write_ppm(path: str, rgb: RgbImage) -> None:
    h, w = rgb.values.shape[:2]
    _write_bytes(path, f"P6\n{w} {h}\n255\n".encode("ascii") + rgb.values.tobytes())


def read_ppm(path: str) -> RgbImage:
    return RgbImage(values=_read_netpbm(path, b"P6", 255, np.uint8, 3).copy())


# -- JSON documents -----------------------------------------------------------


def save_scene(path: str, scene: SceneTemplate) -> None:
    _write_text(path, scene.to_json_str() + "\n")


def load_scene(path: str) -> SceneTemplate:
    try:
        obj = json.loads(_read_bytes(path))
        return SceneTemplate.from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"invalid scene document {path}: {exc}") from exc


def surface_path(path: str) -> str:
    """The surface file beside a ground-truth document: ground_truth.json ->
    ground_truth.f64."""
    return os.path.splitext(path)[0] + ".f64"


def save_ground_truth(path: str, truth: GroundTruth) -> None:
    """Writes the document to path and the surfaces to surface_path(path)."""
    _write_text(path, truth.to_json_str() + "\n")
    _write_bytes(surface_path(path), truth.surface_bytes())


def load_ground_truth(path: str) -> GroundTruth:
    payload_path = surface_path(path)
    try:
        obj = json.loads(_read_bytes(path))
        points = sum(GroundTruth.surface_counts(obj))  # refuses older forms first
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"invalid ground truth document {path}: {exc}") from exc
    payload = _read_bytes(payload_path)
    if len(payload) != 24 * points:
        raise InputError(
            f"{payload_path} holds {len(payload)} bytes, but {path} gives {points} surface "
            f"points, {24 * points} bytes"
        )
    try:
        return GroundTruth.from_json(obj, payload)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"invalid ground truth document {path}: {exc}") from exc


# -- artifact directories -----------------------------------------------------


def save_artifacts(out_dir: str, artifacts: SceneArtifacts) -> None:
    """Writes a scene directory's six files. masks.pgm holds the masks exactly
    only when they are one frame-sized mask per berry, in scene.berries order,
    and no two share a pixel, as the renderer makes them: other masks raise
    ParameterError before any file is written."""
    scene, masks = artifacts.scene, artifacts.masks
    labels = np.zeros((scene.height, scene.width), dtype=np.uint16)
    if [(m.instance_id, m.ripeness, m.bits.shape) for m in masks] != [
        (b.instance_id, b.ripeness, labels.shape) for b in scene.berries
    ]:
        raise ParameterError("masks.pgm needs one frame-sized mask per berry, in berries order")
    for k, mask in enumerate(masks, start=1):
        np.copyto(labels, k, where=mask.bits)
    if np.count_nonzero(labels) != sum(np.count_nonzero(m.bits) for m in masks):
        raise ParameterError("masks overlap, so masks.pgm cannot hold them")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot create {out_dir}: {exc}") from exc
    save_scene(os.path.join(out_dir, "scene.json"), scene)
    write_ppm(os.path.join(out_dir, "rgb.ppm"), artifacts.rgb)
    write_pgm16(os.path.join(out_dir, "depth.pgm"), artifacts.depth.values)
    write_pgm16(os.path.join(out_dir, "masks.pgm"), labels)
    save_ground_truth(os.path.join(out_dir, "ground_truth.json"), artifacts.truth)


_OLDER_MASKS = (
    "; scene directories written before it keep a mask_NNN.pgm per berry: re-render the scene"
)


def load_artifacts(scene_dir: str) -> SceneArtifacts:
    if not os.path.isdir(scene_dir):
        raise InputError(f"scene directory {scene_dir} does not exist")
    for required in ("scene.json", "rgb.ppm", "depth.pgm", "masks.pgm", "ground_truth.json"):
        if not os.path.exists(os.path.join(scene_dir, required)):
            hint = _OLDER_MASKS if required == "masks.pgm" else ""
            raise InputError(f"scene artifacts missing {required} in {scene_dir}{hint}")
    scene_path = os.path.join(scene_dir, "scene.json")
    masks_path = os.path.join(scene_dir, "masks.pgm")
    scene = load_scene(scene_path)
    rgb = read_ppm(os.path.join(scene_dir, "rgb.ppm"))
    depth = DepthImage(values=read_pgm16(os.path.join(scene_dir, "depth.pgm")))
    labels = read_pgm16(masks_path)
    truth = load_ground_truth(os.path.join(scene_dir, "ground_truth.json"))

    # the files must describe one scene: one frame size, berries both know
    h, w = scene.height, scene.width
    images = [("rgb.ppm", rgb.values.shape[:2]), ("depth.pgm", depth.values.shape),
              ("masks.pgm", labels.shape)]
    for name, (ih, iw) in images:
        if (ih, iw) != (h, w):
            raise InputError(
                f"{os.path.join(scene_dir, name)}: {iw}x{ih} image does not match "
                f"the scene's {w}x{h}"
            )
    top, n = int(labels.max(initial=0)), len(scene.berries)
    if top > n:
        raise InputError(f"{masks_path}: label {top} names no berry, as scene.json has {n}")
    truth_ids = {inst.instance_id for inst in truth.instances}
    missing = [b.instance_id for b in scene.berries if b.instance_id not in truth_ids]
    if missing:
        raise InputError(f"{scene_path}: instance {missing[0]} is not a berry in ground_truth.json")
    masks = tuple(
        InstanceMask(bits=labels == k, instance_id=b.instance_id, ripeness=b.ripeness)
        for k, b in enumerate(scene.berries, start=1)
    )
    return SceneArtifacts(scene=scene, rgb=rgb, depth=depth, masks=masks, truth=truth)
