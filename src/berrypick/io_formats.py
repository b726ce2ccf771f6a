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
re-render. Depth images are 16-bit big-endian PGM with millimeter values;
masks are 8-bit PGM (nonzero = member) with a JSON sidecar carrying identity
and ripeness.

Read-side problems (missing or malformed files, JSON that is not UTF-8)
raise InputError; write-side failures raise StorageError. The CLI maps these
to exit codes 1 and 2.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import InputError, StorageError
from .pipeline import SceneArtifacts
from .render import GroundTruth
from .scene import SceneTemplate
from .types import DepthImage, InstanceMask, PointCloud, RgbImage, Ripeness, json_int


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


def write_pgm16(path: str, depth: DepthImage) -> None:
    header = f"P5\n{depth.width} {depth.height}\n65535\n".encode("ascii")
    _write_bytes(path, header + depth.values.astype(">u2").tobytes())


def read_pgm16(path: str) -> DepthImage:
    return DepthImage(values=_read_netpbm(path, b"P5", 65535, ">u2", 1).astype(np.uint16))


def write_ppm(path: str, rgb: RgbImage) -> None:
    h, w = rgb.values.shape[:2]
    _write_bytes(path, f"P6\n{w} {h}\n255\n".encode("ascii") + rgb.values.tobytes())


def read_ppm(path: str) -> RgbImage:
    return RgbImage(values=_read_netpbm(path, b"P6", 255, np.uint8, 3).copy())


def write_mask(path: str, mask: InstanceMask) -> None:
    """Writes <path>.pgm plus a <path>.json sidecar."""
    h, w = mask.bits.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    _write_bytes(path + ".pgm", header + (mask.bits.view(np.uint8) * np.uint8(255)).tobytes())
    meta = {"instance_id": mask.instance_id, "ripeness": mask.ripeness.value}
    _write_text(path + ".json", json.dumps(meta, sort_keys=True) + "\n")


def read_mask(path: str) -> InstanceMask:
    """path without extension; reads <path>.pgm and <path>.json."""
    bits = _read_netpbm(path + ".pgm", b"P5", 255, np.uint8, 1) > 0
    data = _read_bytes(path + ".json")
    try:
        meta = json.loads(data)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError alike
        raise InputError(f"cannot read mask sidecar {path}.json: {exc}") from exc
    try:
        instance_id = json_int(meta["instance_id"], "instance_id")
        ripeness = Ripeness(meta["ripeness"])
    except (TypeError, KeyError, ValueError) as exc:
        raise InputError(f"mask sidecar {path}.json needs instance_id and ripeness: {exc!r}") from exc
    return InstanceMask(bits=bits, instance_id=instance_id, ripeness=ripeness)


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
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot create {out_dir}: {exc}") from exc
    save_scene(os.path.join(out_dir, "scene.json"), artifacts.scene)
    write_ppm(os.path.join(out_dir, "rgb.ppm"), artifacts.rgb)
    write_pgm16(os.path.join(out_dir, "depth.pgm"), artifacts.depth)
    for mask in artifacts.masks:
        write_mask(os.path.join(out_dir, f"mask_{mask.instance_id:03d}"), mask)
    save_ground_truth(os.path.join(out_dir, "ground_truth.json"), artifacts.truth)


def load_artifacts(scene_dir: str) -> SceneArtifacts:
    scene_path = os.path.join(scene_dir, "scene.json")
    if not os.path.isdir(scene_dir):
        raise InputError(f"scene directory {scene_dir} does not exist")
    for required in ("scene.json", "rgb.ppm", "depth.pgm", "ground_truth.json"):
        if not os.path.exists(os.path.join(scene_dir, required)):
            raise InputError(f"scene artifacts missing {required} in {scene_dir}")
    scene = load_scene(scene_path)
    rgb = read_ppm(os.path.join(scene_dir, "rgb.ppm"))
    depth = read_pgm16(os.path.join(scene_dir, "depth.pgm"))
    truth = load_ground_truth(os.path.join(scene_dir, "ground_truth.json"))
    stems = sorted(
        name[:-4]
        for name in os.listdir(scene_dir)
        if name.startswith("mask_") and name.endswith(".pgm")
    )
    masks = tuple(read_mask(os.path.join(scene_dir, stem)) for stem in stems)

    # the files must describe one scene: one frame size, berries both know
    h, w = scene.height, scene.width
    images = [("rgb.ppm", rgb.values.shape[:2]), ("depth.pgm", depth.values.shape)]
    images += [(f"{stem}.pgm", mask.bits.shape) for stem, mask in zip(stems, masks)]
    for name, (ih, iw) in images:
        if (ih, iw) != (h, w):
            raise InputError(
                f"{os.path.join(scene_dir, name)}: {iw}x{ih} image does not match "
                f"the scene's {w}x{h}"
            )
    berry_ids = {b.instance_id for b in scene.berries}
    truth_ids = {inst.instance_id for inst in truth.instances}
    seen: dict[int, str] = {}
    for stem, mask in zip(stems, masks):
        first = seen.setdefault(mask.instance_id, stem)
        if first != stem:
            raise InputError(
                f"{os.path.join(scene_dir, first)}.json and {os.path.join(scene_dir, stem)}.json "
                f"both label instance {mask.instance_id}"
            )
        for ids, doc in ((berry_ids, "scene.json"), (truth_ids, "ground_truth.json")):
            if mask.instance_id not in ids:
                raise InputError(
                    f"{os.path.join(scene_dir, stem)}.json: instance {mask.instance_id} "
                    f"is not a berry in {doc}"
                )
    return SceneArtifacts(scene=scene, rgb=rgb, depth=depth, masks=masks, truth=truth)
