"""File formats: ASCII PLY clouds, PGM/PPM images, JSON documents.

PLY and scene coordinates are written with repr(), which emits the shortest
decimal string that round-trips to the same float64, so save/load is exact.
Depth images are 16-bit big-endian PGM with millimeter values. The RGB image
is a full-frame binary PPM, written from the image's crop a band of rows at
a time and cropped again when read.

Binary files are written as a header and then array buffers, with no joined
copy of the file, and read into one bytearray that the returned arrays wrap,
big-endian samples swapped in place.

A scene directory holds five files, and scene.json's "berries" list indexes
the others: masks.pgm, a label image in the same PGM format, gives berry k's
pixels the value k (0 is no berry), and ground_truth.f64 holds berry k's
SURFACE_POINTS-point true surface as little-endian float64 (x, y, z) rows
[k * SURFACE_POINTS, (k + 1) * SURFACE_POINTS). Each berry's id, ripeness
and pose are in scene.json alone; a leftover ground_truth.json is never
opened. A directory without masks.pgm, written when each berry had its own
mask_NNN.pgm, is refused with a message to re-render.

read_json and write_json are the one JSON layer: every JSON document is
read through read_json, whose InputError starts with the file's path, and
written through write_json, sorted, indented and refusing NaN.

Read-side problems (missing or malformed files, JSON that is not UTF-8 or
nests too deeply) raise InputError; write-side failures raise StorageError.
The CLI maps these to exit codes 1 and 2.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from .errors import BerrypickError, InputError, ParameterError, StorageError
from .pipeline import SceneArtifacts
from .prior import SURFACE_POINTS
from .render import GroundTruth
from .scene import SceneTemplate
from .types import DepthImage, InstanceMask, PointCloud, RgbImage, nonzero_box


def _write_parts(path: str, parts) -> None:
    """Writes each bytes-like part of the iterable in turn, a header and
    then arrays, so no joined copy of the file is made."""
    try:
        with open(path, "wb") as fh:
            for part in parts:
                fh.write(part)
    except OSError as exc:
        raise StorageError(f"failed writing {path}: {exc}") from exc


def _write_bytes(path: str, data: bytes) -> None:
    _write_parts(path, [data])


def _write_text(path: str, text: str) -> None:
    _write_bytes(path, text.encode("utf-8"))


def _read_bytes(path: str) -> bytearray:
    """The file's bytes in one buffer sized from its status, so an array can
    wrap them without a copy."""
    try:
        with open(path, "rb") as fh:
            data = bytearray(os.fstat(fh.fileno()).st_size)
            del data[fh.readinto(data) :]  # a file that shrank since fstat
            data += fh.read()  # one that grew, or a pipe
            return data
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _native(values: np.ndarray) -> np.ndarray:
    """values in the machine's byte order, swapped in place when it differs."""
    if values.dtype.isnative:
        return values
    return values.byteswap(inplace=True).view(values.dtype.newbyteorder())


def read_json(path: str, parse):
    """parse(document) for the JSON document at path. Bytes that are not
    UTF-8 or not JSON, nesting too deep to parse, and a KeyError, TypeError,
    ValueError or library error from parse raise InputError prefixed by path."""
    data = _read_bytes(path)
    try:
        obj = json.loads(data)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError alike
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InputError(f"{path} is not valid JSON: nested too deeply") from None
    try:
        return parse(obj)
    except (KeyError, TypeError, ValueError, BerrypickError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def write_json(path: str, obj) -> None:
    """Writes obj as JSON with sorted keys, two-space indent and a final
    newline. A NaN or infinity raises ParameterError naming the file, and
    nothing is written."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ParameterError(f"{path}: {exc}") from exc
    _write_text(path, text + "\n")


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
            raise InputError(f"{path}: malformed header field {bytes(token[:16])!r}")
        fields.append(int(token))
    if pos == len(data):
        raise InputError(f"{path}: header ends without the whitespace byte after maxval")
    if max(fields[:2]) > 2**31 - 1:
        raise InputError(f"{path}: {fields[0]}x{fields[1]} image is too large")
    return fields[0], fields[1], fields[2], pos + 1  # past that whitespace byte


def _read_netpbm(path: str, magic: bytes, maxval: int, dtype, channels: int) -> np.ndarray:
    """The (H, W) or (H, W, channels) samples of a binary PGM or PPM file
    whose maxval must be `maxval`, in native byte order over the file's
    buffer."""
    data = _read_bytes(path)
    w, h, found, offset = _parse_netpbm_header(data, magic, path)
    if found != maxval:
        raise InputError(f"{path}: expected maxval {maxval}, got {found}")
    shape = (h, w, channels) if channels > 1 else (h, w)
    expected = w * h * channels * np.dtype(dtype).itemsize
    found = max(len(data) - offset, 0)
    if found != expected:
        raise InputError(f"{path}: {found} payload bytes, but the {w}x{h} header gives {expected}")
    return _native(np.frombuffer(data, dtype=dtype, offset=offset).reshape(shape))


def _netpbm_header(magic: str, width: int, height: int, maxval: int) -> bytes:
    return f"{magic}\n{width} {height}\n{maxval}\n".encode("ascii")


def write_pgm16(path: str, values: np.ndarray) -> None:
    """Writes (H, W) samples in 0..65535, a depth map or a label image."""
    h, w = values.shape
    samples = np.ascontiguousarray(values, dtype=">u2")
    _write_parts(path, [_netpbm_header("P5", w, h, 65535), samples])


def read_pgm16(path: str) -> np.ndarray:
    return _read_netpbm(path, b"P5", 65535, ">u2", 1)


# RGB bytes that write_ppm builds from an image's crop and writes at a time
_BAND_BYTES = 1 << 18


def write_ppm(path: str, rgb: RgbImage) -> None:
    """Writes the full frame, built from the crop a band of rows at a time."""
    h, w = rgb.shape
    rows = max(1, _BAND_BYTES // max(1, 3 * w))
    bands = (rgb.band(r, min(r + rows, h)) for r in range(0, h, rows))
    _write_parts(path, itertools.chain([_netpbm_header("P6", w, h, 255)], bands))


def read_ppm(path: str) -> RgbImage:
    return RgbImage(crop=_read_netpbm(path, b"P6", 255, np.uint8, 3))


# -- artifact directories -----------------------------------------------------


def save_artifacts(out_dir: str, artifacts: SceneArtifacts) -> None:
    """Writes a scene directory's five files. Masks and truth must be as the
    renderer and sample_ground_truth make them: one per berry, in
    scene.berries order, with that berry's id (masks: its ripeness, the frame
    size, no shared pixel; truth: its pose, a SURFACE_POINTS-point surface).
    Anything else raises ParameterError before any file is written."""
    scene, masks, truth = artifacts.scene, artifacts.masks, artifacts.truth
    labels = np.zeros((scene.height, scene.width), dtype=np.uint16)
    if [(m.instance_id, m.ripeness, m.shape) for m in masks] != [
        (b.instance_id, b.ripeness, labels.shape) for b in scene.berries
    ]:
        raise ParameterError("masks.pgm needs one frame-sized mask per berry, in berries order")
    if [(t.instance_id, t.pose.to_json(), t.surface.xyz.shape) for t in truth.instances] != [
        (b.instance_id, b.pose.to_json(), (SURFACE_POINTS, 3)) for b in scene.berries
    ]:
        raise ParameterError(
            f"ground_truth.f64 needs one {SURFACE_POINTS}-point surface per berry, in berries "
            "order, with its berry's id and pose"
        )
    for k, mask in enumerate(masks, start=1):
        np.copyto(labels[mask.window], k, where=mask.crop)
    if np.count_nonzero(labels) != sum(m.pixel_count() for m in masks):
        raise ParameterError("masks overlap, so masks.pgm cannot hold them")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot create {out_dir}: {exc}") from exc
    write_json(os.path.join(out_dir, "scene.json"), scene.to_json())
    write_ppm(os.path.join(out_dir, "rgb.ppm"), artifacts.rgb)
    write_pgm16(os.path.join(out_dir, "depth.pgm"), artifacts.depth.values)
    write_pgm16(os.path.join(out_dir, "masks.pgm"), labels)
    _write_parts(
        os.path.join(out_dir, "ground_truth.f64"),
        (np.ascontiguousarray(t.surface.xyz, dtype="<f8") for t in truth.instances),
    )


_OLDER_MASKS = (
    "; scene directories written before it keep a mask_NNN.pgm per berry: re-render the scene"
)


def load_artifacts(scene_dir: str) -> SceneArtifacts:
    if not os.path.isdir(scene_dir):
        raise InputError(f"scene directory {scene_dir} does not exist")
    for required in ("scene.json", "rgb.ppm", "depth.pgm", "masks.pgm", "ground_truth.f64"):
        if not os.path.exists(os.path.join(scene_dir, required)):
            hint = _OLDER_MASKS if required == "masks.pgm" else ""
            raise InputError(f"scene artifacts missing {required} in {scene_dir}{hint}")
    masks_path = os.path.join(scene_dir, "masks.pgm")
    scene = read_json(os.path.join(scene_dir, "scene.json"), SceneTemplate.from_json)
    rgb = read_ppm(os.path.join(scene_dir, "rgb.ppm"))
    depth = DepthImage(values=read_pgm16(os.path.join(scene_dir, "depth.pgm")))
    labels = read_pgm16(masks_path)
    truth_path, n = os.path.join(scene_dir, "ground_truth.f64"), len(scene.berries)
    payload = _read_bytes(truth_path)
    if len(payload) != 24 * SURFACE_POINTS * n:
        raise InputError(f"{truth_path} holds {len(payload)} bytes, but scene.json's {n} "
                         f"berries take {24 * SURFACE_POINTS * n}")
    xyz = _native(np.frombuffer(payload, dtype="<f8")).reshape(n, SURFACE_POINTS, 3)
    if not np.isfinite(xyz).all():
        bad = np.flatnonzero(~np.isfinite(xyz.reshape(-1, 3)).all(axis=1))
        raise InputError(f"{truth_path}: non-finite coordinate in row {bad[0]}")
    truth = GroundTruth.of(scene, [PointCloud(xyz=surface) for surface in xyz])

    # the images must show the scene: one frame size, labels it knows
    h, w = scene.height, scene.width
    images = [("rgb.ppm", rgb.shape), ("depth.pgm", depth.values.shape),
              ("masks.pgm", labels.shape)]
    for name, (ih, iw) in images:
        if (ih, iw) != (h, w):
            raise InputError(
                f"{os.path.join(scene_dir, name)}: {iw}x{ih} image does not match "
                f"the scene's {w}x{h}"
            )
    top = int(labels.max(initial=0))
    if top > n:
        raise InputError(f"{masks_path}: label {top} names no berry, as scene.json has {n}")
    # every label lies in the labelled box, so each berry's crop is cut from it
    box = nonzero_box(labels)
    offset, labelled = (box[0].start, box[1].start), labels[box]
    masks = tuple(
        InstanceMask(crop=labelled == k, offset=offset, shape=labels.shape,
                     instance_id=b.instance_id, ripeness=b.ripeness)
        for k, b in enumerate(scene.berries, start=1)
    )
    return SceneArtifacts(scene=scene, rgb=rgb, depth=depth, masks=masks, truth=truth)
