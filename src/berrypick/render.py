"""Synthetic RGB-D rendering and ground-truth sampling.

Rendering casts one ray per pixel against every triangle of every object. For
a triangle fully in front of the camera this reduces to a screen-space
point-in-triangle test on the projected vertices plus a ray-plane
intersection, so the implementation below is exact ray casting, not an
approximate rasterizer. Each triangle tests only the pixels of its clipped
screen bounding box with edge functions (Pineda 1988), and each object's
depth comes back as a crop: the union of its triangles' boxes plus that
box's corner. The crops are composited in object order into one frame of
nearest depths and one of winning object indices; a surface takes a pixel
only when strictly nearer, so a tie stays with the lower index. Instance
masks and visibility fractions come from the composite before sensor noise
is applied.

Depth corruption mimics a structured-light sensor: quantize to millimeters,
add Gaussian noise, re-quantize, then drop pixels to zero at a fixed rate.
The noise and dropout draws always cover the full frame, so a pixel's draw
does not depend on what the scene puts elsewhere.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParameterError
from .prior import StrawberryPrior
from .scene import SceneTemplate
from .types import (
    CameraIntrinsics,
    DepthImage,
    InstanceMask,
    PointCloud,
    Pose,
    RgbImage,
    Ripeness,
    json_int,
)

RIPE_COLOR = (204, 30, 48)
UNRIPE_COLOR = (120, 186, 66)
LEAF_COLOR = (26, 77, 41)


@dataclass(frozen=True)
class RenderParams:
    noise_sigma_mm: float = 1.0
    dropout_rate: float = 0.02

    def __post_init__(self):
        if not 0.0 <= self.noise_sigma_mm < np.inf:
            raise ParameterError("noise sigma must be finite and nonnegative")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ParameterError("dropout rate must lie in [0, 1)")


@dataclass
class RenderResult:
    rgb: RgbImage
    depth: DepthImage
    clean_depth: DepthImage
    masks: tuple[InstanceMask, ...]
    visibility: dict[int, float]


def _as_seedseq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _stream(seedseq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seedseq))


def rasterize(
    vertices: np.ndarray,
    faces: np.ndarray,
    k: CameraIntrinsics,
    width: int,
    height: int,
) -> tuple[np.ndarray, tuple[int, int]]:
    """Depth (meters) of one mesh over its on-screen box, and that box's
    top-left pixel (row, col); np.inf where no surface is hit.

    The box is the union of the kept faces' clipped pixel boxes. A mesh with
    no face on screen gives a (0, 0) array. All faces are processed in one
    flattened batch: every face contributes its screen bounding-box pixels to
    a single candidate list, candidates failing the in-triangle test or
    behind the camera are masked out, and surviving ray-plane depths are
    scattered into the box with a running minimum.
    """
    v = np.asarray(vertices, dtype=np.float64)
    f = np.asarray(faces, dtype=np.int64)
    if not np.isfinite(v).all():
        raise GeometryError("mesh has non-finite vertices")
    if (v[:, 2] <= 1e-6).any():
        raise GeometryError("mesh extends behind the camera")

    z = v[:, 2]
    us = k.fx * v[:, 0] / z + k.cx
    vs = k.fy * v[:, 1] / z + k.cy
    pu = us[f]  # (F, 3) screen coordinates per face corner
    pv = vs[f]

    # clip in float so the int64 cast is always defined; a box clipped to
    # nothing stays empty (u1 < u0)
    u0 = np.clip(np.ceil(pu.min(axis=1)), 0, width).astype(np.int64)
    u1 = np.clip(np.floor(pu.max(axis=1)), -1, width - 1).astype(np.int64)
    v0 = np.clip(np.ceil(pv.min(axis=1)), 0, height).astype(np.int64)
    v1 = np.clip(np.floor(pv.max(axis=1)), -1, height - 1).astype(np.int64)
    wbox = u1 - u0 + 1
    hbox = v1 - v0 + 1
    area2 = (pu[:, 1] - pu[:, 0]) * (pv[:, 2] - pv[:, 0]) - (pv[:, 1] - pv[:, 0]) * (
        pu[:, 2] - pu[:, 0]
    )
    keep = np.flatnonzero((wbox > 0) & (hbox > 0) & (np.abs(area2) > 1e-12))
    if not len(keep):
        return np.full((0, 0), np.inf), (0, 0)

    pu, pv = pu[keep], pv[keep]
    u0, v0, u1, v1 = u0[keep], v0[keep], u1[keep], v1[keep]
    wbox, hbox = wbox[keep], hbox[keep]
    sign = np.where(area2[keep] > 0, 1.0, -1.0)
    row0, col0 = int(v0.min()), int(u0.min())
    depth = np.full((int(v1.max()) - row0 + 1, int(u1.max()) - col0 + 1), np.inf)

    # Each face's box as rows and columns: gv holds the pixel row of every
    # (face, row), gu the pixel column of every (face, column). A candidate
    # pixel pairs a row with each column of the same face, row by row.
    n_faces = len(keep)
    row_face = np.repeat(np.arange(n_faces), hbox)
    col_face = np.repeat(np.arange(n_faces), wbox)
    col_start = np.cumsum(wbox) - wbox
    gv = v0[row_face] + np.arange(len(row_face)) - np.repeat(np.cumsum(hbox) - hbox, hbox)
    gu = u0[col_face] + np.arange(len(col_face)) - np.repeat(col_start, wbox)
    gv, gu = gv.astype(np.float64), gu.astype(np.float64)
    span = wbox[row_face]  # candidates per row
    row_start = np.cumsum(span) - span
    n_cand = int(span.sum())
    cand_col = np.repeat(col_start[row_face] - row_start, span) + np.arange(n_cand)

    # Edge function du * (v - pv) - dv * (u - pu): its first product depends
    # only on the row and its second only on the column, so each is computed
    # once and gathered per candidate, the same float operations as per pixel.
    # Negating a clockwise face's differences negates the edge function
    # exactly, so the inside test is a plain >= 0.
    inside = np.ones(n_cand, dtype=bool)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        du = sign * (pu[:, b] - pu[:, a])
        dv = sign * (pv[:, b] - pv[:, a])
        row_term = du[row_face] * (gv - pv[row_face, a])
        col_term = dv[col_face] * (gu - pu[col_face, a])
        inside &= np.repeat(row_term, span) - col_term[cand_col] >= 0
    idx = np.flatnonzero(inside)
    if not len(idx):
        return depth, (row0, col0)

    cand_row = np.repeat(np.arange(len(row_face)), span)[idx]
    face = row_face[cand_row]
    gu, gv = gu[cand_col[idx]], gv[cand_row]
    tri = v[f[keep]]
    n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    # pixel ray (du, dv, 1): the intersection parameter equals z-depth
    denom = n[face, 0] * (gu - k.cx) / k.fx + n[face, 1] * (gv - k.cy) / k.fy + n[face, 2]
    plane = np.einsum("ij,ij->i", n, tri[:, 0])[face]
    safe = np.abs(denom) > 1e-15
    t = np.where(safe, plane / np.where(safe, denom, 1.0), np.inf)
    hit = safe & (t > 1e-6)
    if hit.any():
        cell = (gv[hit] - row0) * depth.shape[1] + (gu[hit] - col0)
        np.minimum.at(depth.reshape(-1), cell.astype(np.int64), t[hit])
    return depth, (row0, col0)


def render_rgbd(
    scene: SceneTemplate,
    prior: StrawberryPrior,
    params: RenderParams = RenderParams(),
    seed: int | np.random.SeedSequence = 0,
) -> RenderResult:
    """Render the scene to RGB, noisy depth, per-berry masks and visibility."""
    h, w = scene.height, scene.width
    k = scene.intrinsics

    meshes: list[tuple[np.ndarray, np.ndarray]] = []
    colors: list[tuple[int, int, int]] = []
    for berry in scene.berries:
        meshes.append((berry.pose.apply(prior.vertices), prior.faces))
        colors.append(RIPE_COLOR if berry.ripeness is Ripeness.RIPE else UNRIPE_COLOR)
    for occ in scene.occluders:
        meshes.append(occ.mesh())
        colors.append(LEAF_COLOR)

    # composite mesh by mesh, in index order, each inside its own window; the
    # strict < leaves an exact tie with the lower mesh index
    nearest = np.full((h, w), np.inf)
    winner = np.full((h, w), -1, dtype=np.int32)
    windows = []
    solo = []
    for i, (mv, mf) in enumerate(meshes):
        crop, (r0, c0) = rasterize(mv, mf, k, w, h)
        win = (slice(r0, r0 + crop.shape[0]), slice(c0, c0 + crop.shape[1]))
        closer = crop < nearest[win]
        np.copyto(nearest[win], crop, where=closer)
        np.copyto(winner[win], i, where=closer)
        windows.append(win)
        solo.append(int(np.isfinite(crop).sum()))
    valid = winner >= 0

    rgb = np.zeros((h, w, 3), dtype=np.uint8)
    rgb[valid] = np.array(colors, dtype=np.uint8).reshape(-1, 3)[winner[valid]]
    masks = []
    visibility: dict[int, float] = {}
    for i, berry in enumerate(scene.berries):
        own = winner[windows[i]] == i
        bits = np.zeros((h, w), dtype=bool)
        bits[windows[i]] = own
        masks.append(
            InstanceMask(bits=bits, instance_id=berry.instance_id, ripeness=berry.ripeness)
        )
        visibility[berry.instance_id] = float(own.sum()) / solo[i] if solo[i] else 0.0

    clean_mm = np.zeros((h, w), dtype=np.uint16)
    mm = np.rint(nearest[valid] * 1000.0)
    clean_mm[valid] = np.clip(mm, 0, 65535).astype(np.uint16)

    noise_ss, drop_ss = _as_seedseq(seed).spawn(2)
    noisy = clean_mm.copy()
    live = clean_mm > 0
    if params.noise_sigma_mm > 0:
        jitter = _stream(noise_ss).normal(0.0, params.noise_sigma_mm, size=(h, w))
        noisy[live] = np.clip(np.rint(clean_mm[live] + jitter[live]), 0, 65535).astype(np.uint16)
    if params.dropout_rate > 0:
        dropped = _stream(drop_ss).random((h, w)) < params.dropout_rate
        noisy[dropped & live] = 0

    return RenderResult(
        rgb=RgbImage(values=rgb),
        depth=DepthImage(values=noisy),
        clean_depth=DepthImage(values=clean_mm),
        masks=tuple(masks),
        visibility=visibility,
    )


def _encode_surface(cloud: PointCloud) -> str:
    """Padded base64 of the (N, 3) coordinates as little-endian float64,
    row-major: exact, and far cheaper to write and read than decimal text."""
    return base64.b64encode(cloud.xyz.astype("<f8").tobytes()).decode("ascii")


def _decode_surface(text) -> PointCloud:
    if not isinstance(text, str):
        raise TypeError(f"a surface must be a base64 string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"a surface is not valid base64: {exc}") from exc
    if not raw or len(raw) % 24:
        raise ValueError(f"a surface holds {len(raw)} bytes, not a positive multiple of 24")
    return PointCloud(xyz=np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(-1, 3))


@dataclass(frozen=True)
class GroundTruthInstance:
    """True pose and surface sampling for one berry."""

    instance_id: int
    ripeness: Ripeness
    pose: Pose
    surface: PointCloud

    @property
    def surfaces(self) -> tuple[PointCloud]:
        """(surface,), the form perfbench's artifact round-trip check zips."""
        return (self.surface,)

    def to_json(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "ripeness": self.ripeness.value,
            **self.pose.to_json(),
            "surface": _encode_surface(self.surface),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GroundTruthInstance":
        if "surfaces" in obj:
            raise ValueError("surfaces are in the older three-surface form; re-render the scene")
        return cls(
            instance_id=json_int(obj["instance_id"], "instance_id"),
            ripeness=Ripeness(obj["ripeness"]),
            pose=Pose.from_json(obj),
            surface=_decode_surface(obj["surface"]),
        )


@dataclass(frozen=True)
class GroundTruth:
    instances: tuple[GroundTruthInstance, ...]

    def __post_init__(self):
        ids = [inst.instance_id for inst in self.instances]
        dup = next((i for i in ids if ids.count(i) > 1), None)
        if dup is not None:
            raise ParameterError(f"instance {dup} appears more than once")

    def instance(self, instance_id: int) -> GroundTruthInstance:
        for inst in self.instances:
            if inst.instance_id == instance_id:
                return inst
        raise KeyError(instance_id)

    def to_json(self) -> dict:
        return {"instances": [inst.to_json() for inst in self.instances]}

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def from_json(cls, obj: dict) -> "GroundTruth":
        return cls(
            instances=tuple(GroundTruthInstance.from_json(o) for o in obj["instances"])
        )


def sample_ground_truth(
    scene: SceneTemplate,
    prior: StrawberryPrior,
    seed: int | np.random.SeedSequence = 0,
) -> GroundTruth:
    """Independent per-berry surface samplings, one stream per berry."""
    ss = _as_seedseq(seed)
    children = ss.spawn(len(scene.berries)) if scene.berries else []
    instances = []
    for berry, child in zip(scene.berries, children):
        instances.append(
            GroundTruthInstance(
                instance_id=berry.instance_id,
                ripeness=berry.ripeness,
                pose=berry.pose,
                surface=prior.sample_ground_truth(berry.pose, _stream(child)),
            )
        )
    return GroundTruth(instances=tuple(instances))
