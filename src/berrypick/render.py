"""Synthetic RGB-D rendering and ground-truth sampling.

Rendering casts one ray per pixel against every triangle of every object. For
a triangle fully in front of the camera this reduces to a screen-space
point-in-triangle test on the projected vertices plus a ray-plane
intersection, so the implementation below is exact ray casting, not an
approximate rasterizer. Each triangle tests every pixel of its clipped
screen bounding box with edge functions (Pineda 1988), and each object's
depth comes back as a crop: the union of its triangles' boxes plus that
box's corner. The crops are composited in object order over the union of
their boxes, into one window of nearest depths and one of winning object
indices; a surface takes a pixel only when strictly nearer, so a tie stays
with the lower index. rasterize casts a berry against its front faces only
(see render_rgbd). Instance masks and visibility fractions come from the
composite before sensor noise is applied. The RGB image and each mask hold
only the crop of that window that they draw; depth stays full-frame, since
every preprocessing stage reads it whole.

Depth corruption mimics a structured-light sensor: quantize to millimeters,
add Gaussian noise, re-quantize, then drop pixels to zero at a fixed rate.
Each live pixel takes the draws a row-major, full-frame draw would give it,
so a pixel's draw does not depend on what the scene puts elsewhere, but only
the live span is drawn: the Gaussians up to the last live pixel, and the
dropout uniforms from the first. The span is drawn in chunks of
_DRAW_CHUNK pixels, so the draws held at once stay a fixed size however
much of the frame is live.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GeometryError, ParameterError
from .prior import StrawberryPrior
from .scene import SceneTemplate
from .types import (
    ArrayRecord,
    CameraIntrinsics,
    DepthImage,
    InstanceMask,
    PointCloud,
    Pose,
    RgbImage,
    Ripeness,
)

RIPE_COLOR = (204, 30, 48)
UNRIPE_COLOR = (120, 186, 66)
LEAF_COLOR = (26, 77, 41)

_DRAW_CHUNK = 2**15  # sensor-noise draws _corrupt holds at once


@dataclass(frozen=True)
class RenderParams:
    noise_sigma_mm: float = 1.0
    dropout_rate: float = 0.02

    def __post_init__(self):
        if not 0.0 <= self.noise_sigma_mm < np.inf:
            raise ParameterError("noise sigma must be finite and nonnegative")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ParameterError("dropout rate must lie in [0, 1)")


@dataclass(frozen=True, eq=False)
class RenderResult(ArrayRecord):
    rgb: RgbImage
    depth: DepthImage
    clean_depth: DepthImage
    masks: tuple[InstanceMask, ...]
    visibility: dict[int, float]


def _as_seedseq(seed) -> np.random.SeedSequence:
    """A SeedSequence of its own for each call. A passed sequence is copied
    (same entropy, spawn key and pool size, no children spawned), so spawning
    from the result never advances the caller's object, and one seed gives
    one draw however often it is passed."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
        )
    return np.random.SeedSequence(seed)


def _stream(seedseq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seedseq))


def rasterize(
    vertices: np.ndarray,
    faces: np.ndarray,
    k: CameraIntrinsics,
    width: int,
    height: int,
    winding: int = 0,
) -> tuple[np.ndarray, tuple[int, int]]:
    """Depth (meters) of one mesh over its on-screen box, and that box's
    top-left pixel (row, col); np.inf where no surface is hit.

    winding is the mesh's StrawberryPrior.winding: with +1 or -1 only the
    faces not clearly turned away from the camera are cast, those whose
    screen-space doubled area, signed by the winding, is below 1e-9
    (front-facing and edge-on faces); with 0 every face is cast. The box is
    the union of the kept faces' clipped pixel boxes. A mesh with no face on
    screen gives a (0, 0) array. All faces are processed in one flattened
    batch: every pixel of each face's screen bounding box joins a single
    candidate list, candidates failing the in-triangle test or behind the
    camera are masked out, and surviving ray-plane depths are scattered
    into the box with a running minimum.
    """
    v = np.asarray(vertices, dtype=np.float64)
    f = np.asarray(faces, dtype=np.int64)
    if not np.isfinite(v).all():
        raise GeometryError("mesh has non-finite vertices")
    if (v[:, 2] <= 1e-6).any():
        raise GeometryError("mesh extends behind the camera")

    z = v[:, 2]
    pu = (k.fx * v[:, 0] / z + k.cx)[f]  # (F, 3) screen coordinates per face corner
    pv = (k.fy * v[:, 1] / z + k.cy)[f]
    # area2 = fx fy / (z0 z1 z2) * (n . p0) with n the face's right-hand
    # normal, so it is positive exactly where that normal points away
    area2 = (pu[:, 1] - pu[:, 0]) * (pv[:, 2] - pv[:, 0]) - (pv[:, 1] - pv[:, 0]) * (
        pu[:, 2] - pu[:, 0]
    )
    if winding:
        front = winding * area2 < 1e-9
        f, pu, pv, area2 = f[front], pu[front], pv[front], area2[front]

    # clip in float so the int64 cast is always defined; a box clipped to
    # nothing stays empty (u1 < u0)
    u0 = np.clip(np.ceil(pu.min(axis=1)), 0, width).astype(np.int64)
    u1 = np.clip(np.floor(pu.max(axis=1)), -1, width - 1).astype(np.int64)
    v0 = np.clip(np.ceil(pv.min(axis=1)), 0, height).astype(np.int64)
    v1 = np.clip(np.floor(pv.max(axis=1)), -1, height - 1).astype(np.int64)
    wbox = u1 - u0 + 1
    hbox = v1 - v0 + 1
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
    # (face, row), gu the pixel column of every (face, column).
    n_faces = len(keep)
    row_face = np.repeat(np.arange(n_faces), hbox)
    col_face = np.repeat(np.arange(n_faces), wbox)
    col_start = np.cumsum(wbox) - wbox
    gv = v0[row_face] + np.arange(len(row_face)) - np.repeat(np.cumsum(hbox) - hbox, hbox)
    gu = u0[col_face] + np.arange(len(col_face)) - np.repeat(col_start, wbox)
    gv, gu = gv.astype(np.float64), gu.astype(np.float64)

    # Edge function du * (v - pv) - dv * (u - pu) of each face's edges a -> b
    # (row a of du, dv and the row terms): its first product depends only on
    # the row and its second only on the column, so each is computed once and
    # gathered per candidate, the same float operations as per pixel.
    # Negating a clockwise face's differences negates the edge function
    # exactly, so the inside test is a plain >= 0.
    corner_u, corner_v = np.ascontiguousarray(pu.T), np.ascontiguousarray(pv.T)
    du = sign * (corner_u[[1, 2, 0]] - corner_u)
    dv = sign * (corner_v[[1, 2, 0]] - corner_v)
    row_terms = du.take(row_face, axis=1) * (gv - corner_v.take(row_face, axis=1))
    col_terms = dv.take(col_face, axis=1) * (gu - corner_u.take(col_face, axis=1))

    span = wbox[row_face]  # candidates per row
    row_start = np.cumsum(span) - span
    n_cand = int(span.sum())
    # a candidate's index into gu: its face's first column plus its place
    # in the row
    cand_col = np.repeat(col_start[row_face] - row_start, span) + np.arange(n_cand)
    inside = np.ones(n_cand, dtype=bool)
    for row_term, col_term in zip(row_terms, col_terms):
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
    nu, nv, nz = np.ascontiguousarray(n.T)
    denom = nu[face] * (gu - k.cx) / k.fx + nv[face] * (gv - k.cy) / k.fy + nz[face]
    plane = np.einsum("ij,ij->i", n, tri[:, 0])[face]
    safe = np.abs(denom) > 1e-15
    t = np.where(safe, plane / np.where(safe, denom, 1.0), np.inf)
    hit = safe & (t > 1e-6)
    if hit.any():
        cell = (gv[hit] - row0) * depth.shape[1] + (gu[hit] - col0)
        np.minimum.at(depth.reshape(-1), cell.astype(np.int64), t[hit])
    return depth, (row0, col0)


def _composite(
    scene: SceneTemplate, prior: StrawberryPrior
) -> tuple[RgbImage, DepthImage, tuple[InstanceMask, ...], dict[int, float]]:
    """The clean frame: RGB, depth in millimeters, per-berry masks and
    visibility."""
    h, w = scene.height, scene.width
    k = scene.intrinsics

    meshes: list[tuple[np.ndarray, np.ndarray, int]] = []
    colors: list[tuple[int, int, int]] = []
    for berry in scene.berries:
        meshes.append((berry.pose.apply(prior.vertices), prior.faces, prior.winding))
        colors.append(RIPE_COLOR if berry.ripeness is Ripeness.RIPE else UNRIPE_COLOR)
    for occ in scene.occluders:  # open leaves: both sides can face the camera
        meshes.append((*occ.mesh(), 0))
        colors.append(LEAF_COLOR)

    # everything drawn lies in the union of the non-empty crops' windows
    crops = [rasterize(mv, mf, k, w, h, wind) for mv, mf, wind in meshes]
    drawn = np.array(
        [(r0, c0, r0 + c.shape[0], c0 + c.shape[1]) for c, (r0, c0) in crops if c.size]
        or [(0, 0, 0, 0)]
    )
    top, left = drawn[:, :2].min(axis=0)
    bottom, right = drawn[:, 2:].max(axis=0)
    frame = (slice(top, bottom), slice(left, right))

    # composite mesh by mesh, in index order, each inside its own window; the
    # strict < leaves an exact tie with the lower mesh index
    nearest = np.full((bottom - top, right - left), np.inf)
    winner = np.full(nearest.shape, -1, dtype=np.int32)
    windows = []
    solo = []
    for i, (crop, (r0, c0)) in enumerate(crops):
        r0, c0 = (r0 - top, c0 - left) if crop.size else (0, 0)
        win = (slice(r0, r0 + crop.shape[0]), slice(c0, c0 + crop.shape[1]))
        closer = crop < nearest[win]
        np.copyto(nearest[win], crop, where=closer)
        np.copyto(winner[win], i, where=closer)
        windows.append(win)
        solo.append(int(np.isfinite(crop).sum()))

    # the palette's last row is the background, which winner -1 selects
    palette = np.array([*colors, (0, 0, 0)], dtype=np.uint8)
    rgb = RgbImage(crop=np.take(palette, winner, axis=0), offset=(top, left), shape=(h, w))
    masks = []
    visibility: dict[int, float] = {}
    for i, berry in enumerate(scene.berries):
        rows, cols = windows[i]
        own = winner[rows, cols] == i
        masks.append(
            InstanceMask(crop=own, offset=(top + rows.start, left + cols.start), shape=(h, w),
                         instance_id=berry.instance_id, ripeness=berry.ripeness)
        )
        visibility[berry.instance_id] = float(own.sum()) / solo[i] if solo[i] else 0.0

    clean_mm = np.zeros((h, w), dtype=np.uint16)
    valid = winner >= 0
    mm = np.rint(nearest[valid] * 1000.0)
    clean_mm[frame][valid] = np.clip(mm, 0, 65535).astype(np.uint16)
    return rgb, DepthImage(values=clean_mm), tuple(masks), visibility


def _live_span(depth: np.ndarray) -> tuple[int, int]:
    """The row-major index of a depth frame's first live pixel and one past
    its last; (0, 0) when none is live."""
    rows = np.flatnonzero(depth.any(axis=1))
    if not len(rows):
        return 0, 0
    top, bottom, width = int(rows[0]), int(rows[-1]), depth.shape[1]
    first = top * width + int(np.flatnonzero(depth[top])[0])
    return first, bottom * width + int(np.flatnonzero(depth[bottom])[-1]) + 1


def _corrupt(
    clean: DepthImage, params: RenderParams, seed: int | np.random.SeedSequence
) -> DepthImage:
    """Sensor noise and dropout on a clean depth frame.

    Pixel j of the row-major frame takes the j-th Gaussian and the j-th
    uniform of the seed's two streams, as a full-frame draw would give it,
    but only the live span is drawn: the Gaussians up to the last live pixel
    (a prefix of the full-frame draw) and the uniforms from the first live
    pixel rounded down to a multiple of 4, reached by advancing the Philox
    counter, whose every step yields 4 doubles. The span is walked in chunks
    of _DRAW_CHUNK pixels, each drawing its part of both streams, which
    consumes each stream as one draw of the whole span would; so only one
    chunk's draws and live pixels are held at once.
    """
    noise_ss, drop_ss = _as_seedseq(seed).spawn(2)
    sigma, rate = params.noise_sigma_mm, params.dropout_rate
    source = clean.values.reshape(-1)
    noisy = clean.values.copy()
    flat = noisy.reshape(-1)
    first, end = _live_span(clean.values)
    start = first // 4 * 4
    noise, drop = _stream(noise_ss), _stream(drop_ss)
    drop.bit_generator.advance(start // 4)
    for lo in range(0, end, _DRAW_CHUNK):
        hi = min(lo + _DRAW_CHUNK, end)
        cells = np.flatnonzero(source[lo:hi])
        chunk = flat[lo:hi]
        if sigma > 0:
            moved = noise.normal(0.0, sigma, size=hi - lo)[cells]
            moved += chunk[cells]
            chunk[cells] = np.clip(np.rint(moved, out=moved), 0, 65535, out=moved)
        if rate > 0 and hi > start:
            skip = max(start - lo, 0)  # no cell lies before start
            chunk[cells[drop.random(hi - lo - skip)[cells - skip] < rate]] = 0
    return DepthImage(values=noisy)


def render_rgbd(
    scene: SceneTemplate,
    prior: StrawberryPrior,
    params: RenderParams = RenderParams(),
    seed: int | np.random.SeedSequence = 0,
) -> RenderResult:
    """Render the scene to RGB, noisy depth, per-berry masks and visibility.

    Berries are rasterized with the prior's winding, so each is cast
    against its front faces only. A ray's nearest hit on a closed surface
    seen from outside is where it enters, on a face turned toward the
    camera. The camera is always outside a berry: a berry around it would
    have vertices at z <= 1e-6, which rasterize rejects. The rule assumes a
    prior that is watertight, consistently wound and not self-intersecting;
    a prior whose winding is inconsistent (0) is cast against every face.
    Leaves are open surfaces and are rasterized with winding 0.
    """
    rgb, clean, masks, visibility = _composite(scene, prior)
    return RenderResult(
        rgb=rgb,
        depth=_corrupt(clean, params, seed),
        clean_depth=clean,
        masks=masks,
        visibility=visibility,
    )


@dataclass(frozen=True, eq=False)
class GroundTruthInstance(ArrayRecord):
    """True pose and surface sampling for one berry."""

    instance_id: int
    pose: Pose
    surface: PointCloud

    @property
    def surfaces(self) -> tuple[PointCloud]:
        """(surface,), the form perfbench's artifact round-trip check zips."""
        return (self.surface,)

    @cached_property
    def radius(self) -> float:
        """The farthest surface point's distance from the true center."""
        return float(np.linalg.norm(self.surface.xyz - self.pose.translation, axis=1).max())


@dataclass(frozen=True, eq=False)
class GroundTruth(ArrayRecord):
    """Every berry's true pose and surface. Built from a scene by of(), berry
    k takes its id and pose from scene.berries[k], so a scene directory
    stores only the surfaces.
    """

    instances: tuple[GroundTruthInstance, ...]

    def __post_init__(self):
        ids = [inst.instance_id for inst in self.instances]
        dup = next((i for i in ids if ids.count(i) > 1), None)
        if dup is not None:
            raise ParameterError(f"instance {dup} appears more than once")

    @classmethod
    def of(cls, scene: SceneTemplate, surfaces) -> "GroundTruth":
        """Berry k of the scene with surfaces[k]."""
        return cls(
            instances=tuple(
                GroundTruthInstance(b.instance_id, b.pose, surface)
                for b, surface in zip(scene.berries, surfaces, strict=True)
            )
        )

    def instance(self, instance_id: int) -> GroundTruthInstance:
        for inst in self.instances:
            if inst.instance_id == instance_id:
                return inst
        raise KeyError(instance_id)


def sample_ground_truth(
    scene: SceneTemplate,
    prior: StrawberryPrior,
    seed: int | np.random.SeedSequence = 0,
) -> GroundTruth:
    """Independent per-berry surface samplings, one stream per berry."""
    ss = _as_seedseq(seed)
    children = ss.spawn(len(scene.berries)) if scene.berries else []
    return GroundTruth.of(
        scene,
        [prior.sample_ground_truth(b.pose, _stream(c)) for b, c in zip(scene.berries, children)],
    )
