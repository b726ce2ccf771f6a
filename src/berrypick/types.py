"""Core domain types: images, camera model, point clouds, masks, rigid poses.

Conventions used throughout the package:
  * camera frame, right-handed: +x right, +y down, +z forward (into the scene)
  * coordinates in meters; depth images store millimeters as uint16, 0 = no return
  * point clouds hold positions only, one (x, y, z) row per point
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InputError, ParameterError

# The largest length or |coordinate|, in meters, that a scene template or an
# end-effector position may hold: far beyond any scene, and small enough that
# no norm of the scene's or the grasp's geometry can overflow.
MAX_LENGTH_M = 1e3


class Ripeness(enum.Enum):
    RIPE = "ripe"
    UNRIPE = "unripe"


def check_like(value, example, where: str) -> None:
    """Reject a JSON value whose shape or type differs from the example's,
    naming the value by where, its path from the document's name. The
    example decides each rule:
      * an object may hold only the example's keys, each value checked
        against the example's (a key it lacks is not refused here);
      * a list whose example holds one object takes any number of such
        objects, and any other list exactly as many items as the example;
      * a string takes a string, and true or false a boolean;
      * an integer takes an integer, a float an integer or a float, and
        None null or such a number. A boolean never counts as a number,
        and NaN, infinities and integers beyond float range are refused.
    """
    if isinstance(example, dict):
        if not isinstance(value, dict):
            raise InputError(f"{where} must be a JSON object")
        unknown = set(value) - set(example)
        if unknown:
            raise InputError(f"unknown {where} keys: {sorted(unknown)}")
        for key, item in value.items():
            check_like(item, example[key], f"{where}.{key}")
    elif isinstance(example, list):
        if len(example) == 1 and isinstance(example[0], dict):
            if not isinstance(value, list):
                raise InputError(f"{where} must be a list of JSON objects")
            example = example * len(value)
        elif not isinstance(value, list) or len(value) != len(example):
            items = "lists" if isinstance(example[0], list) else "numbers"
            raise InputError(f"{where} must be a list of {len(example)} {items}")
        for item, item_example in zip(value, example):
            check_like(item, item_example, where)
    elif isinstance(example, str):
        if not isinstance(value, str):
            raise InputError(f"{where} must be a string, got {value!r}")
    elif isinstance(example, bool):
        if not isinstance(value, bool):
            raise InputError(f"{where} must be true or false")
    elif value is not None or example is not None:
        integer = isinstance(example, int)
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
            kind = "an integer" if integer else "a number"
            or_null = " or null" if example is None else ""
            raise InputError(f"{where} must be {kind}{or_null}, got {value!r}")
        # Python compares an int with a float exactly, so this refuses NaN,
        # infinities and every int beyond the largest float.
        if not integer and not abs(value) <= sys.float_info.max:
            raise InputError(f"{where} must be finite, got {value!r}")


class ArrayRecord:
    """Value equality for a dataclass that holds a numpy array, itself or in
    a record it holds, and declares `eq=False`. The generated `==` would ask
    an array for its truth value, which raises. Here two records are equal
    when they are of one type and every compared field is equal: an array
    by shape, dtype and values, anything else by its own `==`. Such a record
    is not hashable."""

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(_same_value(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self) if f.compare)


def _same_value(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.shape == b.shape and a.dtype == b.dtype and bool(np.array_equal(a, b))
        )
    return a == b


# The largest focal length, in pixels. A 640-pixel frame then spans under
# 0.04 degrees, narrower than any camera lens, and the rasterizer's screen
# areas, which scale with fx * fy, stay far from float overflow.
MAX_FOCAL_PX = 1e6


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float = 800.0
    fy: float = 800.0
    cx: float = 319.5
    cy: float = 239.5

    def __post_init__(self):
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy]).all():
            raise ParameterError("camera intrinsics must be finite")
        if not (0 < self.fx <= MAX_FOCAL_PX and 0 < self.fy <= MAX_FOCAL_PX):
            raise ParameterError(f"focal lengths must be positive and at most {MAX_FOCAL_PX:g} px")

    def validate_for(self, width: int, height: int) -> None:
        if not (0 <= self.cx < width and 0 <= self.cy < height):
            raise ParameterError(
                f"principal point ({self.cx}, {self.cy}) outside {width}x{height} image"
            )


def _unsigned(values: np.ndarray, dtype, message: str) -> np.ndarray:
    """values as the unsigned integer type dtype, cast from an integer array
    within its range; any other array raises ParameterError(message)."""
    if values.dtype == dtype:
        return values
    if not np.issubdtype(values.dtype, np.integer):
        raise ParameterError(message)
    if values.min(initial=0) < 0 or values.max(initial=0) > np.iinfo(dtype).max:
        raise ParameterError(message)
    return values.astype(dtype)


@dataclass(frozen=True, eq=False)
class DepthImage(ArrayRecord):
    """Depth in millimeters, uint16, 0 marks an invalid pixel (no return)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise ParameterError("depth image must be 2-D (H, W)")
        message = "depth image must be 16-bit unsigned millimeters"
        object.__setattr__(self, "values", _unsigned(v, np.uint16, message))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class PointCloud(ArrayRecord):
    """Ordered point positions: xyz is (N, 3) float64 meters, camera frame.

    Treated as immutable after construction; operations return new clouds.
    Which berry a cloud belongs to is not stored per point: masks and
    planning candidates carry the instance id.
    """

    xyz: np.ndarray

    def __post_init__(self):
        xyz = np.asarray(self.xyz, dtype=np.float64)
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ParameterError("xyz must have shape (N, 3)")
        if xyz.size and not np.isfinite(xyz).all():
            raise ParameterError("point coordinates must be finite")
        object.__setattr__(self, "xyz", xyz)

    def __len__(self) -> int:
        return len(self.xyz)

    @classmethod
    def empty(cls) -> "PointCloud":
        return cls(xyz=np.zeros((0, 3)))

    def centroid(self) -> np.ndarray:
        if len(self) == 0:
            raise ParameterError("centroid of empty cloud")
        return self.xyz.mean(axis=0)


def nonzero_box(values: np.ndarray) -> tuple[slice, slice]:
    """The rows and columns of the tightest box holding every nonzero pixel
    of an (H, W) or (H, W, C) array, a pixel with any nonzero channel; two
    empty slices at (0, 0) when there is none. Both reductions run over the
    (H, W * C) rows, which numpy does far faster than an any() over the
    channel axis."""
    if not values.size:
        return slice(0, 0), slice(0, 0)
    flat = values.reshape(values.shape[0], -1)
    rows = np.flatnonzero(flat.any(axis=1))
    if not len(rows):
        return slice(0, 0), slice(0, 0)
    channels = flat.shape[1] // values.shape[1]
    cols = np.flatnonzero(flat[rows[0] : rows[-1] + 1].any(axis=0)) // channels
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


class CroppedFrame(ArrayRecord):
    """A frame held as the tight bounding-box crop of its nonzero pixels.

    A subclass is a dataclass with the fields `crop`, an (h, w) or (h, w, C)
    array; `offset`, the (row, column) of the crop's top-left pixel; and
    `shape`, the frame's (H, W). The crop's edge rows and columns each hold a
    nonzero pixel, and an empty frame has an empty crop at (0, 0). Any
    window passed as `crop` is cropped tight, and `shape` defaults to the
    window's, so a full frame is passed as `crop` alone.
    """

    def _hold(self, window: np.ndarray, what: str) -> None:
        """Store window, placed at self.offset in a frame of self.shape, as
        its tight crop; ParameterError when it does not fit the frame."""
        shape = window.shape[:2] if self.shape is None else tuple(int(n) for n in self.shape)
        offset = tuple(int(n) for n in self.offset)
        if len(shape) != 2 or len(offset) != 2 or min(*shape, *offset) < 0 or any(
            o + n > s for o, n, s in zip(offset, window.shape, shape)
        ):
            raise ParameterError(
                f"a {window.shape[:2]} {what} crop at {offset} lies outside {shape}"
            )
        rows, cols = nonzero_box(window)
        tight = window[rows, cols]
        if tight.size < window.size:  # hold no view of the larger window
            tight = tight.copy()
        offset = (offset[0] + rows.start, offset[1] + cols.start) if tight.size else (0, 0)
        object.__setattr__(self, "crop", tight)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "shape", shape)

    @property
    def window(self) -> tuple[slice, slice]:
        """The frame's rows and columns under `crop`."""
        (r, c), (h, w) = self.offset, self.crop.shape[:2]
        return slice(r, r + h), slice(c, c + w)

    def band(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Frame rows [start, stop), 0 <= start <= stop <= H, at full width,
        built from the crop on each call; band() is the whole frame."""
        stop = self.shape[0] if stop is None else stop
        out = np.zeros((stop - start, self.shape[1], *self.crop.shape[2:]), dtype=self.crop.dtype)
        (r, c), (h, w) = self.offset, self.crop.shape[:2]
        lo, hi = max(start, r), min(stop, r + h)
        if lo < hi:
            out[lo - start : hi - start, c : c + w] = self.crop[lo - r : hi - r]
        return out


@dataclass(frozen=True, kw_only=True, eq=False)
class RgbImage(CroppedFrame):
    """8-bit RGB image of (H, W) pixels, held as the crop of its drawn
    pixels: a rendered frame's background is black, (0, 0, 0), and the
    berries and leaves cover a small part of it. `crop` is (h, w, 3) uint8
    (see CroppedFrame); `values` builds the full (H, W, 3) frame on each
    read."""

    crop: np.ndarray
    offset: tuple[int, int] = (0, 0)
    shape: tuple[int, int] | None = None

    def __post_init__(self):
        window = np.asarray(self.crop)
        if window.ndim != 3 or window.shape[2] != 3:
            raise ParameterError("rgb image must have shape (H, W, 3)")
        self._hold(_unsigned(window, np.uint8, "rgb image must hold 8-bit values"), "rgb")

    @property
    def values(self) -> np.ndarray:
        """The full-frame (H, W, 3) image, built on each read."""
        return self.band()


@dataclass(frozen=True, kw_only=True, eq=False)
class InstanceMask(CroppedFrame):
    """Binary per-pixel instance mask with a ripeness label.

    A berry covers a small part of the frame, so the mask holds only the
    tight bounding-box crop of its pixels (see CroppedFrame): `crop` is
    (h, w) bool. `bits` builds the full-frame (H, W) view on each read.
    """

    crop: np.ndarray
    offset: tuple[int, int] = (0, 0)
    shape: tuple[int, int] | None = None
    instance_id: int
    ripeness: Ripeness

    def __post_init__(self):
        window = np.asarray(self.crop)
        if window.ndim != 2:
            raise ParameterError("mask bits must be 2-D (H, W)")
        self._hold(window.astype(bool, copy=False), "mask")

    @property
    def bits(self) -> np.ndarray:
        """The full-frame (H, W) bool mask, built on each read."""
        return self.band()

    def pixel_count(self) -> int:
        return int(np.count_nonzero(self.crop))


@dataclass(frozen=True)
class VoxelParams:
    """Voxel grid downsampling parameters: cube edge (m) and the minimum
    member count a voxel needs to emit a centroid."""

    voxel_size: float = 0.005
    min_points: int = 30

    def __post_init__(self):
        if not self.voxel_size > 0:
            raise ParameterError("voxel_size must be positive")
        if self.min_points < 1:
            raise ParameterError("min_points must be >= 1")


@dataclass(frozen=True)
class OutlierParams:
    """Statistical outlier removal: k nearest neighbors and the standard
    deviation multiplier on the mean-neighbor-distance statistic."""

    k_neighbors: int = 16
    std_ratio: float = 2.0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ParameterError("k_neighbors must be >= 1")
        if not self.std_ratio > 0:
            raise ParameterError("std_ratio must be positive")


@dataclass(frozen=True, eq=False)
class Pose(ArrayRecord):
    """Rigid transform: p_out = rotation @ p_in + translation."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ParameterError("pose needs a 3x3 rotation and a 3-vector translation")
        # Entries of an orthonormal r lie in [-1, 1]: the bound refuses NaN, inf and overflow.
        if not ((np.abs(r) <= 2).all() and np.allclose(r @ r.T, np.eye(3), atol=1e-9)):
            raise ParameterError("rotation must be orthonormal")
        if np.linalg.det(r) < 0:
            raise ParameterError("rotation must be proper (det +1)")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def apply(self, xyz: np.ndarray) -> np.ndarray:
        return np.asarray(xyz) @ self.rotation.T + self.translation

    def to_json(self) -> dict:
        return {"rotation": self.rotation.tolist(), "translation": self.translation.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Pose":
        return cls(rotation=obj["rotation"], translation=obj["translation"])


def rotation_about_axis(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation matrix about a (not necessarily unit) axis."""
    axis = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(axis)
    if n < 1e-12:
        raise ParameterError("rotation axis must be nonzero")
    x, y, z = axis / n
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle_rad) * k + (1.0 - np.cos(angle_rad)) * (k @ k)


def rotation_aligning(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimal rotation taking direction a to direction b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        raise ParameterError("cannot align zero-length directions")
    a = a / na
    b = b / nb
    c = float(np.dot(a, b))
    if c > 1.0 - 1e-12:
        return np.eye(3)
    if c < -1.0 + 1e-12:
        # antiparallel: rotate pi about any axis perpendicular to a
        helper = np.array([1.0, 0.0, 0.0])
        if abs(a[0]) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        axis = np.cross(a, helper)
        return rotation_about_axis(axis, np.pi)
    axis = np.cross(a, b)
    angle = float(np.arccos(np.clip(c, -1.0, 1.0)))
    return rotation_about_axis(axis, angle)
