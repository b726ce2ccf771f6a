"""Core domain types: images, camera model, point clouds, masks, rigid poses.

Conventions used throughout the package:
  * camera frame, right-handed: +x right, +y down, +z forward (into the scene)
  * coordinates in meters; depth images store millimeters as uint16, 0 = no return
  * point clouds hold positions only, one (x, y, z) row per point
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ParameterError


class Ripeness(enum.Enum):
    RIPE = "ripe"
    UNRIPE = "unripe"


def json_int(value, name: str) -> int:
    """An integer read from JSON: only a JSON integer, not a bool, float or
    string, is accepted; anything else raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def check_like(value, default, where: str) -> None:
    """Reject a JSON value whose shape or type differs from the default's:
    objects may hold only the default's keys, a float field also takes an
    int, booleans never count as numbers, and NaN and infinities are
    refused."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise InputError(f"{where} must be a JSON object")
        unknown = set(value) - set(default)
        if unknown:
            raise InputError(f"unknown {where} keys: {sorted(unknown)}")
        for key, item in value.items():
            check_like(item, default[key], f"{where}.{key}")
    elif isinstance(default, list):
        if not isinstance(value, list) or len(value) != len(default):
            raise InputError(f"{where} must be a list of {len(default)} numbers")
        for item, item_default in zip(value, default):
            check_like(item, item_default, where)
    elif isinstance(default, bool):
        if not isinstance(value, bool):
            raise InputError(f"{where} must be true or false")
    else:
        integer = isinstance(default, int)
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
            kind = "an integer" if integer else "a number"
            raise InputError(f"{where} must be {kind}, got {value!r}")
        if not integer and not is_finite_number(value):
            raise InputError(f"{where} must be finite, got {value!r}")


def _is_json_number(value) -> bool:
    """A JSON number a float64 holds: not a bool, nor an int float() overflows."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def is_finite_number(value) -> bool:
    """A JSON number whose float64 value is finite."""
    return _is_json_number(value) and math.isfinite(value)


def json_float(value, name: str) -> float:
    """A number read from JSON: a JSON integer or float, not a bool or string."""
    if not _is_json_number(value):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def json_floats(value, name: str) -> np.ndarray:
    """A list, or a list of lists, of JSON numbers as a float64 array."""

    def numbers(v):
        return isinstance(v, list) and all(map(_is_json_number, v))

    if not (numbers(value) or isinstance(value, list) and all(map(numbers, value))):
        raise TypeError(f"{name} must be a list of numbers, got {value!r}")
    return np.asarray(value, dtype=np.float64)


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
        if self.fx <= 0 or self.fy <= 0:
            raise ParameterError("focal lengths must be positive")

    def validate_for(self, width: int, height: int) -> None:
        if not (0 <= self.cx < width and 0 <= self.cy < height):
            raise ParameterError(
                f"principal point ({self.cx}, {self.cy}) outside {width}x{height} image"
            )


@dataclass(frozen=True)
class DepthImage:
    """Depth in millimeters, uint16, 0 marks an invalid pixel (no return)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise ParameterError("depth image must be 2-D (H, W)")
        if v.dtype != np.uint16:
            if np.issubdtype(v.dtype, np.integer) and v.min(initial=0) >= 0 and v.max(initial=0) <= 65535:
                v = v.astype(np.uint16)
            else:
                raise ParameterError("depth image must be 16-bit unsigned millimeters")
        object.__setattr__(self, "values", v)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class RgbImage:
    """8-bit RGB image, shape (H, W, 3)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 3 or v.shape[2] != 3:
            raise ParameterError("rgb image must have shape (H, W, 3)")
        if v.dtype != np.uint8:
            v = v.astype(np.uint8)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class PointCloud:
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


@dataclass(frozen=True)
class InstanceMask:
    """Binary per-pixel instance mask with a ripeness label."""

    bits: np.ndarray  # (H, W) bool
    instance_id: int
    ripeness: Ripeness

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2:
            raise ParameterError("mask bits must be 2-D (H, W)")
        if b.dtype != np.bool_:
            b = b.astype(bool)
        object.__setattr__(self, "bits", b)

    def pixel_count(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True)
class VoxelParams:
    """Voxel grid downsampling parameters: cube edge (m) and the minimum
    member count a voxel needs to emit a centroid."""

    voxel_size: float = 0.005
    min_points: int = 30

    def __post_init__(self):
        if self.voxel_size <= 0:
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
        if self.std_ratio <= 0:
            raise ParameterError("std_ratio must be positive")


@dataclass(frozen=True)
class Pose:
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

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rotation=rt, translation=-rt @ self.translation)

    def to_json(self) -> dict:
        return {"rotation": self.rotation.tolist(), "translation": self.translation.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Pose":
        return cls(
            rotation=json_floats(obj["rotation"], "rotation"),
            translation=json_floats(obj["translation"], "translation"),
        )


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
