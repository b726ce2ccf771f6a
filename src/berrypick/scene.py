"""Synthetic tabletop scene model and randomized generation.

A scene is a set of posed berry instances (ripe or unripe) hanging roughly
stem-up in front of the camera, plus optional leaf occluders placed on the
camera-to-berry sight lines so they actually block parts of the fruit. All
geometry is in the camera frame, meters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ParameterError, SceneGenerationError
from .prior import StrawberryPrior
from .types import (
    ArrayRecord,
    CameraIntrinsics,
    Pose,
    Ripeness,
    check_like,
    rotation_about_axis,
    rotation_aligning,
)

# Sampling volume in front of the camera. At the default intrinsics this spans
# most of the image while keeping every berry inside the frustum.
WORKSPACE_LO = np.array([-0.09, -0.06, 0.30])
WORKSPACE_HI = np.array([0.09, 0.06, 0.42])

_MAX_PLACEMENT_TRIES = 200

# A leaf is a fan of _LEAF_SEGMENTS triangles around its center vertex 0.
_LEAF_SEGMENTS = 24
_LEAF_THETA = 2 * np.pi * np.arange(_LEAF_SEGMENTS) / _LEAF_SEGMENTS
_LEAF_COS, _LEAF_SIN = np.cos(_LEAF_THETA), np.sin(_LEAF_THETA)
_LEAF_FACES = np.array(
    [[0, 1 + j, 1 + (j + 1) % _LEAF_SEGMENTS] for j in range(_LEAF_SEGMENTS)], dtype=np.int32
)
_LEAF_FACES.flags.writeable = False

# Largest frame a scene may ask for (4096 x 4096), refused before any image is allocated.
MAX_FRAME_PIXELS = 2**24

# Most berries of each ripeness, and most occluders, a template may ask for: far above the
# shipped templates' 8 objects, with both ripenesses together below the 65,535 berries that
# masks.pgm can label. SceneConfig refuses more before generation draws anything.
MAX_SCENE_OBJECTS = 1000


@dataclass(frozen=True, eq=False)
class BerryInstance(ArrayRecord):
    """One berry: the shared prior under a rigid pose, with a ripeness label."""

    instance_id: int
    pose: Pose
    ripeness: Ripeness

    def __post_init__(self):
        if not np.isfinite(self.pose.translation).all():
            raise ParameterError("berry translation must be finite")

    def to_json(self) -> dict:
        return {
            "instance_id": self.instance_id,
            **self.pose.to_json(),
            "ripeness": self.ripeness.value,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BerryInstance":
        return cls(obj["instance_id"], Pose.from_json(obj), Ripeness(obj["ripeness"]))


@dataclass(frozen=True, eq=False)
class Occluder(ArrayRecord):
    """Planar elliptical leaf: center, unit normal, in-plane semi-axes."""

    center: np.ndarray
    normal: np.ndarray
    semi_major: float
    semi_minor: float
    roll_rad: float = 0.0

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64)
        center = np.asarray(self.center, dtype=np.float64)
        if not (np.isfinite(center).all() and np.isfinite(n).all()):
            raise ParameterError("occluder center and normal must be finite")
        norm = np.linalg.norm(n)
        if norm < 1e-12:
            raise ParameterError("occluder normal must be nonzero")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "normal", n / norm)
        if not (np.isfinite(self.semi_major) and np.isfinite(self.semi_minor)):
            raise ParameterError("occluder semi-axes must be finite")
        if self.semi_major <= 0 or self.semi_minor <= 0:
            raise ParameterError("occluder semi-axes must be positive")
        if not np.isfinite(self.roll_rad):
            raise ParameterError("occluder roll must be finite")

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Triangle fan of _LEAF_SEGMENTS faces tessellating the ellipse, in
        the camera frame. The faces are the shared, read-only _LEAF_FACES."""
        basis = rotation_aligning(np.array([0.0, 0.0, 1.0]), self.normal)
        roll = rotation_about_axis(np.array([0.0, 0.0, 1.0]), self.roll_rad)
        frame = basis @ roll
        rim_local = np.stack(
            [
                self.semi_major * _LEAF_COS,
                self.semi_minor * _LEAF_SIN,
                np.zeros(_LEAF_SEGMENTS),
            ],
            axis=1,
        )
        vertices = np.concatenate([[np.zeros(3)], rim_local], axis=0) @ frame.T + self.center
        return vertices, _LEAF_FACES

    def to_json(self) -> dict:
        return {
            "center": self.center.tolist(),
            "normal": self.normal.tolist(),
            "semi_major": self.semi_major,
            "semi_minor": self.semi_minor,
            "roll_rad": self.roll_rad,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Occluder":
        """A stored normal that is already unit to within 1e-12 is kept bit
        for bit: normalizing a unit float64 vector again can move its last
        bit, and a saved scene must load as the scene that was saved."""
        normal = np.asarray(obj["normal"], dtype=np.float64)
        occluder = cls(
            center=obj["center"],
            normal=normal,
            semi_major=float(obj["semi_major"]),
            semi_minor=float(obj["semi_minor"]),
            roll_rad=float(obj["roll_rad"]),
        )
        if abs(np.linalg.norm(normal) - 1.0) <= 1e-12:
            object.__setattr__(occluder, "normal", normal)
        return occluder


@dataclass(frozen=True)
class SceneConfig:
    """Knobs for randomized scene generation."""

    n_ripe: int = 2
    n_unripe: int = 2
    n_occluders: int = 2
    clutter_spacing: float = 0.01
    max_tilt_rad: float = 0.44
    occluder_fraction_range: tuple[float, float] = (0.55, 0.8)
    occluder_lateral_sigma: float = 0.010
    occluder_semi_axis_range: tuple[float, float] = (0.012, 0.030)
    workspace_lo: tuple[float, float, float] = tuple(WORKSPACE_LO)
    workspace_hi: tuple[float, float, float] = tuple(WORKSPACE_HI)

    def __post_init__(self):
        counts = (self.n_ripe, self.n_unripe, self.n_occluders)
        if not all(0 <= n <= MAX_SCENE_OBJECTS for n in counts):
            raise ParameterError(f"object counts must lie in [0, {MAX_SCENE_OBJECTS}]")
        values = [
            self.clutter_spacing,
            self.max_tilt_rad,
            self.occluder_lateral_sigma,
            *self.occluder_fraction_range,
            *self.occluder_semi_axis_range,
            *self.workspace_lo,
            *self.workspace_hi,
        ]
        if not np.isfinite(values).all():
            raise ParameterError("scene config values must be finite")
        if self.clutter_spacing < 0:
            raise ParameterError("clutter_spacing must be nonnegative")
        if self.max_tilt_rad < 0 or self.occluder_lateral_sigma < 0:
            raise ParameterError("max_tilt_rad and occluder_lateral_sigma must be nonnegative")
        lo, hi = self.occluder_fraction_range
        if not (0.0 < lo <= hi < 1.0):
            raise ParameterError("occluder fractions must lie strictly inside (0, 1)")
        lo, hi = self.occluder_semi_axis_range
        if not (0.0 < lo <= hi):
            raise ParameterError("occluder semi-axis range must satisfy 0 < lo <= hi")
        object.__setattr__(self, "workspace_lo", tuple(float(v) for v in self.workspace_lo))
        object.__setattr__(self, "workspace_hi", tuple(float(v) for v in self.workspace_hi))
        if any(a >= b for a, b in zip(self.workspace_lo, self.workspace_hi)):
            raise ParameterError("workspace_lo must be strictly below workspace_hi")
        if self.workspace_lo[2] <= 0:
            raise ParameterError("workspace must sit in front of the camera")

    def to_json(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_json(cls, obj: dict) -> "SceneConfig":
        """Strict parse, as PipelineConfig.from_json: unknown keys and
        mistyped values are rejected."""
        check_like(obj, cls().to_json(), "template")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()})


@dataclass(frozen=True, eq=False)
class SceneTemplate(ArrayRecord):
    """A fully specified scene: berries, occluders, camera."""

    berries: tuple[BerryInstance, ...]
    occluders: tuple[Occluder, ...] = ()
    intrinsics: CameraIntrinsics = field(default_factory=CameraIntrinsics)
    width: int = 640
    height: int = 480

    def __post_init__(self):
        ids = [b.instance_id for b in self.berries]
        if len(set(ids)) != len(ids):
            raise ParameterError("duplicate berry instance ids")
        if self.width * self.height > MAX_FRAME_PIXELS:
            raise ParameterError(
                f"a {self.width}x{self.height} frame has more than {MAX_FRAME_PIXELS} pixels"
            )
        self.intrinsics.validate_for(self.width, self.height)

    def to_json(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "intrinsics": asdict(self.intrinsics),
            "berries": [b.to_json() for b in self.berries],
            "occluders": [o.to_json() for o in self.occluders],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SceneTemplate":
        """Strict parse against _SCENE_SHAPE: unknown keys and mistyped
        values anywhere in the document are rejected. "occluders" may be
        left out; any other missing key raises KeyError."""
        check_like(obj, _SCENE_SHAPE, "scene")
        k = obj["intrinsics"]
        return cls(
            berries=tuple(BerryInstance.from_json(b) for b in obj["berries"]),
            occluders=tuple(Occluder.from_json(o) for o in obj.get("occluders", ())),
            intrinsics=CameraIntrinsics(*(float(k[f]) for f in ("fx", "fy", "cx", "cy"))),
            width=obj["width"],
            height=obj["height"],
        )


# The document a scene with one berry and one occluder writes: the shape
# SceneTemplate.from_json checks every scene.json against.
_SCENE_SHAPE = SceneTemplate(
    berries=(BerryInstance(0, Pose(), Ripeness.RIPE),),
    occluders=(Occluder(np.zeros(3), np.array([0.0, 0.0, 1.0]), 1.0, 1.0),),
).to_json()


def _hanging_pose(rng: np.random.Generator, center: np.ndarray, max_tilt_rad: float) -> Pose:
    # Berries hang tip-down: the canonical +z (stem-to-tip) axis points near -y
    # (camera up is -y), with a bounded random tilt and a free spin about the axis.
    tilt = rng.uniform(0.0, max_tilt_rad)
    azimuth = rng.uniform(0.0, 2 * np.pi)
    axis = np.array(
        [
            np.sin(tilt) * np.cos(azimuth),
            -np.cos(tilt),
            np.sin(tilt) * np.sin(azimuth),
        ]
    )
    align = rotation_aligning(np.array([0.0, 0.0, 1.0]), axis)
    spin = rotation_about_axis(np.array([0.0, 0.0, 1.0]), rng.uniform(0.0, 2 * np.pi))
    return Pose(rotation=align @ spin, translation=center)


def generate_scene(
    config: SceneConfig,
    prior: StrawberryPrior,
    rng: np.random.Generator,
) -> SceneTemplate:
    """Rejection-sample berry centers with a minimum mutual distance, then hang
    leaves on the sight lines of randomly chosen berries.

    Raises SceneGenerationError when the workspace cannot fit the requested
    clutter within the retry budget.
    """
    min_dist = 2 * prior.bounding_radius_m + config.clutter_spacing
    ws_lo = np.asarray(config.workspace_lo, dtype=float)
    ws_hi = np.asarray(config.workspace_hi, dtype=float)

    centers: list[np.ndarray] = []
    n_total = config.n_ripe + config.n_unripe
    for _ in range(n_total):
        for _attempt in range(_MAX_PLACEMENT_TRIES):
            cand = rng.uniform(ws_lo, ws_hi)
            if all(np.linalg.norm(cand - c) >= min_dist for c in centers):
                centers.append(cand)
                break
        else:
            raise SceneGenerationError(
                f"could not place berry {len(centers)} of {n_total} "
                f"with spacing {min_dist:.3f} m"
            )

    ripeness = [Ripeness.RIPE] * config.n_ripe + [Ripeness.UNRIPE] * config.n_unripe
    order = rng.permutation(n_total)
    berries = tuple(
        BerryInstance(
            instance_id=i,
            pose=_hanging_pose(rng, centers[i], config.max_tilt_rad),
            ripeness=ripeness[order[i]],
        )
        for i in range(n_total)
    )

    occluders = []
    if config.n_occluders > 0 and n_total == 0:
        raise SceneGenerationError("occluders need at least one berry to occlude")
    for _ in range(config.n_occluders):
        target = berries[rng.integers(n_total)]
        frac = rng.uniform(*config.occluder_fraction_range)
        center = frac * target.pose.translation
        lateral = rng.normal(0.0, config.occluder_lateral_sigma, size=3)
        lateral[2] = 0.0  # jitter across the sight line, not along it
        center = center + lateral
        sight = target.pose.translation / np.linalg.norm(target.pose.translation)
        lo, hi = config.occluder_semi_axis_range
        axes = np.sort(rng.uniform(lo, hi, size=2))
        occluders.append(
            Occluder(
                center=center,
                normal=sight,
                semi_major=float(axes[1]),
                semi_minor=float(axes[0]),
                roll_rad=float(rng.uniform(0.0, 2 * np.pi)),
            )
        )

    return SceneTemplate(berries=berries, occluders=tuple(occluders))
