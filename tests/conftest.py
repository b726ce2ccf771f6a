"""Shared fixtures: the builtin prior and three hand-built fixture scenes
(one per terminal pipeline outcome)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import cKDTree

from berrypick import (
    BerryInstance,
    CameraIntrinsics,
    Ripeness,
    SceneTemplate,
    StrawberryPrior,
)
from berrypick.types import Pose, rotation_aligning

_PHI = (1 + 5 ** 0.5) / 2


@pytest.fixture(scope="session")
def prior() -> StrawberryPrior:
    return StrawberryPrior.builtin()


def surface_distance_m(prior: StrawberryPrior, xyz, pose: Pose = Pose()) -> np.ndarray:
    """Approximate unsigned distance from points to the posed prior surface:
    the distance to the nearest point of its dense registration sampling."""
    return cKDTree(pose.apply(prior.registration_surface())).query(np.asarray(xyz))[0]


def chamfer_loss_brute(p, q) -> float:
    """The oracle for chamfer_loss: every pair's squared distance, O(|P|*|Q|),
    with no KD-tree. Each chunk of rows builds dx*dx + dy*dy + dz*dz one axis
    at a time, in the order np.sum adds a point's three squared offsets."""
    pa, qa = (np.asarray(getattr(c, "xyz", c), dtype=np.float64) for c in (p, q))
    total = 0.0
    for arr, other in ((pa, qa), (qa, pa)):
        ox, oy, oz = np.ascontiguousarray(other.T)
        mins = np.empty(len(arr))
        for start in range(0, len(arr), 256):
            rows = arr[start:start + 256]
            dx, dy, dz = rows[:, 0, None] - ox, rows[:, 1, None] - oy, rows[:, 2, None] - oz
            d = dx * dx
            d += dy * dy
            d += dz * dz
            mins[start:start + 256] = d.min(axis=1)
        total += float(np.sum(mins))
    return total


def _berry(instance_id: int, center, ripeness: Ripeness) -> BerryInstance:
    return BerryInstance(
        instance_id=instance_id,
        pose=Pose(rotation=np.eye(3), translation=np.asarray(center, dtype=float)),
        ripeness=ripeness,
    )


def make_success_scene() -> SceneTemplate:
    """One unoccluded ripe berry straight ahead."""
    return SceneTemplate(
        berries=(_berry(0, (0.0, 0.0, 0.36), Ripeness.RIPE),),
        occluders=(),
        intrinsics=CameraIntrinsics(),
    )


def make_no_ripe_scene() -> SceneTemplate:
    """Two unripe berries, nothing to pick."""
    return SceneTemplate(
        berries=(
            _berry(0, (-0.03, 0.0, 0.36), Ripeness.UNRIPE),
            _berry(1, (0.03, 0.0, 0.36), Ripeness.UNRIPE),
        ),
        occluders=(),
        intrinsics=CameraIntrinsics(),
    )


def make_caged_scene() -> SceneTemplate:
    """A ripe berry inside an icosahedral cage of unripe ones.

    The cage is rotated so one face looks at the camera: the target stays
    visible through that face's opening, but the opening is narrower than
    the inflation radius, so every route to the grasp point is blocked.
    """
    center = np.array([0.0, 0.0, 0.38])
    raw = []
    for a, b in ((1.0, _PHI), (-1.0, _PHI), (1.0, -_PHI), (-1.0, -_PHI)):
        raw.append((0.0, a, b))
        raw.append((a, b, 0.0))
        raw.append((b, 0.0, a))
    dirs = np.array(raw)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    face = np.array([(0.0, 1.0, _PHI), (0.0, -1.0, _PHI), (_PHI, 0.0, 1.0)])
    face /= np.linalg.norm(face, axis=1, keepdims=True)
    face_center = face.mean(axis=0)
    face_center /= np.linalg.norm(face_center)
    rot = rotation_aligning(face_center, np.array([0.0, 0.0, -1.0]))
    dirs = dirs @ rot.T

    berries = [_berry(0, center, Ripeness.RIPE)]
    for i, d in enumerate(dirs, start=1):
        berries.append(_berry(i, center + 0.042 * d, Ripeness.UNRIPE))
    return SceneTemplate(
        berries=tuple(berries), occluders=(), intrinsics=CameraIntrinsics()
    )


@pytest.fixture(scope="session")
def success_scene() -> SceneTemplate:
    return make_success_scene()


@pytest.fixture(scope="session")
def no_ripe_scene() -> SceneTemplate:
    return make_no_ripe_scene()


@pytest.fixture(scope="session")
def caged_scene() -> SceneTemplate:
    return make_caged_scene()
