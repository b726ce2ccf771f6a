"""Shared fixtures, among them the builtin prior and three hand-built
fixture scenes (one per terminal pipeline outcome), and the one copy of
each oracle, template and fuzz mutator that more than one test module uses.
Every hypothesis test draws the same examples on every run, so a failure
always reproduces."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from berrypick import (
    BerryInstance,
    CameraIntrinsics,
    GroundTruth,
    PipelineConfig,
    Ripeness,
    SceneConfig,
    SceneTemplate,
    StrawberryPrior,
)
from berrypick.types import Pose, rotation_aligning

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

_PHI = (1 + 5 ** 0.5) / 2

TEMPLATES = Path(__file__).resolve().parent.parent / "templates"

# The shipped templates: templates/cluttered.json, criterion 2's ablation
# scenes, and templates/single_berry.json, criterion 1's completion scenes.
# test_scene.py checks that each file parses to exactly its value here.
CLUTTERED = SceneConfig(
    n_ripe=2, n_unripe=3, n_occluders=3, clutter_spacing=0.002,
    workspace_lo=(-0.05, -0.04, 0.31), workspace_hi=(0.05, 0.04, 0.40),
)
SINGLE_BERRY = SceneConfig(n_ripe=1, n_unripe=0, n_occluders=1, clutter_spacing=0.002)

# The 26 moves of the free-cell graph and their lengths in cells, written out
# here rather than read from the planner so that a wrong planner table fails.
# Their order decides no tie: a search pops cells in (f, tie key) order.
MOVES = {
    off: math.sqrt(sum(o * o for o in off))
    for off in itertools.product((-1, 0, 1), repeat=3)
    if off != (0, 0, 0)
}


@pytest.fixture(scope="session")
def prior() -> StrawberryPrior:
    return StrawberryPrior.builtin()


def surface_distance_m(prior: StrawberryPrior, xyz, pose: Pose = Pose()) -> np.ndarray:
    """Approximate unsigned distance from points to the posed prior surface:
    the distance to the nearest point of its dense registration sampling."""
    return cKDTree(pose.apply(prior.registration_surface())).query(np.asarray(xyz))[0]


def traced_peak(fn, *args) -> int:
    """The largest traced allocation total, in bytes, while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def nearest_sq_brute(xyz, other) -> np.ndarray:
    """Each row of xyz's squared distance to its nearest row of other, with
    no KD-tree. Each chunk of rows builds dx*dx + dy*dy + dz*dz one axis at a
    time, in the order np.sum adds a point's three squared offsets."""
    ox, oy, oz = np.ascontiguousarray(other.T)
    mins = np.empty(len(xyz))
    for start in range(0, len(xyz), 256):
        rows = xyz[start:start + 256]
        dx, dy, dz = rows[:, 0, None] - ox, rows[:, 1, None] - oy, rows[:, 2, None] - oz
        d = dx * dx
        d += dy * dy
        d += dz * dz
        mins[start:start + 256] = d.min(axis=1)
    return mins


def chamfer_loss_brute(p, q) -> float:
    """The oracle for chamfer_loss: every pair's squared distance, O(|P|*|Q|)."""
    pa, qa = (np.asarray(getattr(c, "xyz", c), dtype=np.float64) for c in (p, q))
    return float(np.sum(nearest_sq_brute(pa, qa))) + float(np.sum(nearest_sq_brute(qa, pa)))


def free_cell_graph(occupied: np.ndarray, resolution: float = 1.0) -> csr_matrix:
    """The 26-connected free-cell graph with Euclidean edge costs, as a
    sparse matrix over row-major cell indices."""
    free = ~occupied
    index = np.arange(occupied.size).reshape(occupied.shape)
    rows, cols, data = [], [], []
    for off, length in MOVES.items():
        src = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(off, occupied.shape))
        dst = tuple(slice(max(0, o), n - max(0, -o)) for o, n in zip(off, occupied.shape))
        ok = (free[src] & free[dst]).ravel()
        rows.append(index[src].ravel()[ok])
        cols.append(index[dst].ravel()[ok])
        data.append(np.full(ok.sum(), length * resolution))
    n = occupied.size
    return csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), (n, n))


def dijkstra_cost(occupied: np.ndarray, start, goal, resolution: float = 1.0) -> float:
    """The shortest-path cost from start to goal over free_cell_graph, by
    scipy's Dijkstra; inf when no path exists."""
    at = np.ravel_multi_index(start, occupied.shape)
    dist = dijkstra(free_cell_graph(occupied, resolution), indices=int(at))
    return float(dist[np.ravel_multi_index(goal, occupied.shape)])


def flipped(draw, data: bytes) -> bytes:
    """data with one to three bytes XORed with nonzero bytes, drawn inside a
    @st.composite strategy: the count, then each position and mask."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return bytes(data)


def rodrigues(axis, degrees) -> np.ndarray:
    """Rodrigues' formula: the rotation by degrees about axis, of any length."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    theta = np.radians(degrees)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)


def surface_bytes(truth: GroundTruth) -> bytes:
    """Every instance's (N, 3) surface as little-endian float64, row-major,
    in instance order: the layout of ground_truth.f64."""
    return b"".join(
        inst.surface.xyz.astype("<f8", copy=False).tobytes() for inst in truth.instances
    )


def ablation_variants(cfg: PipelineConfig) -> dict[str, PipelineConfig]:
    """run_ablation's three variants of cfg, by name."""
    return {
        "full": cfg,
        "no_obstacles": replace(cfg, use_obstacles=False),
        "no_completion": replace(cfg, use_completion=False),
    }


def posed_berry(instance_id: int, center, ripeness: Ripeness = Ripeness.RIPE) -> BerryInstance:
    """An upright berry at center."""
    return BerryInstance(
        instance_id=instance_id,
        pose=Pose(rotation=np.eye(3), translation=np.asarray(center, dtype=float)),
        ripeness=ripeness,
    )


def make_success_scene() -> SceneTemplate:
    """One unoccluded ripe berry straight ahead."""
    return SceneTemplate(
        berries=(posed_berry(0, (0.0, 0.0, 0.36), Ripeness.RIPE),),
        occluders=(),
        intrinsics=CameraIntrinsics(),
    )


def make_no_ripe_scene() -> SceneTemplate:
    """Two unripe berries, nothing to pick."""
    return SceneTemplate(
        berries=(
            posed_berry(0, (-0.03, 0.0, 0.36), Ripeness.UNRIPE),
            posed_berry(1, (0.03, 0.0, 0.36), Ripeness.UNRIPE),
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

    berries = [posed_berry(0, center, Ripeness.RIPE)]
    for i, d in enumerate(dirs, start=1):
        berries.append(posed_berry(i, center + 0.042 * d, Ripeness.UNRIPE))
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
