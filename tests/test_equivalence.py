"""Each fast path against a reference copy of the straightforward code it
replaced: the broad-phase execution check against testing every segment,
table-driven A* against per-push heuristic and tie functions, and cropped
perception against a whole-frame pass. Outputs must match exactly.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from berrypick import (
    CameraIntrinsics,
    DepthImage,
    InstanceMask,
    OccupancyGrid,
    OutlierParams,
    PipelineConfig,
    PointCloud,
    Ripeness,
    RobotState,
    Trajectory,
    VoxelParams,
    astar_grid,
    extract_masked,
    median_filter,
    project_point_cloud,
    remove_outliers,
    simulate_execution,
    voxel_downsample,
)
from berrypick.pipeline import extract_partials
from berrypick.planning import _NEIGHBOR_STEPS, _segment_distances
from berrypick.render import GroundTruth, GroundTruthInstance
from berrypick.types import Pose, RgbImage

# ---------------------------------------------------------------- execution


def reference_hits(trajectory, truth, target_id, gripper_radius) -> frozenset[int]:
    """Every segment against every surface point of every other berry."""
    hits = set()
    segments = list(zip(trajectory.waypoints[:-1], trajectory.waypoints[1:]))
    if not segments:
        segments = [(trajectory.waypoints[0], trajectory.waypoints[0])]
    for inst in truth.instances:
        if inst.instance_id == target_id:
            continue
        surface = inst.surfaces[2].xyz
        for a, b in segments:
            if _segment_distances(surface, a, b).min() <= gripper_radius:
                hits.add(inst.instance_id)
                break
    return frozenset(hits)


def _blob_truth(rng, n_berries):
    """Berries whose surfaces are random ellipsoid shells around their centers."""
    instances = []
    for i in range(n_berries):
        center = rng.uniform(-0.04, 0.04, 3) + [0.0, 0.0, 0.3]
        directions = rng.normal(size=(300, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        surface = PointCloud(xyz=center + directions * rng.uniform(0.005, 0.015, 3))
        instances.append(
            GroundTruthInstance(
                instance_id=i,
                ripeness=Ripeness.RIPE,
                pose=Pose(translation=center),
                surfaces=(surface, surface, surface),
            )
        )
    return GroundTruth(instances=tuple(instances))


def _grazing_waypoints(rng, inst, radius):
    """A segment tangent to the sphere of reach around a berry's center: it
    passes exactly gripper_radius beyond the berry's farthest surface point."""
    center = inst.pose.translation
    offsets = inst.surfaces[2].xyz - center
    far = offsets[np.argmax(np.linalg.norm(offsets, axis=1))]
    out = far / np.linalg.norm(far)
    touch = center + out * (np.linalg.norm(far) + radius)
    side = np.cross(out, rng.normal(size=3))
    side /= np.linalg.norm(side)
    return [touch - 0.02 * side, touch, touch + 0.02 * side]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_waypoints=st.integers(1, 12),
    graze=st.booleans(),
    radius=st.sampled_from([0.005, 0.015, 0.03]),
)
def test_broad_phase_execution_matches_brute_force(seed, n_waypoints, graze, radius):
    rng = np.random.default_rng(seed)
    truth = _blob_truth(rng, int(rng.integers(2, 6)))
    waypoints = list(rng.uniform([-0.06, -0.06, 0.24], [0.06, 0.06, 0.36], (n_waypoints, 3)))
    if graze:
        inst = truth.instances[int(rng.integers(1, len(truth.instances)))]
        waypoints = waypoints[: n_waypoints // 2] + _grazing_waypoints(rng, inst, radius)
    trajectory = Trajectory(waypoints=np.array(waypoints), feasible=True)
    outcome = simulate_execution(trajectory, truth, 0, RobotState(gripper_radius=radius))
    assert outcome.hits == reference_hits(trajectory, truth, 0, radius)


def test_single_waypoint_touching_a_berry_counts_as_a_hit():
    rng = np.random.default_rng(3)
    truth = _blob_truth(rng, 2)
    inst = truth.instances[1]
    point = inst.surfaces[2].xyz[0] + [0.0, 0.0, 0.004]
    trajectory = Trajectory(waypoints=point[None, :], feasible=True)
    state = RobotState(gripper_radius=0.005)
    assert simulate_execution(trajectory, truth, 0, state).hits == {1}
    assert reference_hits(trajectory, truth, 0, 0.005) == {1}


# ---------------------------------------------------------------- A*


def reference_astar(grid, start, goal):
    """A* with per-push divmod heuristic and tie functions and a closed set."""
    if grid.is_occupied(start) or grid.is_occupied(goal):
        return None
    res = grid.resolution
    nx, ny, nz = grid.dims
    py, pz = ny + 2, nz + 2
    padded = np.ones((nx + 2, py, pz), dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = grid.occupied
    occ = padded.ravel().tobytes()

    def flat(cell):
        return ((cell[0] + 1) * py + cell[1] + 1) * pz + cell[2] + 1

    sxy = py * pz
    gx, gy, gz = goal[0] + 1, goal[1] + 1, goal[2] + 1

    def heuristic(f):
        x, rem = divmod(f, sxy)
        y, z = divmod(rem, pz)
        return math.sqrt((x - gx) ** 2 + (y - gy) ** 2 + (z - gz) ** 2) * res

    def tie(f):
        x, rem = divmod(f, sxy)
        y, z = divmod(rem, pz)
        return ((x - 1) * ny + (y - 1)) * nz + (z - 1)

    moves = [((di * py + dj) * pz + dk, step * res) for di, dj, dk, step in _NEIGHBOR_STEPS]
    start_f, goal_f = flat(start), flat(goal)
    g_cost = {start_f: 0.0}
    parent = {}
    closed = set()
    frontier = [(heuristic(start_f), tie(start_f), start_f)]
    while frontier:
        _, _, cell = heapq.heappop(frontier)
        if cell in closed:
            continue
        if cell == goal_f:
            flats = [cell]
            while flats[-1] != start_f:
                flats.append(parent[flats[-1]])
            flats.reverse()
            path = []
            for f in flats:
                x, rem = divmod(f, sxy)
                y, z = divmod(rem, pz)
                path.append((x - 1, y - 1, z - 1))
            return path, g_cost[goal_f]
        closed.add(cell)
        base = g_cost[cell]
        for off, step in moves:
            nxt = cell + off
            if occ[nxt] or nxt in closed:
                continue
            cand = base + step
            if cand < g_cost.get(nxt, math.inf) - 1e-15:
                g_cost[nxt] = cand
                parent[nxt] = cell
                heapq.heappush(frontier, (cand + heuristic(nxt), tie(nxt), nxt))
    return None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(1, 11), st.integers(1, 11), st.integers(1, 11)),
    density=st.sampled_from([0.0, 0.05, 0.2, 0.35]),
    resolution=st.sampled_from([1.0, 0.005, 0.25]),
)
def test_astar_matches_reference_on_tie_heavy_grids(seed, dims, density, resolution):
    # open and sparse grids hold many cells with equal f, so tie order decides
    rng = np.random.default_rng(seed)
    occupied = rng.random(dims) < density
    grid = OccupancyGrid(
        origin=np.zeros(3), resolution=resolution, dims=dims, occupied=occupied
    )
    for _ in range(3):
        start = tuple(int(rng.integers(0, d)) for d in dims)
        goal = tuple(int(rng.integers(0, d)) for d in dims)
        assert astar_grid(grid, start, goal) == reference_astar(grid, start, goal)


# ---------------------------------------------------------------- perception


def reference_partials(rgb, depth, k, masks, cfg):
    """The whole-frame chain: filter and project every pixel, then extract."""
    full = project_point_cloud(rgb, median_filter(depth), k)
    return [
        (m, remove_outliers(voxel_downsample(extract_masked(full, m), cfg.voxel), cfg.outliers))
        for m in masks
    ]


def _assert_same_cloud(a: PointCloud, b: PointCloud):
    assert len(a) == len(b)
    for attr in ("xyz", "colors", "source_pixels", "instance_ids"):
        x, y = getattr(a, attr), getattr(b, attr)
        assert (x is None) == (y is None), attr
        if x is not None:
            assert x.dtype == y.dtype and np.array_equal(x, y), attr


def _rect_mask(shape, instance_id, v0, v1, u0, u1):
    bits = np.zeros(shape, dtype=bool)
    bits[v0:v1, u0:u1] = True
    return InstanceMask(bits=bits, instance_id=instance_id, ripeness=Ripeness.RIPE)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), side=st.sampled_from(["top", "bottom", "left", "right", "all"]))
def test_cropped_partials_equal_whole_frame_when_masks_touch_borders(seed, side):
    rng = np.random.default_rng(seed)
    h, w = 36, 48
    depth = rng.integers(350, 356, (h, w)).astype(np.uint16)  # several pixels per voxel
    depth[rng.random((h, w)) < 0.15] = 0  # dropout holes take part in the median
    rgb = RgbImage(values=rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
    k = CameraIntrinsics(fx=60.0, fy=60.0, cx=23.5, cy=17.5)
    borders = {
        "top": (0, 4, 10, 30),
        "bottom": (h - 4, h, 5, 20),
        "left": (8, 20, 0, 3),
        "right": (15, 30, w - 5, w),
    }
    chosen = list(borders) if side == "all" else [side]
    masks = [_rect_mask((h, w), i, *borders[s]) for i, s in enumerate(chosen)]
    inner = rng.integers(6, 14, 2)
    masks.append(_rect_mask((h, w), 9, inner[0], inner[0] + 6, inner[1], inner[1] + 9))
    cfg = PipelineConfig(
        voxel=VoxelParams(voxel_size=0.01, min_points=1), outliers=OutlierParams(k_neighbors=4)
    )
    fast = extract_partials(rgb, DepthImage(values=depth), k, masks, cfg)
    slow = reference_partials(rgb, DepthImage(values=depth), k, masks, cfg)
    assert [m.instance_id for m, _ in fast] == [m.instance_id for m, _ in slow]
    for (_, a), (_, b) in zip(fast, slow):
        _assert_same_cloud(a, b)


def test_partials_of_empty_masks_are_empty():
    shape = (10, 12)
    masks = [InstanceMask(bits=np.zeros(shape, bool), instance_id=1, ripeness=Ripeness.RIPE)]
    depth = DepthImage(values=np.full(shape, 400, dtype=np.uint16))
    rgb = RgbImage(values=np.zeros(shape + (3,), dtype=np.uint8))
    partials = extract_partials(rgb, depth, CameraIntrinsics(cx=5.5, cy=4.5), masks, PipelineConfig())
    assert [len(c) for _, c in partials] == [0]
