"""Each fast path against a reference copy of the straightforward code it
replaced: the broad-phase execution check against testing every segment,
table-driven, corridor-first A* against a whole-grid search with per-push
heuristic and tie functions, cropped perception against a whole-frame pass,
the masked-pixel median against scipy's, sort-based voxel grouping against
np.unique rows, distance-transform occupancy with a queried doubt band
against a query of every cell of the inflated box, the per-mesh crop
renderer against a full-frame depth stack composited with argmin, the
front-face, live-span renderer against the all-face, full-frame renderer it
replaced, each mesh's depth crop against a per-pixel full-frame buffer,
the one-surface ground-truth draw against the three-surface draw it
replaced, the prior's guide-table face lookup, edge-code mesh checks
and numpy mesh faces against searchsorted, np.unique rows and the face
loop, the one-axis-at-a-time chamfer oracle against the broadcast loop
it replaced, and the per-scene completion benchmark against the loop that
truncated inside a scene. Outputs must match exactly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    CLUTTERED,
    MOVES,
    SINGLE_BERRY,
    ablation_variants,
    chamfer_loss_brute,
    free_cell_graph,
    posed_berry,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from berrypick import (
    BerryInstance,
    CameraIntrinsics,
    DepthImage,
    InstanceMask,
    ObstacleSet,
    Occluder,
    OccupancyGrid,
    OutlierParams,
    PipelineConfig,
    PointCloud,
    Ripeness,
    RenderParams,
    RobotState,
    SceneTemplate,
    StrawberryPrior,
    Trajectory,
    VoxelParams,
    astar_grid,
    build_occupancy,
    extract_masked,
    generate_scene,
    median_filter,
    planning,
    project_point_cloud,
    remove_outliers,
    render_rgbd,
    render_scene_artifacts,
    run_ablation,
    pipeline,
    run_benchmark,
    run_completion_benchmark,
    run_pipeline,
    sample_ground_truth,
    simulate_execution,
    voxel_downsample,
)
from berrypick.pipeline import Completed, _completed, _generated, extract_partials
from berrypick.planning import _segment_distances
from berrypick import prior as prior_module
from berrypick.errors import ParameterError
from berrypick.prior import (
    _check_watertight,
    _guide_table,
    _search_cdf,
    superellipsoid_mesh,
)
from berrypick.render import (
    LEAF_COLOR,
    RIPE_COLOR,
    UNRIPE_COLOR,
    GroundTruth,
    GroundTruthInstance,
    _as_seedseq,
    _composite,
    _corrupt,
    _stream,
    rasterize,
)
from berrypick.types import Pose, rotation_about_axis

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
        surface = inst.surface.xyz
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
                pose=Pose(translation=center),
                surface=surface,
            )
        )
    return GroundTruth(instances=tuple(instances))


def _grazing_waypoints(rng, inst, radius):
    """A segment tangent to the sphere of reach around a berry's center: it
    passes exactly gripper_radius beyond the berry's farthest surface point."""
    center = inst.pose.translation
    offsets = inst.surface.xyz - center
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
    trajectory = Trajectory(waypoints=np.array(waypoints))
    outcome = simulate_execution(trajectory, truth, 0, RobotState(gripper_radius=radius))
    assert outcome.hits == reference_hits(trajectory, truth, 0, radius)


def test_single_waypoint_touching_a_berry_counts_as_a_hit():
    rng = np.random.default_rng(3)
    truth = _blob_truth(rng, 2)
    inst = truth.instances[1]
    point = inst.surface.xyz[0] + [0.0, 0.0, 0.004]
    trajectory = Trajectory(waypoints=point[None, :])
    state = RobotState(gripper_radius=0.005)
    assert simulate_execution(trajectory, truth, 0, state).hits == {1}
    assert reference_hits(trajectory, truth, 0, 0.005) == {1}


# ---------------------------------------------------------------- A*


def reference_astar(grid, start, goal, removed=frozenset()):
    """A* with per-push divmod heuristic and tie functions and a closed set,
    over all 26 moves except the directed (cell, cell) moves in `removed`."""
    if grid.occupied[start] or grid.occupied[goal]:
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

    moves = [((di * py + dj) * pz + dk, step * res) for (di, dj, dk), step in MOVES.items()]
    removed = {(flat(a), flat(b)) for a, b in removed}
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
            if occ[nxt] or nxt in closed or (cell, nxt) in removed:
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
        origin=np.zeros(3), resolution=resolution, occupied=occupied
    )
    for _ in range(3):
        start = tuple(int(rng.integers(0, d)) for d in dims)
        goal = tuple(int(rng.integers(0, d)) for d in dims)
        assert astar_grid(grid, start, goal) == reference_astar(grid, start, goal)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
    density=st.sampled_from([0.0, 0.1, 0.3]),
    resolution=st.sampled_from([1.0, 0.005, 0.25]),
    block_rate=st.sampled_from([0.2, 0.5, 1.0]),
)
def test_blocking_cells_off_every_optimal_path_keeps_the_answer(
    seed, dims, density, resolution, block_rate
):
    # the lemma behind the corridor: S is every cell on some minimum-cost
    # path, found by Dijkstra from both ends; blocking cells outside S must
    # not change the whole-grid search's path or float cost
    rng = np.random.default_rng(seed)
    occupied = rng.random(dims) < density
    free = np.argwhere(~occupied)
    if not len(free):
        return
    start, goal = (tuple(int(v) for v in free[i]) for i in rng.integers(0, len(free), 2))
    grid = OccupancyGrid(origin=np.zeros(3), resolution=resolution, occupied=occupied)
    expected = reference_astar(grid, start, goal)

    index = np.arange(occupied.size).reshape(dims)
    from_start, from_goal = dijkstra(
        free_cell_graph(occupied, resolution), indices=[index[start], index[goal]]
    )
    best = from_start[index[goal]]
    through = from_start + from_goal
    on_optimal = (np.isfinite(through) & (through <= best + 1e-9 * resolution)).reshape(dims)
    assert (expected is None) == (not on_optimal.any())

    blocked = occupied | (~on_optimal & (rng.random(dims) < block_rate))
    narrowed = replace(grid, occupied=blocked)
    assert reference_astar(narrowed, start, goal) == expected
    assert astar_grid(narrowed, start, goal) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
    density=st.sampled_from([0.0, 0.1, 0.3]),
    resolution=st.sampled_from([1.0, 0.005, 0.25]),
    drop_rate=st.sampled_from([0.2, 0.5, 1.0]),
)
def test_removing_moves_off_every_optimal_path_keeps_the_answer(
    seed, dims, density, resolution, drop_rate
):
    # the lemma's edge form, behind the corridor's monotone moves: a move
    # u -> v lies on a minimum-cost path when dist(start, u) + its cost +
    # dist(v, goal) is the optimum; removing any other moves must not change
    # the whole-grid search's path or float cost
    rng = np.random.default_rng(seed)
    occupied = rng.random(dims) < density
    free = np.argwhere(~occupied)
    if not len(free):
        return
    start, goal = (tuple(int(v) for v in free[i]) for i in rng.integers(0, len(free), 2))
    grid = OccupancyGrid(origin=np.zeros(3), resolution=resolution, occupied=occupied)
    expected = reference_astar(grid, start, goal)

    graph = free_cell_graph(occupied, resolution).tocoo()
    index = np.arange(occupied.size).reshape(dims)
    from_start, from_goal = dijkstra(graph.tocsr(), indices=[index[start], index[goal]])
    best = from_start[index[goal]]
    through = from_start[graph.row] + graph.data + from_goal[graph.col]
    on_optimal = np.isfinite(through) & (through <= best + 1e-9 * resolution)
    drop = ~on_optimal & (rng.random(len(through)) < drop_rate)
    cells = np.stack(np.unravel_index(np.arange(occupied.size), dims), axis=1).tolist()
    removed = {(tuple(cells[u]), tuple(cells[v])) for u, v in zip(graph.row[drop], graph.col[drop])}
    assert reference_astar(grid, start, goal, removed) == expected


@pytest.fixture()
def searches(monkeypatch):
    """Record each run of the search loop inside astar_grid."""
    runs = []
    loop = planning._search

    def recorded(*args):
        runs.append(args)
        return loop(*args)

    monkeypatch.setattr(planning, "_search", recorded)
    return runs


def _cut_corridor():
    # a wall across the grid whose one gap lies outside the start-goal box
    occupied = np.zeros((9, 10, 5), dtype=bool)
    occupied[4] = True
    occupied[4, 9, 0] = False
    return occupied


def _walled_in_goal():
    occupied = np.zeros((9, 9, 9), dtype=bool)
    occupied[3:8, 3:8, 3:8] = True
    occupied[5, 5, 5] = False
    return occupied


@pytest.mark.parametrize("resolution", [1.0, 0.005])
@pytest.mark.parametrize(
    "occupied, start, goal, runs",
    [
        (np.zeros((9, 7, 5), dtype=bool), (0, 0, 0), (8, 6, 3), 1),
        (np.zeros((9, 7, 5), dtype=bool), (8, 1, 4), (2, 5, 0), 1),
        (_cut_corridor(), (0, 0, 0), (8, 4, 2), 2),
        (_walled_in_goal(), (0, 0, 0), (5, 5, 5), 2),
        (np.zeros((4, 4, 4), dtype=bool), (2, 1, 3), (2, 1, 3), 1),
    ],
    ids=["open", "open-reversed", "cut-corridor", "walled-in-goal", "start-is-goal"],
)
def test_corridor_branches_match_reference(searches, occupied, start, goal, runs, resolution):
    grid = OccupancyGrid(
        origin=np.zeros(3), resolution=resolution, occupied=occupied
    )
    found = astar_grid(grid, start, goal)
    assert found == reference_astar(grid, start, goal)
    assert len(searches) == runs  # 1: the corridor certified; 2: the whole grid ran too
    if runs == 2 and found is not None:
        assert (4, 9, 0) in found[0]
    if start == goal:
        assert found == ([start], 0.0)


@pytest.mark.parametrize(
    "start, goal",
    [
        ((0, 0, 0), (8, 6, 4)),
        ((8, 1, 4), (2, 5, 0)),
        ((1, 6, 3), (7, 6, 1)),
        ((3, 2, 0), (3, 2, 4)),
        ((2, 1, 3), (2, 1, 3)),
    ],
    ids=["three-axes", "three-axes-reversed", "two-axes", "one-axis", "start-is-goal"],
)
def test_certified_corridor_searches_the_box_with_monotone_moves(searches, start, goal):
    grid = OccupancyGrid(
        origin=np.zeros(3), resolution=0.005, occupied=np.zeros((9, 7, 5), bool)
    )
    assert astar_grid(grid, start, goal) == reference_astar(grid, start, goal)
    assert len(searches) == 1
    blocked, _, moves, _, _ = searches[0]
    offset = [abs(s - g) for s, g in zip(start, goal)]
    assert blocked.shape == tuple(d + 3 for d in offset)
    border = np.ones(blocked.shape, bool)
    border[1:-1, 1:-1, 1:-1] = False
    assert blocked[border].all()
    assert len(moves) == 2 ** sum(d > 0 for d in offset) - 1


def _blob_grid(rng, dims=(30, 30, 75)):
    """An ablation-sized grid: about a dozen solid balls of 2.5-6 cells
    radius, like inflated berries and leaves around a 5 mm grid."""
    index = np.indices(dims).reshape(3, -1).T
    occupied = np.zeros(len(index), bool)
    for _ in range(int(rng.integers(8, 16))):
        center = rng.uniform((0, 0, 20), dims)
        radius = rng.uniform(2.5, 6.0)
        occupied |= ((index - center) ** 2).sum(axis=1) <= radius * radius
    return occupied.reshape(dims)


def test_astar_matches_reference_on_ablation_sized_grids(searches):
    # legs like plan_trajectory's: about 60 cells from the end-effector to
    # the pregrasp point, then a short approach; some grids put a ball on
    # the first leg's straight line, which forces the whole-grid run
    runs = []
    for seed in range(12):
        rng = np.random.default_rng([seed, 27])
        occupied = _blob_grid(rng)
        start = (int(rng.integers(10, 20)), int(rng.integers(10, 20)), 2)
        mid = (int(rng.integers(8, 22)), int(rng.integers(8, 22)), int(rng.integers(58, 66)))
        goal = tuple(int(c + d) for c, d in zip(mid, rng.integers(-4, 5, 3)))
        if seed % 2:
            center = (np.add(start, mid) / 2)[:, None, None, None]
            occupied |= ((np.indices(occupied.shape) - center) ** 2).sum(axis=0) <= 16.0
        for cell in (start, mid, goal):
            occupied[cell] = False
        grid = OccupancyGrid(
            origin=np.zeros(3), resolution=0.005, occupied=occupied
        )
        for a, b in ((start, mid), (mid, goal)):
            searches.clear()
            assert astar_grid(grid, a, b) == reference_astar(grid, a, b)
            runs.append(len(searches))
    assert runs.count(1) >= 1 and runs.count(2) >= 1


# ---------------------------------------------------------------- perception


def reference_partials(depth, k, masks, cfg):
    """The whole-frame chain: filter every pixel, then lift each mask's."""
    filtered = median_filter(depth)
    return [
        (m, remove_outliers(
            voxel_downsample(project_point_cloud(extract_masked(filtered, m.bits), k), cfg.voxel),
            cfg.outliers,
        ))
        for m in masks
    ]


def _assert_same_cloud(a: PointCloud, b: PointCloud):
    assert len(a) == len(b)
    assert a.xyz.dtype == b.xyz.dtype and a.xyz.tobytes() == b.xyz.tobytes()


def _rect_mask(shape, instance_id, v0, v1, u0, u1):
    bits = np.zeros(shape, dtype=bool)
    bits[v0:v1, u0:u1] = True
    return InstanceMask(crop=bits, instance_id=instance_id, ripeness=Ripeness.RIPE)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), side=st.sampled_from(["top", "bottom", "left", "right", "all"]))
def test_cropped_partials_equal_whole_frame_when_masks_touch_borders(seed, side):
    rng = np.random.default_rng(seed)
    h, w = 36, 48
    depth = rng.integers(350, 356, (h, w)).astype(np.uint16)  # several pixels per voxel
    depth[rng.random((h, w)) < 0.15] = 0  # dropout holes take part in the median
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
    fast = extract_partials(DepthImage(values=depth), k, masks, cfg)
    slow = reference_partials(DepthImage(values=depth), k, masks, cfg)
    assert [m.instance_id for m, _ in fast] == [m.instance_id for m, _ in slow]
    for (_, a), (_, b) in zip(fast, slow):
        _assert_same_cloud(a, b)


@pytest.mark.parametrize("seed", range(6))
def test_crop_local_partials_with_overlapping_edge_and_empty_masks(seed):
    """Masks held as tight crops at offsets: two overlapping irregular masks,
    two touching the bottom and right edges, and a zero-pixel mask, whose
    empty crop sits at (0, 0), away from every other mask."""
    rng = np.random.default_rng(seed)
    h, w = 40, 52
    depth = rng.integers(350, 356, (h, w)).astype(np.uint16)  # several pixels per voxel
    depth[rng.random((h, w)) < 0.15] = 0  # dropout holes take part in the median

    def mask(instance_id, v0, v1, u0, u1):
        crop = rng.random((v1 - v0, u1 - u0)) < 0.8
        return InstanceMask(crop=crop, offset=(v0, u0), shape=(h, w),
                            instance_id=instance_id, ripeness=Ripeness.RIPE)

    masks = [
        mask(1, 8, 22, 10, 30),
        mask(2, 15, 30, 22, 40),  # overlaps mask 1's box
        mask(3, 0, 0, 0, 0),
        mask(4, h - 6, h, 14, 26),  # touches the bottom edge
        mask(5, 20, 34, w - 7, w),  # touches the right edge
    ]
    assert masks[2].crop.shape == (0, 0) and masks[2].offset == (0, 0)
    k = CameraIntrinsics(fx=60.0, fy=60.0, cx=25.5, cy=19.5)
    cfg = PipelineConfig(
        voxel=VoxelParams(voxel_size=0.01, min_points=1), outliers=OutlierParams(k_neighbors=4)
    )
    fast = extract_partials(DepthImage(values=depth), k, masks, cfg)
    slow = reference_partials(DepthImage(values=depth), k, masks, cfg)
    assert [m.instance_id for m, _ in fast] == [1, 2, 3, 4, 5]
    assert len(fast[2][1]) == 0 and all(len(c) for i, (_, c) in enumerate(fast) if i != 2)
    for (_, a), (_, b) in zip(fast, slow):
        _assert_same_cloud(a, b)


def test_partials_of_empty_masks_are_empty():
    shape = (10, 12)
    masks = [InstanceMask(crop=np.zeros(shape, bool), instance_id=1, ripeness=Ripeness.RIPE)]
    depth = DepthImage(values=np.full(shape, 400, dtype=np.uint16))
    partials = extract_partials(depth, CameraIntrinsics(cx=5.5, cy=4.5), masks, PipelineConfig())
    assert [len(c) for _, c in partials] == [0]


def reference_median(values, window):
    """Every pixel through scipy's median filter, edges replicated."""
    return ndimage.median_filter(values, size=window, mode="nearest")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    window=st.sampled_from([3, 5, 7]),
    shape=st.tuples(st.integers(1, 14), st.integers(1, 14)),
    density=st.floats(0.0, 1.0),
)
def test_median_at_masked_pixels_matches_ndimage(seed, window, shape, density):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 65536, shape, dtype=np.uint16)
    values[rng.random(shape) < 0.2] = 0
    values[rng.random(shape) < 0.3] = rng.integers(0, 3)  # ties in the window
    where = rng.random(shape) < density
    expected = reference_median(values, window)
    masked = median_filter(DepthImage(values), window, where=where).values
    assert masked.dtype == np.uint16
    assert np.array_equal(masked, np.where(where, expected, 0))
    assert np.array_equal(median_filter(DepthImage(values), window).values, expected)


@pytest.mark.parametrize("window", [3, 5, 7])
def test_median_where_touching_every_border_and_edge_cases(window):
    rng = np.random.default_rng(window)
    values = rng.integers(0, 900, (20, 30), dtype=np.uint16)
    values[rng.random(values.shape) < 0.15] = 0
    expected = reference_median(values, window)
    borders = np.zeros(values.shape, dtype=bool)
    borders[0, 3:9] = borders[-1, :4] = borders[5:12, 0] = borders[:, -1] = True
    borders[-1, -1] = borders[0, 0] = True
    masked = median_filter(DepthImage(values), window, where=borders).values
    assert np.array_equal(masked, np.where(borders, expected, 0))

    empty = median_filter(DepthImage(values), window, where=np.zeros(values.shape, bool))
    assert empty.values.shape == values.shape and not empty.values.any()

    for column in (values[:, :1], values[:1, :]):  # one pixel wide, either way
        assert np.array_equal(median_filter(DepthImage(column), window).values,
                              reference_median(column, window))


def reference_voxel_downsample(cloud, params):
    """The np.unique(axis=0) grouping that voxel_downsample replaced."""
    if len(cloud) == 0:
        return PointCloud.empty()
    keys = np.floor(cloud.xyz / params.voxel_size).astype(np.int64)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    keep = counts >= params.min_points
    if not keep.any():
        return PointCloud.empty()
    sums = np.zeros((len(counts), 3))
    np.add.at(sums, inverse.ravel(), cloud.xyz)
    return PointCloud(xyz=sums[keep] / counts[keep, None])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    spread=st.sampled_from([0.0, 0.004, 0.05, 0.3]),
    min_points=st.sampled_from([1, 3]),
)
def test_voxel_grouping_matches_unique_rows(seed, n, spread, min_points):
    rng = np.random.default_rng(seed)
    # centred on the origin, so keys take negative values too
    xyz = rng.normal(0.0, spread, (n, 3)) + rng.uniform(-0.01, 0.01, 3)
    params = VoxelParams(voxel_size=0.003, min_points=min_points)
    _assert_same_cloud(voxel_downsample(PointCloud(xyz=xyz), params),
                       reference_voxel_downsample(PointCloud(xyz=xyz), params))


@pytest.mark.parametrize("min_points", [1, 3])
def test_voxel_grouping_edge_cases_match_unique_rows(min_points):
    params = VoxelParams(voxel_size=0.01, min_points=min_points)
    one = PointCloud(xyz=np.array([[-0.013, 0.0, 0.02]]))
    together = PointCloud(xyz=np.array([[-0.011, -0.002, 0.0]] * 2 + [[-0.019, -0.009, 0.009]]))
    for cloud in (one, together):
        _assert_same_cloud(voxel_downsample(cloud, params),
                           reference_voxel_downsample(cloud, params))
    assert len(voxel_downsample(together, params)) == 1


def reference_occupancy(obstacles, resolution, inflation, include_points=None):
    """The occupancy build_occupancy made by querying every cell of the
    obstacles' inflated bounding box; the grid extent is build_occupancy's."""
    extent = build_occupancy(obstacles, resolution, inflation, include_points)
    pts, lo, dims = obstacles.points.xyz, extent.origin, np.asarray(extent.dims)
    occupied = np.zeros(extent.dims, dtype=bool)
    cells = np.clip(np.floor((pts - lo) / resolution).astype(int), 0, dims - 1)
    occupied[cells[:, 0], cells[:, 1], cells[:, 2]] = True
    if inflation > 0:
        lo_cell = np.clip(np.floor((pts.min(axis=0) - inflation - lo) / resolution).astype(int),
                          0, dims - 1)
        hi_cell = np.clip(np.floor((pts.max(axis=0) + inflation - lo) / resolution).astype(int),
                          0, dims - 1)
        axes = [np.arange(a, b + 1) for a, b in zip(lo_cell, hi_cell)]
        sub = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        dist, _ = cKDTree(pts).query(
            lo + (sub + 0.5) * resolution, distance_upper_bound=np.nextafter(inflation, np.inf)
        )
        near = sub[dist <= inflation]
        occupied[near[:, 0], near[:, 1], near[:, 2]] = True
    return occupied


# Lattice distances between cell centers, in cells. A ratio inflation /
# resolution of k + sqrt(3)/2 puts cells at distance k on the sure-in edge,
# and k - sqrt(3)/2 on the sure-out edge, of build_occupancy's doubt band.
_LATTICE = (0.0, 1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0, math.sqrt(5.0), 3.0)
_EDGE_RATIOS = sorted({abs(k + s * math.sqrt(3.0) / 2.0) for k in _LATTICE for s in (-1, 1)})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    ratio=st.sampled_from([0.0, 0.4, 1.0, 2.0, 3.0, 3.6, 6.5, 7.2] + _EDGE_RATIOS),
    nudge=st.sampled_from([-1, 0, 1]),
    placement=st.sampled_from(["free", "faces", "corners", "centers"]),
    shells=st.integers(0, 2),
    boxed=st.booleans(),
)
def test_occupancy_near_cells_match_whole_box_query(
    prior, seed, n, ratio, nudge, placement, shells, boxed
):
    rng = np.random.default_rng(seed)
    resolution = 0.005
    # a ratio on a band edge, or one float step to either side of it
    inflation = float(ratio * resolution)
    for _ in range(abs(nudge) if inflation > 0 else 0):
        inflation = float(np.nextafter(inflation, nudge * np.inf))
    xyz = rng.normal(0.0, 0.02, (n, 3)) + [0.0, 0.0, 0.3]
    # dense shells of posed prior samples, as completed berries are
    surface = prior.canonical_samples(4096)
    for _ in range(shells):
        pose = Pose(rotation_about_axis(rng.normal(size=3), rng.uniform(0.0, 2 * np.pi)),
                    rng.normal(0.0, 0.02, 3) + [0.0, 0.0, 0.3])
        xyz = np.concatenate([xyz, pose.apply(surface)])
    if placement == "faces":  # x on cell faces, where the cell index rounds
        xyz[:, 0] = np.round(xyz[:, 0] / resolution) * resolution
    elif placement == "corners":
        xyz = np.round(xyz / resolution) * resolution
    elif placement == "centers":  # cell distances fall on the lattice
        xyz = (np.floor(xyz / resolution) + 0.5) * resolution
    extra = [[0.0, 0.0, 0.05]]
    if boxed:  # a grid sized by two include points just beyond the cloud's box
        extra = [xyz.min(axis=0) - rng.uniform(0.0, 0.01, 3),
                 xyz.max(axis=0) + rng.uniform(0.0, 0.01, 3)]
    obstacles = ObstacleSet(points=PointCloud(xyz=xyz))
    grid = build_occupancy(obstacles, resolution, inflation, extra)
    assert np.array_equal(
        grid.occupied, reference_occupancy(obstacles, resolution, inflation, extra)
    )


@pytest.mark.parametrize("resolution", [0.001, 0.003, 0.005])
def test_occupancy_margin_holds_on_the_sure_in_edge(resolution):
    # One point on its cell's low corner: the cell one diagonal step above it
    # has d = sqrt(3) resolution, and its center lies exactly d + sqrt(3)/2
    # resolution from the point. With the inflation on that edge, whether the
    # cell is in falls to float rounding, which only the margin absorbs.
    # The include point q sizes the grid: its origin is q less the pad that
    # build_occupancy adds, computed here with the same float operations.
    rng = np.random.default_rng(7)
    inflation = float(1.5 * math.sqrt(3.0) * resolution)
    for _ in range(60):
        q = np.round(rng.uniform(-20.0, 20.0, 3)) * resolution + rng.choice([0.0, 0.3, 1.3])
        origin = q - (inflation + 2 * resolution)
        point = origin + rng.integers(5, 8, 3) * resolution  # past q on every axis
        obstacles = ObstacleSet(points=PointCloud(xyz=point[None]))
        box = [q, q + 10 * resolution]
        grid = build_occupancy(obstacles, resolution, inflation, box)
        assert np.array_equal(grid.origin, origin)
        assert np.array_equal(
            grid.occupied, reference_occupancy(obstacles, resolution, inflation, box)
        )


# ---------------------------------------------------------------- prior


def reference_search_cdf(cdf, keys):
    return cdf.searchsorted(keys, side="right")


def _area_cdf(areas):
    """The CDF StrawberryPrior._face_tables builds from its face areas."""
    areas = np.asarray(areas, dtype=np.float64)
    cdf = (areas / areas.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _boundary_keys(cdf, guide):
    """Every CDF value below 1 and its neighbours, every bucket edge and its
    neighbours, 0.0 and the largest double below 1."""
    edges = np.arange(len(guide)) / len(guide)
    points = np.concatenate([cdf[cdf < 1.0], edges])
    keys = np.concatenate([points, np.nextafter(points, -1.0), np.nextafter(points, 2.0),
                           [0.0, np.nextafter(1.0, 0.0)]])
    return keys[(keys >= 0.0) & (keys < 1.0)]


_AREAS = st.one_of(
    # zero-area faces repeat a CDF value
    st.lists(st.sampled_from([0.0, 1.0, 2.5, 1e-3]), min_size=1, max_size=40),
    # many tiny faces share one bucket, and one large face leaves buckets empty
    st.tuples(st.integers(1, 60), st.floats(1e-12, 1e-3), st.integers(0, 5)).map(
        lambda t: [t[1]] * t[0] + [1.0] + [t[1]] * t[2]),
    st.lists(st.floats(0.0, 1e3), min_size=1, max_size=200),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(areas=_AREAS, seed=st.integers(0, 2**32 - 1))
def test_guide_table_search_matches_searchsorted(areas, seed):
    assume(sum(areas) > 0)
    cdf = _area_cdf(areas)
    guide = _guide_table(cdf)
    assert len(guide) >= 2 * len(cdf) and len(guide) & (len(guide) - 1) == 0
    keys = np.concatenate([_boundary_keys(cdf, guide), np.random.default_rng(seed).random(500)])
    assert np.array_equal(_search_cdf(cdf, guide, keys), reference_search_cdf(cdf, keys))


def test_guide_table_search_matches_searchsorted_on_the_builtin_prior(prior):
    cdf, guide = prior._face_tables[:2]
    keys = np.concatenate([_boundary_keys(cdf, guide), np.random.default_rng(5).random(16384)])
    assert np.array_equal(_search_cdf(cdf, guide, keys), reference_search_cdf(cdf, keys))


def reference_check_watertight(faces):
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    return bool((counts == 2).all())


def reference_winding(vertices, faces):
    f = faces.astype(np.int64)
    directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    codes = directed[:, 0] * len(vertices) + directed[:, 1]
    if len(np.unique(codes)) < len(codes):
        return 0
    tri = vertices[faces]
    return int(np.sign(np.einsum("ij,ij->", tri[:, 0], np.cross(tri[:, 1], tri[:, 2]))))


def _refusal(vertices, faces):
    try:
        StrawberryPrior(vertices=vertices, faces=faces)
    except ParameterError as exc:
        return str(exc)
    return None


def test_edge_code_checks_match_unique_rows(prior, monkeypatch):
    v, f = prior.vertices, prior.faces
    flipped = f.copy()
    flipped[100] = flipped[100, ::-1]
    meshes = {
        "closed": f,
        "missing-face": np.delete(f, 7, axis=0),
        "duplicated-face": np.concatenate([f, f[:1]]),
        "flipped-face": flipped,
        "empty": np.zeros((0, 3), dtype=np.int32),
    }
    refusals = {}
    for name, faces in meshes.items():
        assert _check_watertight(faces, len(v)) == reference_check_watertight(faces), name
        refusals[name] = _refusal(v, faces)
    assert StrawberryPrior(vertices=v, faces=flipped).winding == reference_winding(v, flipped) == 0
    assert prior.winding == reference_winding(v, f) == 1

    monkeypatch.setattr(prior_module, "_check_watertight",
                        lambda faces, n_vertices: reference_check_watertight(faces))
    assert {name: _refusal(v, faces) for name, faces in meshes.items()} == refusals
    assert refusals == {
        "closed": None,
        "missing-face": "prior mesh must be watertight",
        "duplicated-face": "prior mesh must be watertight",
        "flipped-face": None,
        "empty": "prior surface area must be finite and positive, got 0.0",
    }


def reference_superellipsoid_faces(stacks, slices):
    def ring_vertex(i, j):
        return 1 + i * slices + (j % slices)

    faces = []
    for j in range(slices):  # south cap
        faces.append([0, ring_vertex(0, j + 1), ring_vertex(0, j)])
    for i in range(stacks - 2):
        for j in range(slices):
            v00 = ring_vertex(i, j)
            v01 = ring_vertex(i, j + 1)
            v10 = ring_vertex(i + 1, j)
            v11 = ring_vertex(i + 1, j + 1)
            faces.append([v00, v01, v11])
            faces.append([v00, v11, v10])
    top = 1 + (stacks - 1) * slices
    for j in range(slices):  # north cap
        faces.append([top, ring_vertex(stacks - 2, j), ring_vertex(stacks - 2, j + 1)])
    return np.asarray(faces, dtype=np.int32)


@pytest.mark.parametrize("stacks, slices", [(3, 3), (7, 5), (24, 32)])
def test_superellipsoid_faces_match_the_loop(stacks, slices):
    vertices, faces = superellipsoid_mesh(0.012, 0.012, 0.0175, stacks=stacks, slices=slices)
    expected = reference_superellipsoid_faces(stacks, slices)
    assert faces.dtype == expected.dtype and np.array_equal(faces, expected)
    assert len(vertices) == expected.max() + 1


# ---------------------------------------------------------------- render


def reference_rasterize(vertices, faces, k, width, height, winding=0):
    """Full-frame depth buffer of one mesh, every candidate gathered per pixel.
    With winding +1 or -1 only the faces whose doubled area, signed by the
    winding, is below 1e-9 are cast, as in rasterize."""
    v = np.asarray(vertices, dtype=np.float64)
    f = np.asarray(faces, dtype=np.int64)
    depth = np.full((height, width), np.inf)
    z = v[:, 2]
    us = k.fx * v[:, 0] / z + k.cx
    vs = k.fy * v[:, 1] / z + k.cy
    pu, pv = us[f], vs[f]
    u0 = np.maximum(np.ceil(pu.min(axis=1)), 0).astype(np.int64)
    u1 = np.minimum(np.floor(pu.max(axis=1)), width - 1).astype(np.int64)
    v0 = np.maximum(np.ceil(pv.min(axis=1)), 0).astype(np.int64)
    v1 = np.minimum(np.floor(pv.max(axis=1)), height - 1).astype(np.int64)
    wbox, hbox = u1 - u0 + 1, v1 - v0 + 1
    area2 = (pu[:, 1] - pu[:, 0]) * (pv[:, 2] - pv[:, 0]) - (pv[:, 1] - pv[:, 0]) * (
        pu[:, 2] - pu[:, 0]
    )
    keep = (wbox > 0) & (hbox > 0) & (np.abs(area2) > 1e-12)
    if winding:
        keep &= winding * area2 < 1e-9
    if not keep.any():
        return depth
    tri = v[f[keep]]
    pu, pv = pu[keep], pv[keep]
    u0, v0, wbox, hbox = u0[keep], v0[keep], wbox[keep], hbox[keep]
    sign = np.where(area2[keep] > 0, 1.0, -1.0)
    box = wbox * hbox
    rep = np.repeat(np.arange(len(box)), box)
    offset = np.arange(box.sum()) - np.repeat(np.cumsum(box) - box, box)
    gu = u0[rep] + offset % wbox[rep]
    gv = v0[rep] + offset // wbox[rep]
    w0 = (pu[rep, 1] - pu[rep, 0]) * (gv - pv[rep, 0]) - (pv[rep, 1] - pv[rep, 0]) * (
        gu - pu[rep, 0]
    )
    w1 = (pu[rep, 2] - pu[rep, 1]) * (gv - pv[rep, 1]) - (pv[rep, 2] - pv[rep, 1]) * (
        gu - pu[rep, 1]
    )
    w2 = (pu[rep, 0] - pu[rep, 2]) * (gv - pv[rep, 2]) - (pv[rep, 0] - pv[rep, 2]) * (
        gu - pu[rep, 2]
    )
    s = sign[rep]
    inside = (s * w0 >= 0) & (s * w1 >= 0) & (s * w2 >= 0)
    rep, gu, gv = rep[inside], gu[inside], gv[inside]
    n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    n_rep = n[rep]
    denom = n_rep[:, 0] * (gu - k.cx) / k.fx + n_rep[:, 1] * (gv - k.cy) / k.fy + n_rep[:, 2]
    plane = np.einsum("ij,ij->i", n, tri[:, 0])[rep]
    safe = np.abs(denom) > 1e-15
    t = np.where(safe, plane / np.where(safe, denom, 1.0), np.inf)
    hit = safe & (t > 1e-6)
    np.minimum.at(depth, (gv[hit], gu[hit]), t[hit])
    return depth


def reference_render(scene, prior, params, seed):
    """Stack every mesh's full-frame buffer, then min and argmin over the
    stack; reference_corrupt adds the noise."""
    h, w = scene.height, scene.width
    meshes = [
        (b.pose.apply(prior.vertices), prior.faces,
         RIPE_COLOR if b.ripeness is Ripeness.RIPE else UNRIPE_COLOR)
        for b in scene.berries
    ] + [(*o.mesh(), LEAF_COLOR) for o in scene.occluders]
    rgb = np.zeros((h, w, 3), dtype=np.uint8)
    clean_mm = np.zeros((h, w), dtype=np.uint16)
    masks, visibility = [], {}
    if meshes:
        buffers = np.stack(
            [reference_rasterize(mv, mf, scene.intrinsics, w, h) for mv, mf, _ in meshes]
        )
        nearest = buffers.min(axis=0)
        winner = buffers.argmin(axis=0)
        valid = np.isfinite(nearest)
        for i, (_, _, color) in enumerate(meshes):
            rgb[valid & (winner == i)] = color
        for i, berry in enumerate(scene.berries):
            bits = valid & (winner == i)
            masks.append((berry.instance_id, bits))
            solo = int(np.isfinite(buffers[i]).sum())
            visibility[berry.instance_id] = float(bits.sum()) / solo if solo else 0.0
        clean_mm[valid] = np.clip(np.rint(nearest[valid] * 1000.0), 0, 65535).astype(np.uint16)
    return rgb, reference_corrupt(clean_mm, params, seed), clean_mm, masks, visibility


def _leaf(center, semi_major=0.02):
    return Occluder(center=np.asarray(center, float), normal=np.array([0.1, -0.2, 1.0]),
                    semi_major=semi_major, semi_minor=0.6 * semi_major, roll_rad=0.4)


def _edge_case_scenes(prior):
    k = CameraIntrinsics()
    twins = SceneTemplate(  # identical berries and identical leaves: exact depth ties
        berries=(posed_berry(0, (0.01, 0.0, 0.35)), posed_berry(1, (0.01, 0.0, 0.35))),
        occluders=(_leaf((0.0, 0.0, 0.25)), _leaf((0.0, 0.0, 0.25))),
        intrinsics=k,
    )
    cut = SceneTemplate(  # one berry cut by each image edge, one leaf across a corner
        berries=tuple(
            posed_berry(i, c, Ripeness.UNRIPE if i % 2 else Ripeness.RIPE)
            for i, c in enumerate(
                [(-0.135, 0.0, 0.33), (0.135, 0.0, 0.33), (0.0, -0.1, 0.33), (0.0, 0.1, 0.33)]
            )
        ),
        occluders=(_leaf((0.12, 0.09, 0.3), 0.03),),
        intrinsics=k,
    )
    offscreen = SceneTemplate(
        berries=(posed_berry(0, (0.5, 0.0, 0.33)), posed_berry(1, (0.0, 0.0, 0.36))),
        occluders=(_leaf((0.0, 0.6, 0.3)),),
        intrinsics=k,
    )
    leaves_only = SceneTemplate(
        berries=(), occluders=(_leaf((0.0, 0.0, 0.3)), _leaf((0.01, 0.005, 0.28))), intrinsics=k
    )
    small = SceneTemplate(  # a frame narrower than the berry's on-screen box
        berries=(posed_berry(0, (0.0, 0.0, 0.33)),),
        intrinsics=CameraIntrinsics(fx=800.0, fy=800.0, cx=9.5, cy=7.5),
        width=20,
        height=16,
    )
    return [twins, cut, offscreen, leaves_only, small]


def test_crop_render_matches_full_frame_reference(prior):
    scenes = _edge_case_scenes(prior)
    rng = np.random.Generator(np.random.Philox(3))
    scenes += [generate_scene(CLUTTERED, prior, rng) for _ in range(4)]
    for i, scene in enumerate(scenes):
        for params in (RenderParams(2.0, 0.05), RenderParams(0.0, 0.0)):
            out = render_rgbd(scene, prior, params, np.random.SeedSequence(i))
            rgb, noisy, clean, masks, visibility = reference_render(
                scene, prior, params, np.random.SeedSequence(i)
            )
            assert np.array_equal(out.rgb.values, rgb)
            assert np.array_equal(out.depth.values, noisy)
            assert np.array_equal(out.clean_depth.values, clean)
            assert [m.instance_id for m in out.masks] == [mid for mid, _ in masks]
            for m, (_, bits) in zip(out.masks, masks):
                assert np.array_equal(m.bits, bits)
            assert out.visibility == visibility

    # the edge cases do what they claim
    twins, cut, offscreen, leaves_only, small = (
        render_rgbd(s, prior, RenderParams(0.0, 0.0)) for s in scenes[:5]
    )
    assert twins.masks[0].bits.any() and not twins.masks[1].bits.any()
    bits = [m.bits for m in cut.masks]
    assert bits[0][:, 0].any() and bits[1][:, -1].any() and bits[2][0].any() and bits[3][-1].any()
    assert offscreen.visibility[0] == 0.0 and offscreen.visibility[1] > 0.9
    assert not leaves_only.masks and (leaves_only.rgb.values == LEAF_COLOR).all(axis=2).any()
    assert small.masks[0].bits.all()


def reference_composite(scene, prior):
    """The clean frame as the renderer made it before back-face culling and
    the palette gather: every face of every mesh, RGB by boolean masks."""
    h, w = scene.height, scene.width
    meshes, colors = [], []
    for berry in scene.berries:
        meshes.append((berry.pose.apply(prior.vertices), prior.faces))
        colors.append(RIPE_COLOR if berry.ripeness is Ripeness.RIPE else UNRIPE_COLOR)
    for occ in scene.occluders:
        meshes.append(occ.mesh())
        colors.append(LEAF_COLOR)
    nearest = np.full((h, w), np.inf)
    winner = np.full((h, w), -1, dtype=np.int32)
    windows, solo = [], []
    for i, (mv, mf) in enumerate(meshes):
        crop, (r0, c0) = rasterize(mv, mf, scene.intrinsics, w, h)
        win = (slice(r0, r0 + crop.shape[0]), slice(c0, c0 + crop.shape[1]))
        closer = crop < nearest[win]
        np.copyto(nearest[win], crop, where=closer)
        np.copyto(winner[win], i, where=closer)
        windows.append(win)
        solo.append(int(np.isfinite(crop).sum()))
    valid = winner >= 0
    rgb = np.zeros((h, w, 3), dtype=np.uint8)
    rgb[valid] = np.array(colors, dtype=np.uint8).reshape(-1, 3)[winner[valid]]
    masks, visibility = [], {}
    for i, berry in enumerate(scene.berries):
        bits = winner == i
        masks.append((berry.instance_id, bits))
        visibility[berry.instance_id] = float(bits.sum()) / solo[i] if solo[i] else 0.0
    clean_mm = np.zeros((h, w), dtype=np.uint16)
    clean_mm[valid] = np.clip(np.rint(nearest[valid] * 1000.0), 0, 65535).astype(np.uint16)
    return rgb, clean_mm, masks, visibility


def reference_corrupt(clean_mm, params, seed):
    """Noise and dropout drawn over the full frame, applied by boolean masks."""
    h, w = clean_mm.shape
    noise_ss, drop_ss = _as_seedseq(seed).spawn(2)
    noisy = clean_mm.copy()
    live = clean_mm > 0
    if params.noise_sigma_mm > 0:
        jitter = _stream(noise_ss).normal(0.0, params.noise_sigma_mm, size=(h, w))
        noisy[live] = np.clip(np.rint(clean_mm[live] + jitter[live]), 0, 65535).astype(np.uint16)
    if params.dropout_rate > 0:
        dropped = _stream(drop_ss).random((h, w)) < params.dropout_rate
        noisy[dropped & live] = 0
    return noisy


def _assert_renders_like_reference(scene, prior, params_list, seed):
    """render_rgbd equals the reference for every params, bit for bit; the
    index of the frame's first live pixel, or None with no live pixel."""
    rgb, clean, masks, visibility = reference_composite(scene, prior)
    for params in params_list:
        out = render_rgbd(scene, prior, params, seed)
        assert np.array_equal(out.rgb.values, rgb)
        assert np.array_equal(out.clean_depth.values, clean)
        assert np.array_equal(out.depth.values, reference_corrupt(clean, params, seed))
        assert [m.instance_id for m in out.masks] == [mid for mid, _ in masks]
        assert all(np.array_equal(m.bits, bits) for m, (_, bits) in zip(out.masks, masks))
        assert out.visibility == visibility
    live = np.flatnonzero(clean)
    return int(live[0]) if len(live) else None


_ZERO_PARAMS = (RenderParams(0.0, 0.0), RenderParams(0.0, 0.05), RenderParams(2.0, 0.0))


def test_front_face_live_span_render_matches_all_face_reference(prior):
    """Forty scenes of each template at the perfbench and default sensor
    settings; the edge-case scenes, a blank frame and three scenes of each
    template also at zero noise, zero dropout or both."""
    k = CameraIntrinsics()
    blank = SceneTemplate(berries=(posed_berry(0, (0.5, 0.0, 0.33)),), occluders=(), intrinsics=k)
    firsts = []
    for i, scene in enumerate([*_edge_case_scenes(prior), blank]):
        params = (RenderParams(2.0, 0.05), RenderParams(), *_ZERO_PARAMS)
        firsts.append(_assert_renders_like_reference(scene, prior, params, i))
    assert firsts[-1] is None  # the blank frame draws nothing
    for template in (CLUTTERED, SINGLE_BERRY):
        rng = np.random.Generator(np.random.Philox(19))
        for i in range(40):
            scene = generate_scene(template, prior, rng)
            params = (RenderParams(2.0, 0.05), RenderParams(), *(_ZERO_PARAMS if i < 3 else ()))
            firsts.append(
                _assert_renders_like_reference(scene, prior, params, np.random.SeedSequence(i))
            )
    # the dropout stream started off a multiple of 4 in every position
    assert {f % 4 for f in firsts if f is not None} == {0, 1, 2, 3}


def _write_obj(path, vertices, faces):
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in vertices.tolist()]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces.tolist()]
    path.write_text("\n".join(lines) + "\n")
    return StrawberryPrior.from_obj(str(path))


def test_culling_follows_the_prior_winding(prior, tmp_path):
    """An inside-out prior culls with the opposite sign, and a prior with one
    face flipped renders every face; both render as the reference does."""
    inside_out = _write_obj(tmp_path / "inside_out.obj", prior.vertices, prior.faces[:, ::-1])
    flipped = prior.faces.copy()
    flipped[100] = flipped[100, ::-1]
    one_flipped = _write_obj(tmp_path / "one_flipped.obj", prior.vertices, flipped)
    assert (prior.winding, inside_out.winding, one_flipped.winding) == (1, -1, 0)

    posed = Pose(translation=np.array([0.0, 0.0, 0.36])).apply(prior.vertices)
    k = CameraIntrinsics()
    every_face, origin = rasterize(posed, prior.faces, k, 640, 480)
    for faces, winding in ((prior.faces, 1), (prior.faces[:, ::-1], -1), (flipped, 0)):
        culled, at = rasterize(posed, faces, k, 640, 480, winding)
        assert at == origin
        assert np.array_equal(np.isfinite(culled), np.isfinite(every_face))
    # the wrong sign keeps the faces turned away, so it shows the far side
    back, _ = rasterize(posed, prior.faces, k, 640, 480, -1)
    seen = np.isfinite(every_face)
    assert np.array_equal(np.isfinite(back), seen) and (back[seen] > every_face[seen]).all()

    rng = np.random.Generator(np.random.Philox(23))
    cut = _edge_case_scenes(prior)[1]
    scenes = [cut, *(generate_scene(CLUTTERED, prior, rng) for _ in range(4))]
    for mesh in (inside_out, one_flipped):
        for i, scene in enumerate(scenes):
            _assert_renders_like_reference(scene, mesh, (RenderParams(2.0, 0.05),), i)


_SMALL = CameraIntrinsics(fx=80.0, fy=80.0, cx=31.5, cy=23.5)  # a 64 x 48 frame


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    u=st.floats(-12.0, 76.0),
    v=st.floats(-12.0, 60.0),
    z=st.floats(0.0176, 0.1),
    axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    angle=st.floats(0.0, np.pi),
    ripe=st.booleans(),
)
def test_culled_render_matches_reference_near_edges_and_near_plane(
    prior, u, v, z, axis, angle, ripe
):
    """One berry cut by the frame edges or close to the camera, on a small
    frame, renders as the reference does."""
    assume(np.linalg.norm(axis) > 1e-3)
    pose = Pose(
        rotation=rotation_about_axis(np.asarray(axis), angle),
        translation=np.array([(u - _SMALL.cx) * z / _SMALL.fx, (v - _SMALL.cy) * z / _SMALL.fy, z]),
    )
    assume(pose.apply(prior.vertices)[:, 2].min() > 1e-6)
    berry = BerryInstance(0, pose, Ripeness.RIPE if ripe else Ripeness.UNRIPE)
    scene = SceneTemplate(berries=(berry,), occluders=(), intrinsics=_SMALL, width=64, height=48)
    _assert_renders_like_reference(scene, prior, (RenderParams(2.0, 0.05),), 0)


_UNIT = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)  # depth 2**k projects exactly


def _nudge(x: float, ulps: int) -> float:
    """x moved by ulps units in the last place."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


@st.composite
def _screen_coordinate(draw):
    """A coordinate in [-8, 72]: a fraction with a small denominator, which
    puts crossings on or next to pixel centers, or any float."""
    den = draw(st.sampled_from([1, 2, 3, 5, 7, 10, None]))
    if den is None:
        return draw(st.floats(-8.0, 72.0))
    return draw(st.integers(-8 * den, 72 * den)) / den


@st.composite
def _screen_triangle(draw):
    """Three vertices whose screen coordinates on _UNIT are exact: free, with
    an edge within a hair of horizontal, or all inside one pixel, each
    coordinate nudged by up to 2 ulps."""
    corners = [[draw(_screen_coordinate()), draw(_screen_coordinate())] for _ in range(3)]
    kind = draw(st.sampled_from(["free", "near-horizontal", "sub-pixel"]))
    if kind == "near-horizontal":
        corners[1][1] = corners[0][1] + draw(st.sampled_from([0.0, 1e-13, -1e-9, 1e-6, -3e-4]))
    elif kind == "sub-pixel":
        corners = [[corners[0][0] + draw(st.floats(0.0, 0.9)),
                    corners[0][1] + draw(st.floats(0.0, 0.9))] for _ in range(3)]
    rows = []
    for u, v in corners:
        z = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
        nudges = st.sampled_from([1, -1, 2, -2, 0])
        u, v = _nudge(u, draw(nudges)), _nudge(v, draw(nudges))
        rows.append((u * z, v * z, z))
    return rows


def _assert_rasterizes_like_reference(vertices, faces, k, width, height, winding=0):
    """rasterize's crop is the reference frame cut at the returned origin,
    and the frame has no depth outside it."""
    crop, (r0, c0) = rasterize(vertices, faces, k, width, height, winding)
    frame = reference_rasterize(vertices, faces, k, width, height, winding)
    window = (slice(r0, r0 + crop.shape[0]), slice(c0, c0 + crop.shape[1]))
    assert np.array_equal(crop, frame[window])
    frame[window] = np.inf
    assert np.isinf(frame).all()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(triangles=st.lists(_screen_triangle(), min_size=1, max_size=4),
       winding=st.sampled_from([0, 1, -1]))
@example(triangles=[[(0.0, 0.0, 0.25), (0.0, 0.25, 0.25), (0.25, 0.0, 0.25)]], winding=0)
def test_rasterize_matches_reference_on_triangles(triangles, winding):
    """Derandomized draws seldom put a pixel center exactly on an edge, so
    the explicit example's three covered centers all lie on its edges."""
    vertices = np.array([corner for tri in triangles for corner in tri])
    faces = np.arange(len(vertices)).reshape(-1, 3)
    _assert_rasterizes_like_reference(vertices, faces, _UNIT, 64, 48, winding)


def test_rasterize_matches_reference_on_nudged_lattice_triangles():
    """Corners on whole or third pixels, each coordinate one ulp off, so
    edges pass within a hair of pixel centers and the edge tests decide
    them on their last bits."""
    rng = np.random.default_rng(2025)
    faces = np.array([[0, 1, 2]])
    for _ in range(1000):
        den = rng.choice([1, 3])
        corners = rng.integers(-8 * den, 72 * den, size=(3, 2)) / den
        corners = np.nextafter(corners, corners + rng.choice([-1.0, 1.0], size=(3, 2)))
        z = rng.choice([0.25, 0.5, 1.0, 2.0], size=(3, 1))
        vertices = np.hstack([corners * z, z])
        _assert_rasterizes_like_reference(vertices, faces, _UNIT, 64, 48)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    u=st.floats(-100.0, 740.0), v=st.floats(-100.0, 580.0), z=st.floats(0.12, 0.6),
    normal=st.tuples(*[st.floats(-1.0, 1.0)] * 2), semi_major=st.floats(0.005, 0.06),
    aspect=st.floats(0.2, 1.0), roll=st.floats(0.0, 2 * np.pi),
)
def test_rasterize_matches_reference_on_leaf_fans(u, v, z, normal, semi_major, aspect, roll):
    """Leaf fans on the default 640 x 480 camera, whole or cut by the frame."""
    k = CameraIntrinsics()
    leaf = Occluder(center=np.array([(u - k.cx) * z / k.fx, (v - k.cy) * z / k.fy, z]),
                    normal=np.array([*normal, 1.0]), semi_major=semi_major,
                    semi_minor=aspect * semi_major, roll_rad=roll)
    vertices, faces = leaf.mesh()
    assume(vertices[:, 2].min() > 1e-6)
    _assert_rasterizes_like_reference(vertices, faces, k, 640, 480)


# ---------------------------------------------------------------- ground truth


def reference_ground_truth_surface(prior, pose, rng) -> PointCloud:
    """The old three-surface draw: 256, 1,024 and 4,096 points from one
    stream, of which ground truth now keeps only the last."""
    draws = [pose.apply(prior.sample_surface(n, rng)) for n in (256, 1024, 4096)]
    return PointCloud(xyz=draws[2])


def test_ground_truth_surface_equals_the_last_of_three_draws(prior):
    for seed in range(60):
        rng = np.random.default_rng(seed)
        pose = Pose(
            rotation=rotation_about_axis(rng.normal(size=3), rng.uniform(0.0, np.pi)),
            translation=rng.uniform(-0.05, 0.05, 3) + [0.0, 0.0, 0.36],
        )
        ss = np.random.SeedSequence(seed)
        surface = prior.sample_ground_truth(pose, _stream(ss))
        expected = reference_ground_truth_surface(prior, pose, _stream(ss))
        assert surface == expected


# ---------------------------------------------------------------- chamfer oracle


def reference_chamfer_loss_brute(p, q) -> float:
    """The retired oracle: a (chunk, |other|, 3) difference array, squared
    and summed over its last axis."""
    total = 0.0
    chunk = 256
    for arr, other in ((p, q), (q, p)):
        mins = np.empty(len(arr))
        for start in range(0, len(arr), chunk):
            diff = arr[start:start + chunk, None, :] - other[None, :, :]
            mins[start:start + chunk] = np.min(np.sum(diff * diff, axis=2), axis=1)
        total += float(np.sum(mins))
    return total


def _oracle_pairs():
    rng = np.random.default_rng(123)  # criterion 3's first 20 pairs, drawn as it draws them
    for _ in range(20):
        n, m = rng.integers(10, 2001, size=2)
        yield rng.normal(scale=0.1, size=(n, 3)), rng.normal(scale=0.1, size=(m, 3))
    # the hand cases of test_chamfer.py
    yield np.array([[0.0, 0.0, 0.0]]), np.array([[3.0, 4.0, 0.0]])
    yield np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]])
    pts = np.random.default_rng(0).normal(size=(40, 3))
    yield pts, pts
    # sizes on both sides of the 256-row chunk
    rng = np.random.default_rng(7)
    sizes = (1, 255, 256, 257, 513)
    for n in sizes:
        for m in sizes:
            yield rng.normal(scale=0.1, size=(n, 3)), rng.normal(scale=0.1, size=(m, 3))
    # duplicated points, within a cloud and shared between the two
    base = rng.normal(scale=0.1, size=(300, 3))
    yield np.repeat(base[:130], 2, axis=0), base[rng.integers(0, 300, 400)]
    yield np.tile(base[:3], (100, 1)), np.concatenate([base[:3], base[::-1]])


def test_lean_chamfer_oracle_equals_the_retired_loop():
    for i, (p, q) in enumerate(_oracle_pairs()):
        assert chamfer_loss_brute(p, q) == reference_chamfer_loss_brute(p, q), i
        assert chamfer_loss_brute(PointCloud(xyz=p), PointCloud(xyz=q)) == chamfer_loss_brute(p, q)


# ---------------------------------------------------------------- runners


def test_runners_match_per_scene_reference(prior):
    """Every ablation variant and run_benchmark against a hand loop that
    generates, renders and runs each scene of SeedSequence(seed).spawn(n)
    on its own."""
    template, params = CLUTTERED, RenderParams(2.0, 0.05)
    cfg = PipelineConfig(inflation=0.018)
    variants = ablation_variants(cfg)
    n, seed = 4, 20260816
    expected = {name: [] for name in variants}
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
        gen_ss, render_ss, truth_ss = child.spawn(3)
        scene = generate_scene(template, prior, np.random.Generator(np.random.Philox(gen_ss)))
        artifacts = render_scene_artifacts(scene, prior, params, render_ss, truth_ss)
        for name, variant in variants.items():
            expected[name].append(run_pipeline(artifacts, variant, prior, scene_id=i))
    assert any(t.attempted for t in expected["full"])

    assert run_ablation(template, n, cfg, seed, params, prior) == expected
    for name, variant in variants.items():
        assert run_benchmark(template, n, variant, seed, params, prior) == expected[name]


def reference_completion_benchmark(template, n_berries, cfg, seed, render_params,
                                   min_visibility, prior):
    """The completion loop that truncated inside a scene: it kept only the
    eligible berries still needed before completing them."""
    cds = []
    for i in range(20 * n_berries):
        if len(cds) >= n_berries:
            break
        scene, render_ss, truth_ss = _generated(template, seed, i, prior)
        _, clean, masks, visibility = _composite(scene, prior)
        eligible = [
            m for m in masks if visibility.get(m.instance_id, 0.0) >= min_visibility
        ][: n_berries - len(cds)]
        if not eligible:
            continue
        depth = _corrupt(clean, render_params, render_ss)
        truth = sample_ground_truth(scene, prior, truth_ss)
        for mask, cloud in extract_partials(depth, scene.intrinsics, eligible, cfg):
            done = _completed(cloud, mask.instance_id, truth, cfg, prior)
            cds.append(done.cd_mm if isinstance(done, Completed) else float("inf"))
    return cds


def test_completion_benchmark_matches_the_truncating_loop(monkeypatch, prior):
    """Criterion 1's template, which holds one berry per scene, and the
    cluttered template with a count that ends inside a scene. Sensor noise
    is drawn only for the scenes that hold an eligible berry."""
    params, cfg = RenderParams(2.0, 0.05), PipelineConfig()
    corrupted = []

    def counted(*args):
        corrupted.append(args)
        return _corrupt(*args)

    monkeypatch.setattr(pipeline, "_corrupt", counted)
    expected = reference_completion_benchmark(SINGLE_BERRY, 25, cfg, 7, params, 0.4, prior)
    assert run_completion_benchmark(SINGLE_BERRY, 25, cfg, 7, params, 0.4, prior) == expected
    assert len(corrupted) == 25

    # scenes 0 and 1 of seed 7 hold 2 and 3 eligible berries
    eligible = []
    for i in range(2):
        scene, _, _ = _generated(CLUTTERED, 7, i, prior)
        _, _, masks, visibility = _composite(scene, prior)
        eligible.append(sum(visibility.get(m.instance_id, 0.0) >= 0.4 for m in masks))
    assert eligible[0] < 4 < sum(eligible)
    expected = reference_completion_benchmark(CLUTTERED, 4, cfg, 7, params, 0.4, prior)
    assert run_completion_benchmark(CLUTTERED, 4, cfg, 7, params, 0.4, prior) == expected
