"""Target selection, grasp estimation, A* trajectory planning and a
ground-truth execution check.

The end-effector is a point; the occupancy grid has already absorbed the
gripper radius through obstacle inflation. Paths are 26-connected shortest
paths over free cells with Euclidean edge costs, found by A* with a
deterministic tie-break so planning is reproducible bit for bit.

A* first searches the octile corridor: the cells u with oct(start, u) +
oct(u, goal) <= oct(start, goal), where oct is the 3D octile distance, a
lower bound on the 26-connected cost. That run covers only the start-goal
box and takes only the monotone moves, which never step against the
start-goal offset. Blocking cells, or removing moves, that lie on no
minimum-cost path leaves the search's path and cost unchanged, and every
path no costlier than oct(start, goal) stays in the corridor and moves
monotonically, so such a corridor path is the whole-grid answer; otherwise
the same search runs on the whole grid with all 26 moves. `astar_grid`
states the lemma.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, NoRipeTargetError, ParameterError
from .occupancy import OccupancyGrid
from .render import GroundTruth
from .types import ArrayRecord, PointCloud, Ripeness


# The largest |coordinate| of an end-effector position, in meters: far
# beyond any scene, and small enough that no norm of the grasp geometry
# can overflow.
MAX_P_EE_M = 1e3


def end_effector_position(p_ee) -> np.ndarray:
    """p_ee as a float64 3-vector; ParameterError unless every coordinate
    is finite and at most MAX_P_EE_M in magnitude."""
    p = np.asarray(p_ee, dtype=np.float64)
    if p.shape != (3,):
        raise ParameterError("p_ee must be a 3-vector")
    if not (np.abs(p) <= MAX_P_EE_M).all():
        raise ParameterError(
            f"p_ee coordinates must be finite and within {MAX_P_EE_M:g} m, got {p.tolist()}"
        )
    return p


@dataclass(frozen=True, eq=False)
class RobotState(ArrayRecord):
    p_ee: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.05]))
    gripper_radius: float = 0.015

    def __post_init__(self):
        object.__setattr__(self, "p_ee", end_effector_position(self.p_ee))
        if not self.gripper_radius > 0:
            raise ParameterError("gripper radius must be positive")


@dataclass(frozen=True, eq=False)
class Candidate(ArrayRecord):
    """One detected berry as the planner sees it: a cloud with identity."""

    instance_id: int
    ripeness: Ripeness
    cloud: PointCloud

    @property
    def centroid(self) -> np.ndarray:
        return self.cloud.centroid()


@dataclass(frozen=True, eq=False)
class GraspPose(ArrayRecord):
    grasp_point: np.ndarray
    approach_dir: np.ndarray
    pregrasp_offset: float

    def __post_init__(self):
        object.__setattr__(self, "grasp_point", np.asarray(self.grasp_point, dtype=np.float64))
        object.__setattr__(self, "approach_dir", np.asarray(self.approach_dir, dtype=np.float64))
        if abs(np.linalg.norm(self.approach_dir) - 1.0) > 1e-9:
            raise ParameterError("approach direction must be a unit vector")
        if not self.pregrasp_offset > 0:
            raise ParameterError("pregrasp offset must be positive")

    @property
    def pregrasp_point(self) -> np.ndarray:
        return self.grasp_point - self.pregrasp_offset * self.approach_dir


@dataclass(frozen=True, eq=False)
class Trajectory(ArrayRecord):
    waypoints: np.ndarray  # (N, 3); N = 0 when no path was found

    def __post_init__(self):
        object.__setattr__(
            self, "waypoints", np.asarray(self.waypoints, dtype=np.float64).reshape(-1, 3)
        )

    @property
    def feasible(self) -> bool:
        return len(self.waypoints) > 0


def select_target(candidates, p_ee: np.ndarray) -> int:
    """Nearest ripe candidate by centroid distance to the end-effector.

    Ties break toward the lowest instance id. Raises NoRipeTargetError when
    nothing ripe is in view.
    """
    p_ee = np.asarray(p_ee, dtype=np.float64)
    ranked = sorted(
        (
            (float(np.linalg.norm(c.centroid - p_ee)), c.instance_id)
            for c in candidates
            if c.ripeness is Ripeness.RIPE
        ),
    )
    if not ranked:
        raise NoRipeTargetError("no ripe instance among the candidates")
    return ranked[0][1]


def estimate_grasp(target_cloud: PointCloud, state: RobotState, berry_width_m: float) -> GraspPose:
    """Grasp at the completed centroid, approaching horizontally.

    The approach direction is the end-effector-to-target vector flattened to
    the horizontal plane (zero vertical component), matching a front-on
    approach to a hanging fruit. The pregrasp point backs off by the berry
    width plus a centimeter.
    """
    grasp = target_cloud.centroid()
    direction = grasp - state.p_ee
    direction[1] = 0.0
    norm = np.linalg.norm(direction)
    if norm < 1e-9:
        raise GeometryError("target is directly at or above the end-effector")
    return GraspPose(
        grasp_point=grasp,
        approach_dir=direction / norm,
        pregrasp_offset=berry_width_m + 0.01,
    )


_NEIGHBOR_STEPS: list[tuple[int, int, int, float]] = [
    (di, dj, dk, math.sqrt(di * di + dj * dj + dk * dk))
    for di in (-1, 0, 1)
    for dj in (-1, 0, 1)
    for dk in (-1, 0, 1)
    if (di, dj, dk) != (0, 0, 0)
]


_SQRT2, _SQRT3 = math.sqrt(2.0), math.sqrt(3.0)


def _octile(dx, dy, dz):
    """3D octile distance in cells, (a - b) + sqrt2 (b - c) + sqrt3 c over the
    sorted a >= b >= c of the absolute offsets (integer arrays or ints)."""
    a = np.maximum(np.maximum(dx, dy), dz)
    c = np.minimum(np.minimum(dx, dy), dz)
    b = dx + dy + dz - a - c
    return (a - b) + _SQRT2 * (b - c) + _SQRT3 * c


def astar_grid(
    grid: OccupancyGrid,
    start: tuple[int, int, int],
    goal: tuple[int, int, int],
) -> tuple[list[tuple[int, int, int]], float] | None:
    """Shortest 26-connected path over free cells, or None when disconnected.

    Costs are Euclidean center-to-center distances in cell units scaled by the
    grid resolution. Ties on f-value break toward the lower linearized cell
    index, making expansion order and the returned path deterministic.

    The search first runs inside the octile corridor, over the moves a
    certified path can take, and falls back to the whole grid and all 26
    moves only when the corridor cannot certify its answer. Both runs are the
    same loop, `_search`, over different blocked maps and move lists, and the
    corridor never changes the answer, by this lemma:

    Let S be the cells on at least one minimum-cost start-goal path. Blocking
    any set of cells disjoint from S, and removing any set of moves (directed
    edges) that lie on no minimum-cost path, leaves the returned path and
    float cost unchanged. (1) Every optimal predecessor edge of a cell in S
    lies on a minimum-cost path, so it is kept and its tail is in S. (2) Path
    costs are (a + b sqrt2 + c sqrt3) res for integer move counts, so a cell
    or edge off every minimum-cost path offers a cell of S a cost worse by
    far more than the 1e-15 improvement rule and never makes its parent.
    (3) Cells of S pop in the same relative (f, flat) order whatever else the
    heap holds, and both searches stop when the goal pops.

    Corridor rule: octile distance bounds the 26-connected cost from below
    even around obstacles, so every cell u of S has oct(start, u) +
    oct(u, goal) <= C*, the optimal cost. The first run also blocks the cells
    where that sum exceeds B = oct(start, goal), and uses only the monotone
    moves: those whose every component is 0 or sign(goal - start) on its
    axis, at most 7 of the 26. Every path that costs less than B +
    2 (sqrt3 - sqrt2) is monotone: a step against the net offset on some
    axis is matched by a step along it there, and zeroing that axis in both
    steps keeps the net offset while shortening each step by at least
    sqrt3 - sqrt2, which would leave a move sequence cheaper than B. So if
    the first run finds a path of cost at most B, then C* <= B, S lies inside
    the corridor, every minimum-cost path uses only monotone moves, and by
    the lemma the path is the whole-grid answer. Otherwise (no path, or a
    costlier one) the loop runs again on the whole grid with all 26 moves.

    Each run addresses a copy of its cells with a one-cell border that reads
    blocked, which removes per-neighbor bounds checks from the inner loop:
    the start-goal box for the corridor, the whole grid for the fallback.
    Row-major flat indices in either copy sort cells as the grid's linear
    indices do, so the flat index itself is the tie key.
    """
    for name, cell in (("start", start), ("goal", goal)):
        if not all(0 <= c < d for c, d in zip(cell, grid.dims)):
            raise ParameterError(f"{name} cell {cell} outside grid")
    if grid.occupied[start] or grid.occupied[goal]:
        return None

    res = grid.resolution
    # Margins, in cells. Take n = nx + ny + nz and eps = 2**-53. The octile
    # sums are at most 2n and carry a rounding error below 20 n eps. A path
    # the certificate accepts costs about B <= 2n cells in at most 2n steps,
    # so its float cost is off by under (2n + 4) 2n eps <= 8 n^2 eps. With
    # tol = 1e-14 n^2 > 90 n^2 eps, the certificate accepts cost <= B + tol,
    # and then every cell of S has a true octile sum <= C* <= B + tol plus
    # those errors, which stays below the corridor's cut at B + 2 tol.
    n = sum(grid.dims)
    tol = 1e-14 * n * n
    bound = float(_octile(*(abs(s - g) for s, g in zip(start, goal))))
    # Every octile sum is at least B, and octile distance grows by at least
    # sqrt3 - sqrt2 with each unit of any |offset|, so a cell outside the box
    # spanned by start and goal sums to more than B + 2 (sqrt3 - sqrt2) >
    # B + 2 tol: the corridor lies within the box.
    lo = tuple(min(s, g) for s, g in zip(start, goal))
    box = tuple(slice(a, max(s, g) + 1) for a, s, g in zip(lo, start, goal))
    axes = np.ogrid[box]
    spread = sum(_octile(*(abs(i - c) for i, c in zip(axes, end))) for end in (start, goal))
    corridor = np.ones(tuple(b.stop - b.start + 2 for b in box), dtype=bool)
    corridor[1:-1, 1:-1, 1:-1] = grid.occupied[box] | (spread > bound + 2 * tol)
    sign = [int(g > s) - int(g < s) for s, g in zip(start, goal)]
    monotone = [m for m in _NEIGHBOR_STEPS if all(d in (0, e) for d, e in zip(m, sign))]

    found = _run(corridor, lo, monotone, start, goal, res)
    if found is None or found[1] > (bound + tol) * res:
        padded = np.ones(tuple(d + 2 for d in grid.dims), dtype=bool)
        padded[1:-1, 1:-1, 1:-1] = grid.occupied
        found = _run(padded, (0, 0, 0), _NEIGHBOR_STEPS, start, goal, res)
    return found


def _run(blocked_cells: np.ndarray, lo, steps, start, goal, res: float):
    """`_search` over `blocked_cells`, a bordered copy whose index (1, 1, 1)
    holds grid cell lo, with the moves `steps`: the path in grid cells and
    its cost, or None."""
    _, py, pz = blocked_cells.shape

    def flat(cell) -> int:
        return ((cell[0] - lo[0] + 1) * py + cell[1] - lo[1] + 1) * pz + cell[2] - lo[2] + 1

    moves = [((di * py + dj) * pz + dk, step * res) for di, dj, dk, step in steps]
    at = tuple(g - a + 1 for g, a in zip(goal, lo))
    found = _search(
        blocked_cells, _heuristic(blocked_cells.shape, at, res), moves, flat(start), flat(goal)
    )
    if found is None:
        return None
    path = []
    for f in found[0]:
        x, rem = divmod(f, py * pz)
        y, z = divmod(rem, pz)
        path.append((x - 1 + lo[0], y - 1 + lo[1], z - 1 + lo[2]))
    return path, found[1]


def _heuristic(shape, goal, res: float):
    """Euclidean distance to the goal, times res, for each flat cell of an
    array of this shape; goal is the goal's index in that array."""
    # squared cell distances are small integers, exact in float64, and sqrt
    # is correctly rounded, so each entry equals a per-cell math.sqrt
    gx, gy, gz = (np.arange(d) - float(g) for d, g in zip(shape, goal))
    dist = np.sqrt(gx[:, None, None] ** 2 + gy[None, :, None] ** 2 + gz[None, None, :] ** 2)
    return array("d", (dist * res).tobytes())


def _search(blocked_cells: np.ndarray, heuristic, moves, start_f: int, goal_f: int):
    """The A* loop over flat cells of a bordered copy: the flat path and its
    cost, or None. Cells of `blocked_cells` that read True are never entered."""
    # one byte per cell: nonzero once a cell is occupied or closed
    blocked = bytearray(blocked_cells.ravel().tobytes())
    g_cost = array("d", [math.inf]) * len(blocked)
    g_cost[start_f] = 0.0
    parent: dict[int, int] = {}
    frontier: list[tuple[float, int]] = [(heuristic[start_f], start_f)]

    while frontier:
        _, cell = heapq.heappop(frontier)
        if blocked[cell]:
            continue
        if cell == goal_f:
            flats = [cell]
            while flats[-1] != start_f:
                flats.append(parent[flats[-1]])
            flats.reverse()
            return flats, g_cost[goal_f]
        blocked[cell] = 1
        base = g_cost[cell]
        for off, step in moves:
            nxt = cell + off
            if blocked[nxt]:
                continue
            cand = base + step
            if cand < g_cost[nxt] - 1e-15:
                g_cost[nxt] = cand
                parent[nxt] = cell
                heapq.heappush(frontier, (cand + heuristic[nxt], nxt))
    return None


def plan_trajectory(grasp: GraspPose, grid: OccupancyGrid, state: RobotState) -> Trajectory:
    """Plan p_ee -> pregrasp -> grasp over the grid.

    Waypoints are free-cell centers; the first and last are snapped to the
    exact end-effector and grasp positions. Infeasibility (an occupied
    endpoint cell or a disconnected grid) yields a trajectory with no
    waypoints rather than an exception; endpoints outside the grid raise
    ParameterError.
    """
    start, mid, goal = map(
        tuple, grid.cells_of([state.p_ee, grasp.pregrasp_point, grasp.grasp_point]).tolist()
    )

    leg1 = astar_grid(grid, start, mid)
    if leg1 is None:
        return Trajectory(waypoints=np.zeros((0, 3)))
    leg2 = astar_grid(grid, mid, goal)
    if leg2 is None:
        return Trajectory(waypoints=np.zeros((0, 3)))

    cells = leg1[0] + leg2[0][1:]
    waypoints = grid.centers_of(cells)
    waypoints[0] = state.p_ee
    waypoints[-1] = grasp.grasp_point
    return Trajectory(waypoints=waypoints)


@dataclass(frozen=True)
class ExecutionOutcome:
    success: bool
    hits: frozenset[int]


def _segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-18:
        return np.linalg.norm(points - a, axis=1)
    t = np.clip((points - a) @ ab / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.linalg.norm(points - proj, axis=1)


def _point_segments_distances(point: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from one point to each segment a[i]-b[i]."""
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.zeros(len(a))
    np.divide(np.einsum("ij,ij->i", point - a, ab), denom, out=t, where=denom >= 1e-18)
    t = np.clip(t, 0.0, 1.0)
    return np.linalg.norm(point - (a + t[:, None] * ab), axis=1)


def simulate_execution(
    trajectory: Trajectory,
    truth: GroundTruth,
    target_id: int,
    state: RobotState,
) -> ExecutionOutcome:
    """Score a trajectory against ground truth.

    Success means the final waypoint lands within 1 cm of the target's true
    center. Hits are the non-target berries whose true surface comes within
    the gripper radius of any swept trajectory segment.

    A broad phase keeps the exact surface test to segments that pass within
    reach of a berry's center: its farthest surface point plus the gripper
    radius. By the triangle inequality no other segment can come within the
    gripper radius of the surface; a 1e-9 m slack absorbs rounding.
    """
    if not trajectory.feasible:
        raise ParameterError("execution requires a feasible trajectory")

    true_center = truth.instance(target_id).pose.translation
    success = bool(
        np.linalg.norm(trajectory.waypoints[-1] - true_center) <= 0.01
    )

    hits = set()
    starts, ends = trajectory.waypoints[:-1], trajectory.waypoints[1:]
    if not len(starts):
        starts = ends = trajectory.waypoints[:1]
    for inst in truth.instances:
        if inst.instance_id == target_id:
            continue
        reach = inst.radius + state.gripper_radius
        near = _point_segments_distances(inst.pose.translation, starts, ends) <= reach + 1e-9
        for a, b in zip(starts[near], ends[near]):
            if _segment_distances(inst.surface.xyz, a, b).min() <= state.gripper_radius:
                hits.add(inst.instance_id)
                break
    return ExecutionOutcome(success=success, hits=frozenset(hits))
