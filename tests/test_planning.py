"""Planner tests: A* against a sparse-graph Dijkstra oracle, plus target
selection, grasp geometry and the ground-truth execution check."""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import MOVES, dijkstra_cost
from hypothesis import given, settings
from hypothesis import strategies as st

from berrypick import (
    Candidate,
    GeometryError,
    GraspPose,
    GroundTruth,
    GroundTruthInstance,
    NoRipeTargetError,
    OccupancyGrid,
    ParameterError,
    PointCloud,
    Ripeness,
    RobotState,
    Trajectory,
    astar_grid,
    estimate_grasp,
    plan_trajectory,
    select_target,
    simulate_execution,
)
from berrypick.types import Pose


def _grid(occupied: np.ndarray, resolution: float = 0.005) -> OccupancyGrid:
    return OccupancyGrid(
        origin=np.zeros(3), resolution=resolution,
        occupied=occupied,
    )


def _check_path(grid: OccupancyGrid, path, cost, start, goal):
    assert path[0] == start and path[-1] == goal
    total = 0.0
    for a, b in zip(path, path[1:]):
        step = tuple(bi - ai for ai, bi in zip(a, b))
        assert step in MOVES
        assert not grid.occupied[b]
        total += math.sqrt(sum(s * s for s in step)) * grid.resolution
    assert not grid.occupied[path[0]]
    assert cost == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------- A*


def test_astar_straight_and_diagonal_costs():
    grid = _grid(np.zeros((8, 8, 8), dtype=bool), resolution=0.01)
    path, cost = astar_grid(grid, (0, 0, 0), (7, 0, 0))
    assert cost == pytest.approx(7 * 0.01)
    assert len(path) == 8
    path, cost = astar_grid(grid, (0, 0, 0), (7, 7, 7))
    assert cost == pytest.approx(7 * math.sqrt(3) * 0.01)


def test_astar_routes_through_the_only_hole():
    occupied = np.zeros((9, 9, 9), dtype=bool)
    occupied[4, :, :] = True
    occupied[4, 4, 4] = False
    grid = _grid(occupied)
    start, goal = (0, 4, 4), (8, 4, 4)
    path, cost = astar_grid(grid, start, goal)
    assert (4, 4, 4) in path
    _check_path(grid, path, cost, start, goal)
    assert cost == pytest.approx(dijkstra_cost(occupied, start, goal, 0.005), rel=1e-12)


def test_astar_blocked_wall_is_unreachable():
    occupied = np.zeros((6, 6, 6), dtype=bool)
    occupied[3, :, :] = True
    grid = _grid(occupied)
    assert astar_grid(grid, (0, 0, 0), (5, 5, 5)) is None
    assert math.isinf(dijkstra_cost(occupied, (0, 0, 0), (5, 5, 5), 0.005))


def test_astar_occupied_endpoints_yield_none():
    occupied = np.zeros((4, 4, 4), dtype=bool)
    occupied[0, 0, 0] = True
    grid = _grid(occupied)
    assert astar_grid(grid, (0, 0, 0), (3, 3, 3)) is None
    assert astar_grid(grid, (3, 3, 3), (0, 0, 0)) is None


def test_astar_rejects_cells_outside_the_grid():
    grid = _grid(np.zeros((4, 4, 4), dtype=bool))
    with pytest.raises(ParameterError):
        astar_grid(grid, (0, 0, 0), (4, 0, 0))
    with pytest.raises(ParameterError):
        astar_grid(grid, (-1, 0, 0), (1, 1, 1))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_astar_cost_matches_dijkstra(seed):
    rng = np.random.default_rng(seed)
    occupied = rng.random((12, 12, 12)) < 0.2
    free = np.argwhere(~occupied)
    start, goal = (tuple(free[i]) for i in rng.choice(len(free), size=2, replace=False))
    grid = _grid(occupied)
    outcome = astar_grid(grid, start, goal)
    reference = dijkstra_cost(occupied, start, goal, grid.resolution)
    if outcome is None:
        assert math.isinf(reference)
    else:
        path, cost = outcome
        assert math.isclose(cost, reference, rel_tol=1e-9, abs_tol=1e-12)
        _check_path(grid, path, cost, start, goal)


def test_astar_is_deterministic():
    rng = np.random.default_rng(77)
    occupied = rng.random((10, 10, 10)) < 0.25
    occupied[0, 0, 0] = occupied[9, 9, 9] = False
    grid = _grid(occupied)
    first = astar_grid(grid, (0, 0, 0), (9, 9, 9))
    second = astar_grid(grid, (0, 0, 0), (9, 9, 9))
    assert first == second


# ---------------------------------------------------------------- selection


def _candidate(instance_id, center, ripeness=Ripeness.RIPE):
    xyz = np.asarray(center, dtype=float) + np.zeros((4, 3))
    return Candidate(
        instance_id=instance_id, ripeness=ripeness,
        cloud=PointCloud(xyz=xyz),
    )


def test_select_target_prefers_the_nearest_ripe():
    candidates = [
        _candidate(0, (0.0, 0.0, 0.40)),
        _candidate(1, (0.0, 0.0, 0.30)),
        _candidate(2, (0.0, 0.0, 0.20), Ripeness.UNRIPE),
    ]
    assert select_target(candidates, np.array([0.0, 0.0, 0.05])) == 1


def test_select_target_breaks_ties_toward_the_lower_id():
    candidates = [
        _candidate(5, (0.03, 0.0, 0.30)),
        _candidate(2, (-0.03, 0.0, 0.30)),
    ]
    assert select_target(candidates, np.array([0.0, 0.0, 0.05])) == 2


def test_select_target_without_ripe_candidates_raises():
    unripe = [_candidate(0, (0, 0, 0.3), Ripeness.UNRIPE)]
    with pytest.raises(NoRipeTargetError):
        select_target(unripe, np.array([0.0, 0.0, 0.05]))
    with pytest.raises(NoRipeTargetError):
        select_target([], np.array([0.0, 0.0, 0.05]))


# ---------------------------------------------------------------- grasping


def test_estimate_grasp_horizontal_approach():
    cloud = PointCloud(xyz=np.array([0.0, 0.02, 0.35]) + np.zeros((8, 3)))
    grasp = estimate_grasp(cloud, RobotState(), berry_width_m=0.024)
    assert grasp.grasp_point == pytest.approx(np.array([0.0, 0.02, 0.35]))
    assert grasp.approach_dir == pytest.approx(np.array([0.0, 0.0, 1.0]))
    assert grasp.approach_dir[1] == 0.0
    assert grasp.pregrasp_offset == pytest.approx(0.034)
    assert grasp.pregrasp_point == pytest.approx(np.array([0.0, 0.02, 0.35 - 0.034]))


def test_estimate_grasp_degenerate_geometry():
    overhead = PointCloud(xyz=np.array([0.0, 0.1, 0.05]) + np.zeros((4, 3)))
    with pytest.raises(GeometryError):
        estimate_grasp(overhead, RobotState(), berry_width_m=0.024)


def test_grasp_pose_validation():
    with pytest.raises(ParameterError):
        GraspPose(np.zeros(3), np.array([0.0, 0.0, 2.0]), 0.03)
    with pytest.raises(ParameterError):
        GraspPose(np.zeros(3), np.array([0.0, 0.0, 1.0]), 0.0)


def test_robot_state_validation():
    with pytest.raises(ParameterError):
        RobotState(gripper_radius=0.0)
    with pytest.raises(ParameterError):
        RobotState(p_ee=np.zeros(2))


# ---------------------------------------------------------------- trajectories


def _path_length_m(trajectory: Trajectory) -> float:
    return float(np.linalg.norm(np.diff(trajectory.waypoints, axis=0), axis=1).sum())


def test_plan_trajectory_snaps_endpoints_and_visits_pregrasp():
    grid = OccupancyGrid(
        origin=np.array([-0.05, -0.05, 0.0]), resolution=0.01,
        occupied=np.zeros((10, 10, 45), dtype=bool),
    )
    state = RobotState(p_ee=np.array([0.0, 0.0, 0.05]))
    grasp = GraspPose(
        grasp_point=np.array([0.0, 0.0, 0.36]),
        approach_dir=np.array([0.0, 0.0, 1.0]),
        pregrasp_offset=0.034,
    )
    trajectory = plan_trajectory(grasp, grid, state)
    assert trajectory.feasible
    assert trajectory.waypoints[0] == pytest.approx(state.p_ee)
    assert trajectory.waypoints[-1] == pytest.approx(grasp.grasp_point)
    (mid_center,) = grid.centers_of(grid.cells_of(grasp.pregrasp_point))
    assert any(np.allclose(w, mid_center) for w in trajectory.waypoints)
    assert _path_length_m(trajectory) >= 0.31


def test_plan_trajectory_reports_infeasibility():
    occupied = np.zeros((10, 10, 45), dtype=bool)
    occupied[:, :, 30:] = True  # grasp region walled off
    grid = OccupancyGrid(
        origin=np.array([-0.05, -0.05, 0.0]), resolution=0.01,
        occupied=occupied,
    )
    grasp = GraspPose(
        grasp_point=np.array([0.0, 0.0, 0.36]),
        approach_dir=np.array([0.0, 0.0, 1.0]),
        pregrasp_offset=0.034,
    )
    trajectory = plan_trajectory(grasp, grid, RobotState())
    assert not trajectory.feasible
    assert len(trajectory.waypoints) == 0


# ---------------------------------------------------------------- execution


def _truth_with(prior, centers, target_id=0):
    instances = []
    for i, center in enumerate(centers):
        pose = Pose(rotation=np.eye(3), translation=np.asarray(center, dtype=float))
        surface = prior.sample_ground_truth(pose, np.random.Generator(np.random.Philox(40 + i)))
        instances.append(
            GroundTruthInstance(instance_id=i, pose=pose, surface=surface)
        )
    return GroundTruth(instances=tuple(instances))


def test_simulate_execution_success_and_miss(prior):
    truth = _truth_with(prior, [(0.0, 0.0, 0.36)])
    good = Trajectory(
        waypoints=np.array([[0.0, 0.0, 0.05], [0.0, 0.0, 0.355]])
    )
    miss = Trajectory(
        waypoints=np.array([[0.0, 0.0, 0.05], [0.0, 0.0, 0.33]])
    )
    state = RobotState()
    assert simulate_execution(good, truth, 0, state).success
    assert not simulate_execution(miss, truth, 0, state).success


def test_simulate_execution_detects_swept_collisions(prior):
    truth = _truth_with(prior, [(0.0, 0.0, 0.36), (0.012, 0.0, 0.25), (0.2, 0.0, 0.30)])
    through = Trajectory(
        waypoints=np.array([[0.0, 0.0, 0.05], [0.0, 0.0, 0.36]])
    )
    outcome = simulate_execution(through, truth, 0, RobotState())
    assert 1 in outcome.hits  # brushed on the way up
    assert 2 not in outcome.hits  # far to the side
    assert 0 not in outcome.hits  # the target never counts against itself


def test_trajectory_is_feasible_when_it_has_a_waypoint(prior):
    # test_simulate_execution_requires_feasibility runs the empty one
    truth = _truth_with(prior, [(0.0, 0.0, 0.36)])
    assert not Trajectory(waypoints=np.zeros((0, 3))).feasible
    one = Trajectory(waypoints=[[0.0, 0.0, 0.36]])
    assert one.feasible
    assert simulate_execution(one, truth, 0, RobotState()).success


def test_simulate_execution_requires_feasibility(prior):
    truth = _truth_with(prior, [(0.0, 0.0, 0.36)])
    bad = Trajectory(waypoints=np.zeros((0, 3)))
    with pytest.raises(ParameterError):
        simulate_execution(bad, truth, 0, RobotState())
