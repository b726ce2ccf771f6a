"""Occupancy-grid correctness against a dense brute-force rasterizer."""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from berrypick import (
    ObstacleSet,
    OccupancyGrid,
    ParameterError,
    PointCloud,
    build_obstacles,
    build_occupancy,
)


def _brute_occupancy(points, lo, dims, resolution, inflation):
    """Reference grid: floor-binning plus a dense all-pairs distance field."""
    occ = np.zeros(dims, dtype=bool)
    cells = np.floor((points - lo) / resolution).astype(int)
    occ[cells[:, 0], cells[:, 1], cells[:, 2]] = True
    if inflation > 0:
        idx = np.stack(
            np.meshgrid(*(np.arange(d) for d in dims), indexing="ij"), axis=-1
        ).reshape(-1, 3)
        centers = lo + (idx + 0.5) * resolution
        within = cdist(centers, points).min(axis=1) <= inflation
        occ[idx[within, 0], idx[within, 1], idx[within, 2]] = True
    return occ


def _grid_from(points, inflation, resolution=0.004, margin=0.02):
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0) - margin
    hi = pts.max(axis=0) + margin
    obstacles = ObstacleSet(points=PointCloud(xyz=pts))
    return build_occupancy(
        obstacles, resolution=resolution, inflation=inflation, bounds=(lo, hi)
    )


# ---------------------------------------------------------------- hand cases


def test_occupancy_zero_inflation_marks_only_containing_cells():
    grid = build_occupancy(
        ObstacleSet(points=PointCloud(xyz=np.array([[0.011, 0.012, 0.013]]))),
        resolution=0.01,
        inflation=0.0,
        bounds=(np.zeros(3), np.full(3, 0.04)),
    )
    assert grid.dims == (4, 4, 4)
    assert grid.occupied_count == 1
    assert grid.occupied[1, 1, 1]


def test_occupancy_inflation_reaches_corner_neighbors():
    # a point on the shared corner of eight cells, centers sqrt(3)*5mm away
    grid = build_occupancy(
        ObstacleSet(points=PointCloud(xyz=np.array([[0.01, 0.01, 0.01]]))),
        resolution=0.01,
        inflation=0.009,
        bounds=(np.zeros(3), np.full(3, 0.04)),
    )
    assert grid.occupied_count == 8
    assert grid.occupied[:2, :2, :2].all()


# ---------------------------------------------------------------- oracle


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_occupancy_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 0.05, size=(30, 3))
    inflation = float(rng.uniform(0.0, 0.01))
    grid = _grid_from(points, inflation)
    brute = _brute_occupancy(points, grid.origin, grid.dims, grid.resolution, inflation)
    assert np.array_equal(grid.occupied, brute)


def test_occupancy_monotone_in_obstacle_points():
    rng = np.random.default_rng(4)
    points = rng.uniform(0.0, 0.05, size=(40, 3))
    lo, hi = points.min(axis=0) - 0.02, points.max(axis=0) + 0.02
    full = build_occupancy(
        ObstacleSet(points=PointCloud(xyz=points)), inflation=0.008, bounds=(lo, hi)
    )
    part = build_occupancy(
        ObstacleSet(points=PointCloud(xyz=points[:15])), inflation=0.008, bounds=(lo, hi)
    )
    assert not (part.occupied & ~full.occupied).any()


# ---------------------------------------------------------------- sizing


def test_include_points_widen_without_occupying():
    obstacle = np.array([[0.0, 0.0, 0.35]])
    far = np.array([0.0, 0.0, 0.25])
    grid = build_occupancy(
        ObstacleSet(points=PointCloud(xyz=obstacle)), include_points=[far]
    )
    (cell,) = grid.cells_of(far)
    assert not grid.occupied[tuple(cell)]
    tight = build_occupancy(ObstacleSet(points=PointCloud(xyz=obstacle)))
    assert grid.occupied_count == tight.occupied_count
    with pytest.raises(ParameterError):
        tight.cells_of(far)


def test_explicit_bounds_reject_outside_points():
    obstacles = ObstacleSet(points=PointCloud(xyz=np.array([[0.1, 0.0, 0.0]])))
    with pytest.raises(ParameterError):
        build_occupancy(obstacles, bounds=(np.zeros(3), np.full(3, 0.05)))


def test_empty_obstacles_need_include_points():
    empty = ObstacleSet(points=PointCloud.empty())
    with pytest.raises(ParameterError):
        build_occupancy(empty)
    grid = build_occupancy(empty, include_points=[[0.0, 0.0, 0.3]])
    assert grid.occupied_count == 0


def test_occupancy_parameter_validation():
    obstacles = ObstacleSet(points=PointCloud(xyz=np.array([[0.0, 0.0, 0.3]])))
    with pytest.raises(ParameterError):
        build_occupancy(obstacles, resolution=0.0)
    with pytest.raises(ParameterError):
        build_occupancy(obstacles, inflation=-0.001)


def test_a_grid_past_the_cell_limit_is_refused_before_allocation():
    corners = np.array([[0.0, 0.0, 0.3], [0.05, 0.05, 0.35]])
    obstacles = ObstacleSet(points=PointCloud(xyz=corners))
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=r"needs 5.12e\+14 cells, more than 1e\+08"):
            build_occupancy(obstacles, resolution=1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------- grid object


def test_grid_cell_center_round_trip():
    grid = build_occupancy(
        ObstacleSet(points=PointCloud(xyz=np.array([[0.02, 0.02, 0.35]]))),
        resolution=0.005,
    )
    point = np.array([0.021, 0.019, 0.352])
    cell = grid.cells_of(point)
    center = grid.centers_of(cell)
    assert np.abs(center - point).max() <= grid.resolution / 2 + 1e-12
    assert (grid.cells_of(center) == cell).all()


def test_whole_array_cells_and_centers_equal_the_per_point_formulas():
    rng = np.random.default_rng(7)
    grid = OccupancyGrid(
        origin=np.array([-0.1234, 0.0071, 0.2999]), resolution=0.005,
        occupied=np.zeros((30, 30, 75), dtype=bool),
    )
    points = grid.origin + rng.uniform(0.0, 1.0, (500, 3)) * np.multiply(grid.dims, 0.005)
    cells = grid.cells_of(points)
    for point, cell in zip(points, cells):
        one = np.floor((point - grid.origin) / grid.resolution).astype(int)
        assert tuple(one) == tuple(cell) == tuple(grid.cells_of(point)[0])
    centers = grid.centers_of(cells)
    for cell, center in zip(cells, centers):
        assert (grid.origin + (cell + 0.5) * grid.resolution == center).all()
    assert grid.cells_of(np.zeros((0, 3))).shape == (0, 3)
    with pytest.raises(ParameterError, match="outside grid bounds"):
        grid.cells_of(np.vstack([points[:3], grid.origin - 1e-9, points[3:]]))


def test_grid_validation():
    for resolution in (0.0, float("nan")):
        with pytest.raises(ParameterError):
            OccupancyGrid(
                origin=np.zeros(3), resolution=resolution,
                occupied=np.zeros((2, 2, 2), dtype=bool),
            )
    grid = OccupancyGrid(origin=np.zeros(3), resolution=0.01, occupied=np.zeros((2, 2, 3), bool))
    assert grid.dims == (2, 2, 3)


# ---------------------------------------------------------------- obstacle set


def test_build_obstacles_unions_everything_but_the_target():
    candidates = [
        SimpleNamespace(
            instance_id=i,
            cloud=PointCloud(xyz=np.full((4, 3), float(i))),
        )
        for i in range(3)
    ]
    obstacles = build_obstacles(candidates, target_id=1)
    assert len(obstacles) == 8
    assert set(np.unique(obstacles.points.xyz)) == {0.0, 2.0}


def test_build_obstacles_with_only_the_target_is_empty():
    only = [SimpleNamespace(instance_id=0, cloud=PointCloud(xyz=np.zeros((4, 3))))]
    obstacles = build_obstacles(only, target_id=0)
    assert len(obstacles) == 0
