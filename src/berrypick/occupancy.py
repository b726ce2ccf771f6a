"""Obstacle aggregation and occupancy-grid construction.

The planner treats the end-effector as a point, so the grid absorbs the
gripper geometry by inflating obstacles: a cell is occupied when an obstacle
point falls inside it, or when the cell's center lies within the inflation
radius of any obstacle point. A distance transform decides most cells, and a
KD-tree query decides the rest (see build_occupancy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import ParameterError
from .types import ArrayRecord, PointCloud

# About 2,000 times a cluttered scene's 5 mm grid, so a 0.5 mm grid still runs.
MAX_GRID_CELLS = 10**8


@dataclass(frozen=True, eq=False)
class ObstacleSet(ArrayRecord):
    """Union of the non-target clouds."""

    points: PointCloud


def build_obstacles(candidates, target_id: int) -> ObstacleSet:
    """Union of every candidate cloud except the target's.

    candidates: iterable of objects with .instance_id and .cloud (PointCloud).
    """
    others = [c.cloud.xyz for c in candidates if c.instance_id != target_id]
    points = PointCloud(xyz=np.concatenate(others)) if others else PointCloud.empty()
    return ObstacleSet(points=points)


@dataclass(frozen=True, eq=False)
class OccupancyGrid(ArrayRecord):
    origin: np.ndarray  # world position of the (0,0,0) cell's min corner
    resolution: float
    occupied: np.ndarray  # bool, one entry per cell; its shape is dims

    def __post_init__(self):
        if not self.resolution > 0:
            raise ParameterError("grid resolution must be positive")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.occupied.shape

    def cells_of(self, points: np.ndarray) -> np.ndarray:
        """The (N, 3) int cells holding (N, 3) points. A point outside the
        grid raises ParameterError naming the first such point."""
        points = np.asarray(points).reshape(-1, 3)
        cells = np.floor((points - self.origin) / self.resolution).astype(int)
        outside = ((cells < 0) | (cells >= self.dims)).any(axis=1)
        if outside.any():
            raise ParameterError(f"point {points[outside.argmax()]} outside grid bounds")
        return cells

    def centers_of(self, cells: np.ndarray) -> np.ndarray:
        """World centers of (N, 3) int cells, as an (N, 3) array."""
        return self.origin + (np.asarray(cells) + 0.5) * self.resolution

    @property
    def occupied_count(self) -> int:
        return int(self.occupied.sum())


def build_occupancy(
    obstacles: ObstacleSet,
    resolution: float = 0.005,
    inflation: float = 0.015,
    include_points=None,
) -> OccupancyGrid:
    """Rasterize inflated obstacles into a grid that covers both the obstacle
    extent and any extra points of interest (end-effector, grasp region).

    include_points widens the bounds without marking anything occupied.
    A grid of more than MAX_GRID_CELLS cells raises ParameterError.

    A free cell is decided by d, its distance to the nearest occupied cell's
    center, from a distance transform. Every point lies within sqrt(3)/2
    resolution of its own cell's center, so by the triangle inequality, with
    h = sqrt(3)/2 resolution plus a margin for float error:
      sure in   d + h <= inflation: some point is in range, and the cell is
                occupied without a query;
      sure out  d - h > inflation: every point is out of range, and the
                cell stays free;
      doubt     the cells between are queried against a KD-tree of the
                points, with the test a query of every cell would make.
    The margin, 1e-13 times the grid's largest |coordinate| plus inflation
    and resolution, is derived where it is set.
    """
    if not resolution > 0:
        raise ParameterError("resolution must be positive")
    if not inflation >= 0:
        raise ParameterError("inflation must be nonnegative")

    pts = obstacles.points.xyz
    extra = np.empty((0, 3)) if include_points is None else include_points
    anchor = np.concatenate([pts, np.atleast_2d(np.asarray(extra, dtype=np.float64))])
    if not len(anchor):
        raise ParameterError("cannot size a grid with no obstacles and no points")

    pad = inflation + 2 * resolution
    lo = anchor.min(axis=0) - pad
    hi = anchor.max(axis=0) + pad
    with np.errstate(over="ignore"):  # float counts: a tiny resolution gives inf, not a bad int
        counts = np.maximum(np.ceil((hi - lo) / resolution), 1).tolist()
    if (n_cells := math.prod(counts)) > MAX_GRID_CELLS:
        raise ParameterError(
            f"a {resolution:g} m grid over this extent needs {n_cells:.3g} cells, "
            f"more than {MAX_GRID_CELLS:.0e}"
        )
    dims = tuple(int(d) for d in counts)

    occupied = np.zeros(dims, dtype=bool)
    if len(pts):
        cells = np.floor((pts - lo) / resolution).astype(int)
        cells = np.clip(cells, 0, np.asarray(dims) - 1)
        occupied[cells[:, 0], cells[:, 1], cells[:, 2]] = True

        if inflation > 0:
            # A cell outside the occupied cells' box grown by reach lies
            # reach + 1 or more cells from each occupied cell on some axis,
            # so its d >= (ceil(inflation / resolution) + 2) resolution
            # exceeds inflation + h: it is sure out. The transform covers
            # only that box.
            reach = int(np.ceil(inflation / resolution)) + 1
            box = tuple(
                slice(max(a - reach, 0), min(b + reach + 1, n))
                for a, b, n in zip(cells.min(axis=0), cells.max(axis=0), dims)
            )
            crop = occupied[box]
            free = ~crop
            # In cell units the transform's feature search compares integer
            # squared distances, so it is exact; d is within 2 eps of true.
            d = ndimage.distance_transform_edt(free) * resolution
            # The margin covers float error, eps = 2**-53, with S the largest
            # |coordinate| of the grid plus inflation and resolution:
            #   floor((p - lo) / resolution) can misplace p by 4 eps S per
            #     axis, so p lies within sqrt(3)/2 resolution + 7 eps S of
            #     its cell's center;
            #   a computed center lo + (i + 0.5) resolution is off by 3 eps S
            #     per axis, 6 eps S in all;
            #   the KD distance is off by 4 eps of itself, d by 2 eps of
            #     itself (d < 4 S), and d + h, d - h and h by one rounding.
            # That is under 40 eps S; the margin 1e-13 S is over 900 eps S.
            far = lo + np.asarray(dims) * resolution
            scale = np.abs([lo, far]).max() + inflation + resolution
            h = np.sqrt(3.0) / 2.0 * resolution + 1e-13 * scale
            sure = free & (d + h <= inflation)
            doubt = free & (d + h > inflation) & (d - h <= inflation)
            sub = np.argwhere(doubt) + [s.start for s in box]
            # A nearest distance does not depend on the tree's layout, so the
            # tree is built the quick way. Cells beyond inflation read inf,
            # without a full search. A doubt cell lies about inflation from
            # its nearest point, so each query visits many nodes; 64-point
            # leaves (scipy's default is 16) make a quarter as many. Of 16,
            # 32, 64 and 128, 64 built and queried fastest.
            tree = cKDTree(pts, leafsize=64, balanced_tree=False, compact_nodes=False)
            dist, _ = tree.query(
                lo + (sub + 0.5) * resolution,
                distance_upper_bound=np.nextafter(inflation, np.inf),
            )
            near = sub[dist <= inflation]
            occupied[near[:, 0], near[:, 1], near[:, 2]] = True
            crop |= sure

    return OccupancyGrid(origin=lo, resolution=resolution, occupied=occupied)
