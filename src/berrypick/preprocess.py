"""Depth filtering, mask extraction, depth projection, voxel downsampling and
statistical outlier removal: the raw-sensor to per-instance-cloud chain.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial import cKDTree

from .errors import ParameterError
from .types import CameraIntrinsics, DepthImage, OutlierParams, PointCloud, VoxelParams


def median_filter(depth: DepthImage, window: int = 5, where: np.ndarray | None = None) -> DepthImage:
    """Median blur over a window x window neighborhood, at the pixels `where`
    marks (a boolean array of the depth's shape; None means every pixel).
    Every pixel outside `where` reads 0.

    Invalid (0) pixels participate as value 0, so isolated returns surrounded
    by no-return pixels are voted out. Borders replicate the nearest edge
    pixel, keeping output dimensions equal to the input. Each value is an
    exact selection, the middle of the window's sorted values.
    """
    if window % 2 == 0 or window < 3:
        raise ParameterError("median window must be odd and >= 3")
    values = depth.values
    if where is None:
        where = np.ones(values.shape, dtype=bool)
    elif where.shape != values.shape:
        raise ParameterError(f"where shape {where.shape} and depth shape {values.shape} differ")
    windows = sliding_window_view(np.pad(values, window // 2, mode="edge"), (window, window))
    vs, us = np.nonzero(where)
    middle = window * window // 2
    gathered = windows[vs, us].reshape(len(vs), window * window)
    filtered = np.zeros_like(values)
    filtered[vs, us] = np.partition(gathered, middle, axis=1)[:, middle]
    return DepthImage(values=filtered)


def project_point_cloud(
    depth: DepthImage,
    k: CameraIntrinsics,
    origin: tuple[int, int] | None = None,
) -> PointCloud:
    """Back-project every valid depth pixel through the pinhole model.

    For pixel (u, v) with depth d mm: z = d/1000, x = (u-cx)*z/fx,
    y = (v-cy)*z/fy. Points come out in row-major pixel order.

    The depth may be a crop of the frame k describes: origin is then the
    frame pixel (u, v) of the crop's top-left corner, and (u, v) stay frame
    coordinates. Only a whole frame (origin None) is checked against k.
    """
    if origin is None:
        k.validate_for(depth.width, depth.height)
        origin = (0, 0)

    vs, us = np.nonzero(depth.values)
    if len(us) == 0:
        return PointCloud.empty()
    z = depth.values[vs, us].astype(np.float64) / 1000.0
    us = us + origin[0]
    vs = vs + origin[1]
    x = (us.astype(np.float64) - k.cx) * z / k.fx
    y = (vs.astype(np.float64) - k.cy) * z / k.fy
    return PointCloud(xyz=np.column_stack([x, y, z]))


def voxel_downsample(cloud: PointCloud, params: VoxelParams) -> PointCloud:
    """Bin points into cubes of edge voxel_size; every bin holding at least
    min_points members emits its centroid. Sparser bins are dropped as noise.
    """
    if len(cloud) == 0:
        return PointCloud.empty()

    keys = np.floor(cloud.xyz / params.voxel_size).astype(np.int64)
    # groups in lexicographic key order, as np.unique(axis=0) numbers them
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.cumsum(starts) - 1
    inverse = np.empty_like(group)
    inverse[order] = group
    counts = np.bincount(group)
    keep = counts >= params.min_points
    if not keep.any():
        return PointCloud.empty()

    sums = np.zeros((len(counts), 3))
    np.add.at(sums, inverse, cloud.xyz)
    return PointCloud(xyz=sums[keep] / counts[keep, None])


def extract_masked(depth: DepthImage, bits: np.ndarray) -> DepthImage:
    """The depth with every pixel outside the mask bits set to 0 (no return),
    so projecting it lifts the mask's own pixels only."""
    if bits.shape != depth.values.shape:
        raise ParameterError(f"mask shape {bits.shape} and depth shape {depth.values.shape} differ")
    return DepthImage(values=np.where(bits, depth.values, 0))


def remove_outliers(cloud: PointCloud, params: OutlierParams) -> PointCloud:
    """Statistical outlier removal.

    A point survives iff its mean distance to its k nearest neighbors is at
    most mean + std_ratio * std of that statistic over the whole cloud.
    Clouds with <= k points are returned unchanged (too small to judge).
    """
    n = len(cloud)
    if n <= params.k_neighbors:
        return cloud
    tree = cKDTree(cloud.xyz)
    # k+1 because the query point itself is its own nearest neighbor
    dists, _ = tree.query(cloud.xyz, k=params.k_neighbors + 1)
    mean_knn = dists[:, 1:].mean(axis=1)
    threshold = mean_knn.mean() + params.std_ratio * mean_knn.std()
    return PointCloud(xyz=cloud.xyz[mean_knn <= threshold])
