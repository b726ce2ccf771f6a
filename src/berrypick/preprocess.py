"""Depth filtering, RGB-D projection, voxel downsampling, mask extraction and
statistical outlier removal: the raw-sensor to per-instance-cloud chain.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import ContractError, ParameterError
from .types import (
    CameraIntrinsics,
    DepthImage,
    InstanceMask,
    OutlierParams,
    PointCloud,
    RgbImage,
    VoxelParams,
)


def median_filter(depth: DepthImage, window: int = 5) -> DepthImage:
    """Median blur over a window x window neighborhood.

    Invalid (0) pixels participate as value 0, so isolated returns surrounded
    by no-return pixels are voted out. Borders replicate the nearest edge
    pixel, keeping output dimensions equal to the input.
    """
    if window % 2 == 0 or window < 3:
        raise ParameterError("median window must be odd and >= 3")
    filtered = ndimage.median_filter(depth.values, size=window, mode="nearest")
    return DepthImage(values=filtered)


def project_point_cloud(
    rgb: RgbImage,
    depth: DepthImage,
    k: CameraIntrinsics,
    origin: tuple[int, int] | None = None,
) -> PointCloud:
    """Back-project every valid depth pixel through the pinhole model.

    For pixel (u, v) with depth d mm: z = d/1000, x = (u-cx)*z/fx,
    y = (v-cy)*z/fy. Each point carries its RGB color and source pixel.
    Points come out in row-major pixel order.

    The images may be a crop of the frame k describes: origin is then the
    frame pixel (u, v) of the crop's top-left corner, and pixel coordinates,
    source pixels included, stay frame coordinates. Only a whole frame
    (origin None) is checked against k.
    """
    if (rgb.height, rgb.width) != (depth.height, depth.width):
        raise ParameterError(
            f"rgb {rgb.width}x{rgb.height} and depth {depth.width}x{depth.height} differ"
        )
    if origin is None:
        k.validate_for(depth.width, depth.height)
        origin = (0, 0)

    vs, us = np.nonzero(depth.values)
    if len(us) == 0:
        return PointCloud.empty()
    z = depth.values[vs, us].astype(np.float64) / 1000.0
    colors = rgb.values[vs, us]
    us = us + origin[0]
    vs = vs + origin[1]
    x = (us.astype(np.float64) - k.cx) * z / k.fx
    y = (vs.astype(np.float64) - k.cy) * z / k.fy
    return PointCloud(
        xyz=np.column_stack([x, y, z]),
        colors=colors,
        source_pixels=np.column_stack([us, vs]).astype(np.int32),
    )


def _majority_row(rows: np.ndarray) -> np.ndarray:
    """Most frequent row; ties broken by the lexicographically smallest row."""
    uniq, counts = np.unique(rows, axis=0, return_counts=True)
    return uniq[int(np.argmax(counts))]


def voxel_downsample(cloud: PointCloud, params: VoxelParams) -> PointCloud:
    """Bin points into cubes of edge voxel_size; every bin holding at least
    min_points members emits its centroid. Sparser bins are dropped as noise.

    Emitted points inherit the majority source pixel / instance id of their
    members and the mean member color.
    """
    n = len(cloud)
    if n == 0:
        return PointCloud.empty()

    keys = np.floor(cloud.xyz / params.voxel_size).astype(np.int64)
    uniq_keys, inverse, counts = np.unique(
        keys, axis=0, return_inverse=True, return_counts=True
    )
    keep = counts >= params.min_points
    if not keep.any():
        return PointCloud.empty()

    n_vox = len(uniq_keys)
    sums = np.zeros((n_vox, 3))
    np.add.at(sums, inverse, cloud.xyz)
    centroids = sums[keep] / counts[keep, None]

    colors = None
    if cloud.colors is not None:
        csums = np.zeros((n_vox, 3))
        np.add.at(csums, inverse, cloud.colors.astype(np.float64))
        colors = np.rint(csums[keep] / counts[keep, None]).astype(np.uint8)

    # majority votes need per-voxel member lists: group indices via argsort
    order = np.argsort(inverse, kind="stable")
    boundaries = np.searchsorted(inverse[order], np.arange(n_vox))
    boundaries = np.append(boundaries, n)
    kept_voxels = np.nonzero(keep)[0]

    source_pixels = None
    if cloud.source_pixels is not None:
        source_pixels = np.empty((len(kept_voxels), 2), dtype=np.int32)
        for out_i, vox in enumerate(kept_voxels):
            members = order[boundaries[vox]:boundaries[vox + 1]]
            source_pixels[out_i] = _majority_row(cloud.source_pixels[members])

    instance_ids = None
    if cloud.instance_ids is not None:
        instance_ids = np.empty(len(kept_voxels), dtype=np.int32)
        for out_i, vox in enumerate(kept_voxels):
            members = order[boundaries[vox]:boundaries[vox + 1]]
            ids, id_counts = np.unique(cloud.instance_ids[members], return_counts=True)
            instance_ids[out_i] = ids[int(np.argmax(id_counts))]

    return PointCloud(
        xyz=centroids,
        colors=colors,
        source_pixels=source_pixels,
        instance_ids=instance_ids,
    )


def extract_masked(cloud: PointCloud, mask: InstanceMask) -> PointCloud:
    """Keep points whose source pixel lies inside the mask; stamp them with
    the mask's instance id."""
    if len(cloud) == 0:
        return PointCloud.empty()
    if cloud.source_pixels is None:
        raise ContractError("cloud has no source-pixel provenance to match against a mask")
    us = cloud.source_pixels[:, 0]
    vs = cloud.source_pixels[:, 1]
    if (us < 0).any() or (us >= mask.width).any() or (vs < 0).any() or (vs >= mask.height).any():
        raise ParameterError("source pixels fall outside mask dimensions")
    selected = mask.bits[vs, us]
    return cloud.take(selected).with_instance_id(mask.instance_id)


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
    return cloud.take(mean_knn <= threshold)
