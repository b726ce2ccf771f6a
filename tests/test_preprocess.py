"""Hand-worked oracles for the sensor chain, then property checks of the
invariants each stage must keep."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berrypick import (
    CameraIntrinsics,
    DepthImage,
    OutlierParams,
    ParameterError,
    PointCloud,
    VoxelParams,
    extract_masked,
    median_filter,
    project_point_cloud,
    remove_outliers,
    voxel_downsample,
)


# ---------------------------------------------------------------- median


def test_median_votes_out_isolated_return():
    depth = np.zeros((5, 5), dtype=np.uint16)
    depth[2, 2] = 900
    out = median_filter(DepthImage(values=depth), window=3)
    # eight zero neighbors outvote the single return
    assert out.values[2, 2] == 0


def test_median_hand_computed_window():
    depth = np.array(
        [
            [10, 20, 30],
            [40, 50, 60],
            [70, 80, 90],
        ],
        dtype=np.uint16,
    )
    out = median_filter(DepthImage(values=depth), window=3)
    # center window is the full array, median of 10..90 is 50
    assert out.values[1, 1] == 50
    # corner window replicates edges: {10,10,20,10,10,20,40,40,50} -> 20
    assert out.values[0, 0] == 20


def test_median_keeps_flat_regions():
    depth = np.full((8, 8), 355, dtype=np.uint16)
    out = median_filter(DepthImage(values=depth))
    assert (out.values == 355).all()


def test_median_rejects_even_window():
    depth = DepthImage(values=np.zeros((4, 4), dtype=np.uint16))
    with pytest.raises(ParameterError):
        median_filter(depth, window=4)
    with pytest.raises(ParameterError):
        median_filter(depth, window=1)


@given(seed=st.integers(0, 2**32 - 1), window=st.sampled_from([3, 5]))
@settings(max_examples=40, deadline=None)
def test_median_output_values_come_from_input(seed, window):
    rng = np.random.default_rng(seed)
    depth = rng.integers(0, 1200, size=(12, 16), dtype=np.uint16)
    out = median_filter(DepthImage(values=depth), window=window)
    assert set(np.unique(out.values)) <= set(np.unique(depth))


def test_median_preserves_shape_and_dtype():
    depth = DepthImage(values=np.zeros((7, 9), dtype=np.uint16))
    out = median_filter(depth)
    assert out.values.shape == (7, 9)
    assert out.values.dtype == np.uint16


# ---------------------------------------------------------------- projection


def test_projection_hand_computed_pixel():
    k = CameraIntrinsics()
    depth = np.zeros((480, 640), dtype=np.uint16)
    depth[50, 100] = 500
    cloud = project_point_cloud(DepthImage(values=depth), k)
    assert len(cloud) == 1
    x, y, z = cloud.xyz[0]
    assert z == pytest.approx(0.5)
    assert x == pytest.approx((100 - 319.5) * 0.5 / 800.0)
    assert y == pytest.approx((50 - 239.5) * 0.5 / 800.0)


def test_projection_skips_invalid_pixels():
    depth = np.zeros((10, 10), dtype=np.uint16)
    depth[3, 4] = 800
    depth[7, 2] = 1200
    cloud = project_point_cloud(DepthImage(values=depth), CameraIntrinsics(cx=4.5, cy=4.5))
    assert len(cloud) == 2


def test_projection_empty_depth_gives_empty_cloud():
    depth = DepthImage(values=np.zeros((10, 10), dtype=np.uint16))
    cloud = project_point_cloud(depth, CameraIntrinsics(cx=4.5, cy=4.5))
    assert len(cloud) == 0


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_projection_reprojects_to_source_pixel(seed):
    rng = np.random.default_rng(seed)
    k = CameraIntrinsics()
    depth = np.zeros((480, 640), dtype=np.uint16)
    n = 30
    vs = rng.integers(0, 480, n)
    us = rng.integers(0, 640, n)
    depth[vs, us] = rng.integers(200, 1500, n).astype(np.uint16)
    cloud = project_point_cloud(DepthImage(values=depth), k)
    # points come out in row-major pixel order, the order np.nonzero gives
    v_src, u_src = np.nonzero(depth)
    x, y, z = cloud.xyz.T
    u_back = x * k.fx / z + k.cx
    v_back = y * k.fy / z + k.cy
    assert np.allclose(u_back, u_src, atol=1e-9)
    assert np.allclose(v_back, v_src, atol=1e-9)


# ---------------------------------------------------------------- voxels


def test_voxel_hand_computed_bins():
    xyz = np.array(
        [
            [0.1, 0.2, 0.3],
            [0.4, 0.5, 0.6],
            [5.0, 5.0, 5.0],  # its own bin, below min_points
        ]
    )
    out = voxel_downsample(PointCloud(xyz=xyz), VoxelParams(voxel_size=1.0, min_points=2))
    assert len(out) == 1
    assert np.allclose(out.xyz[0], [0.25, 0.35, 0.45])


def test_voxel_drops_sparse_bins_entirely():
    xyz = np.array([[0.5, 0.5, 0.5], [10.0, 10.0, 10.0]])
    out = voxel_downsample(PointCloud(xyz=xyz), VoxelParams(voxel_size=1.0, min_points=2))
    assert len(out) == 0


def test_voxel_negative_coordinates_bin_by_floor():
    # floor(-0.3) = -1 and floor(0.3) = 0: separate bins even though |x| matches
    xyz = np.array([[-0.3, 0.0, 0.0]] * 3 + [[0.3, 0.0, 0.0]] * 3)
    out = voxel_downsample(PointCloud(xyz=xyz), VoxelParams(voxel_size=1.0, min_points=3))
    assert len(out) == 2


def test_voxel_downsample_emits_positions_only():
    # eighths are exact in binary, so the hand-computed mean is exact too
    xyz = np.array([[1, 2, 4], [3, 4, 5], [4, 0, 7], [6, 6, 2]]) / 8.0
    out = voxel_downsample(PointCloud(xyz=xyz), VoxelParams(voxel_size=1.0, min_points=1))
    assert len(out) == 1
    assert np.array_equal(out.xyz, [[0.4375, 0.375, 0.5625]])


@given(seed=st.integers(0, 2**32 - 1), min_points=st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_voxel_centroids_stay_inside_their_cube(seed, min_points):
    rng = np.random.default_rng(seed)
    size = 0.005
    xyz = rng.uniform(-0.05, 0.05, size=(rng.integers(1, 300), 3))
    out = voxel_downsample(PointCloud(xyz=xyz), VoxelParams(size, min_points))
    keys = np.floor(out.xyz / size)
    assert (out.xyz >= keys * size).all()
    assert (out.xyz <= (keys + 1) * size + 1e-12).all()
    assert len(out) <= len(xyz) // min_points


def test_voxel_empty_cloud():
    out = voxel_downsample(PointCloud.empty(), VoxelParams())
    assert len(out) == 0


# ---------------------------------------------------------------- masks


def _depth_on_grid(h, w):
    # every pixel valid and unique, so a kept pixel shows by its value
    return DepthImage(values=np.arange(1, h * w + 1, dtype=np.uint16).reshape(h, w))


def test_extract_masked_selects_the_masked_pixels():
    depth = _depth_on_grid(4, 4)
    bits = np.zeros((4, 4), dtype=bool)
    bits[0, :2] = True
    out = extract_masked(depth, bits)
    assert out.values.dtype == np.uint16
    assert out.values[0, :2].tolist() == [1, 2]
    assert (out.values[~bits] == 0).all()


def test_extract_masked_rejects_mismatched_shapes():
    with pytest.raises(ParameterError):
        extract_masked(_depth_on_grid(4, 4), np.ones((4, 5), dtype=bool))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_extract_masked_partitions_the_cloud(seed):
    rng = np.random.default_rng(seed)
    h, w = 6, 8
    depth = _depth_on_grid(h, w)
    k = CameraIntrinsics(cx=3.5, cy=2.5)
    split = rng.random((h, w)) < 0.5
    part_a = extract_masked(depth, split)
    part_b = extract_masked(depth, ~split)
    assert np.array_equal(part_a.values[split], depth.values[split])
    assert (part_a.values[~split] == 0).all()
    assert (part_b.values[split] == 0).all()
    cloud = project_point_cloud(depth, k)
    lifted_a = project_point_cloud(part_a, k)
    lifted_b = project_point_cloud(part_b, k)
    assert len(lifted_a) + len(lifted_b) == len(cloud)
    merged = np.vstack([lifted_a.xyz, lifted_b.xyz])
    assert set(map(tuple, merged)) == set(map(tuple, cloud.xyz))


# ---------------------------------------------------------------- outliers


def test_remove_outliers_drops_distant_point():
    rng = np.random.default_rng(5)
    cluster = rng.normal(scale=0.002, size=(120, 3))
    far = np.array([[1.0, 1.0, 1.0]])
    cloud = PointCloud(xyz=np.vstack([cluster, far]))
    out = remove_outliers(cloud, OutlierParams())
    assert len(out) == 120
    assert not np.isclose(out.xyz, far).all(axis=1).any()


def test_remove_outliers_small_cloud_untouched():
    xyz = np.random.default_rng(6).normal(size=(10, 3))
    out = remove_outliers(PointCloud(xyz=xyz), OutlierParams(k_neighbors=16))
    assert np.array_equal(out.xyz, xyz)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_remove_outliers_output_is_subset(seed):
    rng = np.random.default_rng(seed)
    xyz = rng.normal(scale=0.01, size=(80, 3))
    out = remove_outliers(PointCloud(xyz=xyz), OutlierParams())
    rows = set(map(tuple, xyz))
    assert all(tuple(p) in rows for p in out.xyz)
    assert len(out) <= 80
