"""The brute-force O(n*m) evaluator is the oracle here: it is first pinned
against hand-worked examples, then the KD-tree implementation is required to
match it."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import chamfer_loss_brute, nearest_sq_brute
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from berrypick import ParameterError, PointCloud, chamfer_loss, chamfer_metric_mm
from berrypick.chamfer import _nearest
from berrypick.types import Pose, rotation_aligning


def test_brute_oracle_single_pair_by_hand():
    p = np.array([[0.0, 0.0, 0.0]])
    q = np.array([[3.0, 4.0, 0.0]])
    # one squared distance of 25 in each direction
    assert chamfer_loss_brute(p, q) == pytest.approx(50.0)


def test_brute_oracle_asymmetric_counts_by_hand():
    p = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    q = np.array([[1.0, 0.0, 0.0]])
    # p->q: 1^2 + 9^2 = 82; q->p: nearest is (0,0,0), 1^2 = 1
    assert chamfer_loss_brute(p, q) == pytest.approx(83.0)


def test_brute_oracle_identical_clouds_zero():
    pts = np.random.default_rng(0).normal(size=(40, 3))
    assert chamfer_loss_brute(pts, pts) == 0.0


def test_metric_mm_by_hand():
    p = np.array([[0.0, 0.0, 0.0]])
    q = np.array([[0.002, 0.0, 0.0]])
    # 2 mm each way, symmetric mean is 2 mm
    assert chamfer_metric_mm(p, q) == pytest.approx(2.0)


def test_fast_matches_brute_on_small_pairs():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = rng.normal(scale=0.05, size=(rng.integers(1, 60), 3))
        q = rng.normal(scale=0.05, size=(rng.integers(1, 60), 3))
        fast = chamfer_loss(p, q)
        ref = chamfer_loss_brute(p, q)
        assert fast == pytest.approx(ref, rel=1e-9, abs=1e-15)


@given(
    n=st.integers(1, 30),
    m=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_fast_matches_brute_property(n, m, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(-1.0, 1.0, size=(n, 3))
    q = rng.uniform(-1.0, 1.0, size=(m, 3))
    assert chamfer_loss(p, q) == pytest.approx(chamfer_loss_brute(p, q), rel=1e-9)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_loss_is_symmetric(seed):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(25, 3))
    q = rng.normal(size=(35, 3))
    assert chamfer_loss(p, q) == pytest.approx(chamfer_loss(q, p), rel=1e-12)


def test_accepts_point_clouds_and_arrays():
    xyz = np.random.default_rng(2).normal(size=(15, 3))
    cloud = PointCloud(xyz=xyz)
    assert chamfer_loss(cloud, xyz) == chamfer_loss(xyz, xyz)


def test_empty_cloud_rejected():
    pts = np.zeros((3, 3))
    with pytest.raises(ParameterError):
        chamfer_loss(np.zeros((0, 3)), pts)
    with pytest.raises(ParameterError):
        chamfer_metric_mm(pts, np.zeros((0, 3)))


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[np.nan, 0.0, 0.0]]),
        np.array([[0.0, np.inf, 0.0], [1.0, 2.0, 3.0]]),
        np.zeros((3, 2)),
        np.zeros(3),
    ],
    ids=["nan", "inf", "two-columns", "one-dimensional"],
)
def test_malformed_array_is_a_parameter_error(bad):
    good = np.zeros((2, 3))
    with pytest.raises(ParameterError):
        chamfer_metric_mm(bad, good)
    with pytest.raises(ParameterError):
        chamfer_loss(good, bad)


# ------------------------------------------------- bit-exact nearest distances


def _assert_exact_nearest(p, q):
    """_nearest's per-point distances are np.sqrt of the brute squared minima,
    bit for bit, in both directions and in input order."""
    d_pq, d_qp = _nearest(p, q)
    assert np.array_equal(d_pq, np.sqrt(nearest_sq_brute(p, q)))
    assert np.array_equal(d_qp, np.sqrt(nearest_sq_brute(q, p)))


def _default_layout_metric_mm(p, q) -> float:
    """chamfer_metric_mm's formula on scipy's default (balanced, 16-point
    leaf) trees, queried in input order."""
    d_pq, d_qp = cKDTree(q).query(p)[0], cKDTree(p).query(q)[0]
    return float(0.5 * (d_pq.mean() + d_qp.mean()) * 1000.0)


@given(
    n=st.integers(1, 300),
    m=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_nearest_is_bit_exact_property(n, m, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(-0.05, 0.05, size=(n, 3))
    q = rng.uniform(-0.05, 0.05, size=(m, 3))
    _assert_exact_nearest(p, q)
    assert chamfer_metric_mm(p, q) == _default_layout_metric_mm(p, q)


def test_nearest_is_bit_exact_on_a_lattice_with_ties():
    # Dyadic coordinates make every offset exact: each cell center is the
    # same distance from its cell's eight corners, so each of its queries
    # meets an exact eight-way tie.
    axis = np.arange(6) / 8.0
    lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    centers = lattice[lattice.max(axis=1) < axis[-1]] + 1.0 / 16.0
    _, d_center = _nearest(lattice, centers)
    assert np.all(d_center == np.sqrt(3.0) / 16.0)
    _assert_exact_nearest(lattice, centers)
    assert chamfer_metric_mm(lattice, centers) == _default_layout_metric_mm(lattice, centers)


def test_nearest_is_bit_exact_with_duplicated_points():
    rng = np.random.default_rng(4)
    base = rng.normal(scale=0.02, size=(40, 3))
    p = np.repeat(base, 5, axis=0)
    q = np.concatenate([base[::3], base[::3], rng.normal(scale=0.02, size=(30, 3))])
    _assert_exact_nearest(p, q)
    d_pq, _ = _nearest(p, q)
    assert np.array_equal(d_pq.reshape(40, 5), np.repeat(d_pq[::5, None], 5, axis=1))


def test_nearest_is_bit_exact_for_a_single_point():
    p = np.array([[0.01, -0.02, 0.3]])
    q = np.random.default_rng(5).normal(loc=0.3, scale=0.02, size=(50, 3))
    _assert_exact_nearest(p, q)
    _assert_exact_nearest(p, p)
    assert chamfer_metric_mm(p, q) == _default_layout_metric_mm(p, q)


def test_nearest_is_bit_exact_on_posed_prior_samplings(prior):
    tilt = rotation_aligning(np.array([0.0, 0.0, 1.0]), np.array([0.2, -0.1, 1.0]))
    truth = prior.sample_ground_truth(
        Pose(rotation=np.eye(3), translation=np.array([0.01, -0.005, 0.36])),
        np.random.Generator(np.random.Philox(6)),
    )
    completed = prior.sample_ground_truth(
        Pose(rotation=tilt, translation=np.array([0.0105, -0.0048, 0.3603])),
        np.random.Generator(np.random.Philox(7)),
    )
    assert len(truth) == len(completed) == 4096
    _assert_exact_nearest(completed.xyz, truth.xyz)
    assert chamfer_metric_mm(completed, truth) == _default_layout_metric_mm(completed.xyz, truth.xyz)
