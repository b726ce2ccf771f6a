"""The brute-force O(n*m) evaluator is the oracle here: it is first pinned
against hand-worked examples, then the KD-tree implementation is required to
match it."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berrypick import (
    ParameterError,
    PointCloud,
    chamfer_loss,
    chamfer_loss_brute,
    chamfer_metric_mm,
)


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
