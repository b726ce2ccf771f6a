"""Registration and completion tests.

Pose recovery is judged modulo the prior's own symmetries: the canonical
berry is a surface of revolution and mirror-symmetric along its axis, so
only the axis direction (up to sign) and the translation are observable.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import rodrigues

from berrypick import (
    IcpParams,
    InsufficientDataError,
    ParameterError,
    PointCloud,
    RegistrationError,
    chamfer_metric_mm,
    complete_cloud,
    completion,
    icp_refine,
    init_pose,
)
from berrypick.prior import SURFACE_POINTS
from berrypick.types import Pose


def _full_sample(prior, pose, n=2000, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    return PointCloud(xyz=pose.apply(prior.sample_surface(n, rng)))


def _front_crop(cloud, fraction):
    """Keep the camera-facing fraction of points (smallest z first)."""
    order = np.argsort(cloud.xyz[:, 2])
    keep = order[: max(1, int(round(fraction * len(cloud))))]
    return PointCloud(xyz=cloud.xyz[keep])


def _axis_error_deg(estimated: Pose, true: Pose) -> float:
    dot = abs(float(estimated.rotation[:, 2] @ true.rotation[:, 2]))
    return float(np.degrees(np.arccos(np.clip(dot, 0.0, 1.0))))


# ---------------------------------------------------------------- init_pose


def test_init_pose_on_full_sample_hits_true_center(prior):
    true = Pose(rotation=np.eye(3), translation=np.array([0.01, -0.005, 0.36]))
    guess = init_pose(_full_sample(prior, true), prior)
    assert np.linalg.norm(guess.translation - true.translation) < 0.002


def test_init_pose_is_translation_equivariant(prior):
    base = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 0.36]))
    cloud = _full_sample(prior, base)
    shifted = PointCloud(xyz=cloud.xyz + np.array([0.05, 0.0, 0.0]))
    a = init_pose(cloud, prior)
    b = init_pose(shifted, prior)
    delta = b.translation - a.translation
    assert np.linalg.norm(delta - np.array([0.05, 0.0, 0.0])) < 0.002


def test_init_pose_pushes_thin_shells_away_from_camera(prior):
    true = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 0.36]))
    shell = _front_crop(_full_sample(prior, true, n=4000), 0.3)
    guess = init_pose(shell, prior)
    assert guess.translation[2] > shell.xyz[:, 2].mean()


def test_init_pose_needs_ten_points(prior):
    cloud = PointCloud(xyz=np.random.default_rng(0).normal(size=(9, 3)))
    with pytest.raises(InsufficientDataError):
        init_pose(cloud, prior)


# ---------------------------------------------------------------- icp_refine


def test_icp_recovers_small_perturbation(prior):
    true = Pose(
        rotation=rodrigues([1.0, 0.3, 0.2], 8.0),
        translation=np.array([0.004, -0.002, 0.355]),
    )
    partial = _front_crop(_full_sample(prior, true, n=3000, seed=3), 0.6)
    init = Pose(
        rotation=rodrigues([0.0, 1.0, 0.0], 5.0) @ true.rotation,
        translation=true.translation + np.array([0.002, 0.002, -0.001]),
    )
    result = icp_refine(partial, prior, init)
    assert _axis_error_deg(result.pose, true) < 2.0
    assert np.linalg.norm(result.pose.translation - true.translation) < 0.001
    assert result.fitness_mm < 1.5


def test_icp_aligned_input_is_a_fixed_point(prior):
    true = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 0.36]))
    partial = _full_sample(prior, true, n=1500)
    result = icp_refine(partial, prior, true)
    assert result.converged
    assert isinstance(result.pose, Pose)
    assert _axis_error_deg(result.pose, true) < 0.5
    assert np.linalg.norm(result.pose.translation - true.translation) < 5e-4
    assert 0.0 <= result.fitness_mm < 1.0


def test_icp_gives_up_when_nothing_is_in_range(prior):
    true = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 0.36]))
    partial = _full_sample(prior, true, n=500)
    far = Pose(rotation=np.eye(3), translation=true.translation + np.array([0.1, 0, 0]))
    with pytest.raises(RegistrationError):
        icp_refine(partial, prior, far, IcpParams(max_correspondence_dist=5.0))


def test_icp_residual_history_never_worsens(prior):
    true = Pose(
        rotation=rodrigues([0.2, 1.0, 0.0], 12.0),
        translation=np.array([-0.006, 0.003, 0.37]),
    )
    partial = _front_crop(_full_sample(prior, true, n=2500, seed=11), 0.5)
    init = Pose(rotation=np.eye(3), translation=true.translation + 0.004)
    result = icp_refine(partial, prior, init)
    history = result.residual_history_mm
    assert len(history) >= 1
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert result.fitness_mm == pytest.approx(history[-1])


def test_icp_needs_three_points(prior):
    cloud = PointCloud(xyz=np.zeros((2, 3)) + [0, 0, 0.36])
    with pytest.raises(InsufficientDataError):
        icp_refine(cloud, prior, Pose())


def test_icp_params_validation():
    with pytest.raises(ParameterError):
        IcpParams(max_iterations=0)
    with pytest.raises(ParameterError):
        IcpParams(max_correspondence_dist=-1.0)


# ---------------------------------------------------------------- complete_cloud


def test_complete_full_sample_reconstructs_below_a_millimeter(prior):
    true = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 0.36]))
    partial = _full_sample(prior, true, n=3000, seed=5)
    truth = prior.sample_ground_truth(true, np.random.Generator(np.random.Philox(6)))
    result = complete_cloud(partial, prior)
    assert chamfer_metric_mm(result.cloud, truth) <= 1.0


def test_complete_forty_percent_view_stays_within_two_millimeters(prior):
    true = Pose(
        rotation=rodrigues([1.0, 0.0, 0.3], 10.0),
        translation=np.array([0.005, -0.003, 0.36]),
    )
    partial = _front_crop(_full_sample(prior, true, n=5000, seed=7), 0.4)
    truth = prior.sample_ground_truth(true, np.random.Generator(np.random.Philox(8)))
    result = complete_cloud(partial, prior)
    assert chamfer_metric_mm(result.cloud, truth) <= 2.0


def test_complete_output_is_the_posed_canonical_sampling(prior):
    true = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 0.36]))
    result = complete_cloud(_full_sample(prior, true, n=1000), prior)
    assert len(result.cloud) == SURFACE_POINTS
    expected = result.icp.pose.apply(prior.canonical_samples(SURFACE_POINTS))
    assert np.array_equal(result.cloud.xyz, expected)
    assert np.linalg.norm(result.cloud.centroid() - true.translation) < 0.002


def test_complete_cloud_keeps_the_registration_it_posed_with(prior):
    true = Pose(rotation=rodrigues([1.0, 0.0, 0.3], 10.0), translation=np.array([0.0, 0.0, 0.36]))
    partial = _front_crop(_full_sample(prior, true, n=3000, seed=9), 0.5)
    icp = complete_cloud(partial, prior).icp
    direct = icp_refine(partial, prior, init_pose(partial, prior))
    assert icp == direct
    assert icp.fitness_mm == icp.residual_history_mm[-1]


def test_complete_needs_ten_points(prior):
    with pytest.raises(InsufficientDataError):
        complete_cloud(PointCloud(xyz=np.zeros((4, 3)) + [0, 0, 0.3]), prior)


def test_restarts_beyond_four_repeat_nothing(prior, monkeypatch):
    """There are four distinct restart rotations: restart_count=8 runs the
    same four attempts as 4 and gives the same result."""
    true = Pose(rotation=rodrigues([0.2, 1.0, 0.0], 12.0), translation=np.array([0.0, 0.0, 0.36]))
    cloud = _front_crop(_full_sample(prior, true, n=2500, seed=11), 0.5)
    rng = np.random.Generator(np.random.Philox(5))
    noisy = PointCloud(xyz=cloud.xyz + rng.normal(0.0, 0.003, cloud.xyz.shape))
    init = Pose(rotation=np.eye(3), translation=true.translation + 0.004)
    four = icp_refine(noisy, prior, init, IcpParams(restart_count=4))
    assert four.fitness_mm > 1.0  # no early accept: every restart runs

    calls = []
    single = completion._icp_single
    monkeypatch.setattr(completion, "_icp_single", lambda *a: calls.append(a) or single(*a))
    eight = icp_refine(noisy, prior, init, IcpParams(restart_count=8))
    assert len(calls) == 4
    assert eight == four


@pytest.mark.parametrize("rows", [1, 3, 200])
def test_plane_rows_cross_is_np_cross_bit_for_bit(rows):
    """The point-to-plane system's element-wise cross product equals
    np.cross byte for byte, on magnitudes from 1e-300 to 1e150 and signs
    mixed, so no product or difference is rounded differently."""
    rng = np.random.Generator(np.random.Philox(rows))
    scale = 10.0 ** rng.integers(-300, 150, (2, rows, 3))
    source, normals = rng.uniform(-1.0, 1.0, (2, rows, 3)) * scale
    a = completion._plane_rows(source, normals)
    assert a.shape == (rows, 6) and a.dtype == np.float64
    assert a[:, :3].tobytes() == np.cross(source, normals).tobytes()
    assert a[:, 3:].tobytes() == normals.tobytes()
