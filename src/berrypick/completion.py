"""Partial-cloud completion by registering the fixed berry prior.

The berry's shape and size are fixed, so completing a partial scan reduces to
recovering its rigid pose. Initialization uses PCA plus a viewing-ray centroid
correction (a camera only sees the near face, so the raw centroid sits in
front of the true center); refinement is point-to-surface ICP against a dense
sampling of the prior with a small set of orthogonal restart rotations to
escape the axis-sign ambiguity. The completed cloud is the prior's cached
SURFACE_POINTS-point canonical sampling under the recovered pose, so every
output point lies on the modeled surface by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import InsufficientDataError, ParameterError, RegistrationError
from .prior import SURFACE_POINTS, StrawberryPrior
from .types import ArrayRecord, PointCloud, Pose, rotation_about_axis, rotation_aligning

_MIN_PARTIAL_POINTS = 10

# Residual (mm) good enough to skip the remaining restarts.
_EARLY_ACCEPT_MM = 1.0


@dataclass(frozen=True)
class IcpParams:
    """Millimeter-denominated knobs; geometry math runs in meters.
    restart_count beyond 4 adds nothing: there are four distinct restarts."""

    max_iterations: int = 40
    convergence_tol: float = 0.01
    max_correspondence_dist: float = 25.0
    restart_count: int = 4

    def __post_init__(self):
        values = (self.max_iterations, self.convergence_tol, self.max_correspondence_dist,
                  self.restart_count)
        if not all(v > 0 for v in values):
            raise ParameterError("all registration parameters must be positive")


@dataclass(frozen=True, eq=False)
class IcpResult(ArrayRecord):
    """The best restart: its pose, its residuals in mm at each improvement
    (the last is its fitness), whether it converged, and its restart index."""

    pose: Pose
    residual_history_mm: tuple[float, ...]
    converged: bool
    restart_index: int

    @property
    def fitness_mm(self) -> float:
        return self.residual_history_mm[-1]


@dataclass(frozen=True, eq=False)
class CompletionResult(ArrayRecord):
    """Completed surface plus the registration that posed it."""

    cloud: PointCloud
    icp: IcpResult


def init_pose(partial: PointCloud, prior: StrawberryPrior) -> Pose:
    """Coarse pose guess from the partial cloud's centroid and PCA axis.

    The centroid of a near-face scan is biased toward the camera; shift it
    away along the viewing ray by the gap between the prior's smallest extent
    and the observed spread in that direction. A full all-around sample has
    spread comparable to the prior, so the shift vanishes; a thin visible
    shell gets pushed roughly half an extent inward.
    """
    if len(partial) < _MIN_PARTIAL_POINTS:
        raise InsufficientDataError(
            f"pose initialization needs at least {_MIN_PARTIAL_POINTS} points, "
            f"got {len(partial)}"
        )
    xyz = partial.xyz
    centroid = xyz.mean(axis=0)

    norm = np.linalg.norm(centroid)
    ray = centroid / norm if norm > 1e-9 else np.array([0.0, 0.0, 1.0])
    along = xyz @ ray
    spread = float(along.max() - along.min())
    offset = max(0.0, (prior.min_extent_m - spread) / 2.0)
    translation = centroid + offset * ray

    centered = xyz - centroid
    cov = centered.T @ centered / len(partial)
    eigvals, eigvecs = np.linalg.eigh(cov)
    axis = eigvecs[:, np.argmax(eigvals)]
    if axis[1] > 0:
        axis = -axis  # berries hang stem-up; prefer the upward sign
    rotation = rotation_aligning(np.array([0.0, 0.0, 1.0]), axis)
    return Pose(rotation=rotation, translation=translation)


# ICP restarts' rotations relative to the initial pose (see icp_refine)
_RESTART_ROTATIONS = (
    np.eye(3),
    rotation_about_axis(np.array([0.0, 1.0, 0.0]), np.pi / 2),
    rotation_about_axis(np.array([1.0, 0.0, 0.0]), -np.pi / 2),
    rotation_about_axis(np.array([1.0, 0.0, 0.0]), np.pi),
)


def _plane_rows(source: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """The (n, 6) point-to-plane system [source x normal, normal]. The cross
    product is taken element-wise, with the multiplies and subtracts of
    np.cross in its order, so it is bit-identical without np.cross's
    moveaxis wrappers."""
    (s0, s1, s2), (n0, n1, n2) = source.T, normals.T
    a = np.empty((len(source), 6))
    np.subtract(s1 * n2, s2 * n1, out=a[:, 0])
    np.subtract(s2 * n0, s0 * n2, out=a[:, 1])
    np.subtract(s0 * n1, s1 * n0, out=a[:, 2])
    a[:, 3:] = normals
    return a


def _point_to_plane_step(
    source: np.ndarray, target: np.ndarray, target_normals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid (R, t) moving source onto the tangent planes of its
    matched target points, via the usual small-angle linearization."""
    a = _plane_rows(source, target_normals)
    b = np.einsum("ij,ij->i", target - source, target_normals)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    omega, t = x[:3], x[3:]
    angle = float(np.linalg.norm(omega))
    r = np.eye(3) if angle < 1e-12 else rotation_about_axis(omega, angle)
    return r, t


def _icp_single(
    xyz: np.ndarray,
    surface_tree: cKDTree,
    surface: np.ndarray,
    normals: np.ndarray,
    init: Pose,
    params: IcpParams,
    restart_index: int,
) -> IcpResult | None:
    """One restart, or None when the initialization finds no correspondences
    at all."""
    max_dist = params.max_correspondence_dist / 1000.0
    tol = params.convergence_tol / 1000.0

    # carried as arrays, since a Pose checks its rotation on construction;
    # only the restart's best becomes a Pose
    rotation, translation = init.rotation, init.translation
    best = (rotation, translation)
    best_residual = np.inf
    history: list[float] = []
    converged = False
    stalled = 0

    for _ in range(params.max_iterations):
        # observed points in the prior's canonical frame under the current pose
        q = (xyz - translation) @ rotation
        dists, idx = surface_tree.query(q, distance_upper_bound=max_dist)
        inlier = np.isfinite(dists)
        if not inlier.any():
            break
        residual = float(dists[inlier].mean())
        if residual < best_residual - 1e-15:
            best_residual = residual
            best = (rotation, translation)
            history.append(residual * 1000.0)
            stalled = 0
        else:
            stalled += 1
            if stalled >= 3:
                break

        near = idx[inlier]
        delta_r, delta_t = _point_to_plane_step(q[inlier], surface[near], normals[near])
        # refined pose maps canonical -> camera through the inverse update
        rotation = rotation @ delta_r.T
        translation = translation - rotation @ delta_t

        angle = np.arccos(np.clip((np.trace(delta_r) - 1.0) / 2.0, -1.0, 1.0))
        step = float(np.linalg.norm(delta_t)) + angle * 0.02  # ~berry lever arm
        if step < tol:
            converged = True
            break
        if len(history) >= 2 and history[-2] - history[-1] < params.convergence_tol:
            converged = True
            break

    if not history:
        return None
    return IcpResult(Pose(*best), tuple(history), converged, restart_index)


def icp_refine(
    partial: PointCloud,
    prior: StrawberryPrior,
    init: Pose,
    params: IcpParams = IcpParams(),
) -> IcpResult:
    """Point-to-surface ICP of the partial cloud onto the prior.

    Runs min(restart_count, 4) attempts whose initial rotations differ by
    orthogonal canonical rotations (identity, two 90-degree turns, one flip),
    the only four distinct restarts, and keeps the best fitness. Raises
    RegistrationError when no restart ever finds a correspondence within
    max_correspondence_dist.
    """
    if len(partial) < 3:
        raise InsufficientDataError("registration needs at least 3 points")
    surface = prior.registration_surface()
    normals = prior.registration_normals()
    tree = prior.registration_tree
    xyz = partial.xyz

    best: IcpResult | None = None
    for i, canonical in enumerate(_RESTART_ROTATIONS[: params.restart_count]):
        start = Pose(rotation=init.rotation @ canonical, translation=init.translation)
        outcome = _icp_single(xyz, tree, surface, normals, start, params, i)
        if outcome is None:
            continue
        if best is None or outcome.fitness_mm < best.fitness_mm:
            best = outcome
        if best.fitness_mm <= _EARLY_ACCEPT_MM:
            break

    if best is None:
        raise RegistrationError(
            "no correspondences within "
            f"{params.max_correspondence_dist:.1f} mm in any restart"
        )
    return best


def complete_cloud(
    partial: PointCloud,
    prior: StrawberryPrior,
    params: IcpParams = IcpParams(),
) -> CompletionResult:
    """Register the prior to the partial scan and emit its posed sampling.
    Fewer than init_pose's minimum of points raises InsufficientDataError."""
    icp = icp_refine(partial, prior, init_pose(partial, prior), params)
    cloud = PointCloud(xyz=icp.pose.apply(prior.canonical_samples(SURFACE_POINTS)))
    return CompletionResult(cloud=cloud, icp=icp)
