"""Chamfer distance in its two roles: an unnormalized squared-sum loss and a
millimeter-scale symmetric mean metric.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import ParameterError
from .types import PointCloud


def _as_xyz(cloud: PointCloud | np.ndarray) -> np.ndarray:
    if isinstance(cloud, PointCloud):
        return cloud.xyz
    return np.asarray(cloud, dtype=np.float64)


def _check_nonempty(p: np.ndarray, q: np.ndarray) -> None:
    if len(p) == 0 or len(q) == 0:
        raise ParameterError("chamfer distance needs two non-empty clouds")


def _nearest(
    p: PointCloud | np.ndarray, q: PointCloud | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each point of p's distance to its nearest point of q, and each point
    of q's to its nearest of p. Exact: KD-tree queries with no approximation."""
    pa, qa = _as_xyz(p), _as_xyz(q)
    _check_nonempty(pa, qa)
    return cKDTree(qa).query(pa)[0], cKDTree(pa).query(qa)[0]


def chamfer_loss(p: PointCloud | np.ndarray, q: PointCloud | np.ndarray) -> float:
    """Sum of squared nearest-neighbor distances in both directions.
    Unnormalized, units are squared input units."""
    d_pq, d_qp = _nearest(p, q)
    return float(np.sum(d_pq**2) + np.sum(d_qp**2))


def chamfer_loss_brute(p: PointCloud | np.ndarray, q: PointCloud | np.ndarray) -> float:
    """O(|P|*|Q|) reference implementation used as the oracle in tests."""
    pa, qa = _as_xyz(p), _as_xyz(q)
    _check_nonempty(pa, qa)
    total = 0.0
    chunk = 256
    for arr, other in ((pa, qa), (qa, pa)):
        mins = np.empty(len(arr))
        for start in range(0, len(arr), chunk):
            diff = arr[start:start + chunk, None, :] - other[None, :, :]
            mins[start:start + chunk] = np.min(np.sum(diff * diff, axis=2), axis=1)
        total += float(np.sum(mins))
    return total


def chamfer_metric_mm(p: PointCloud | np.ndarray, q: PointCloud | np.ndarray) -> float:
    """Symmetric mean nearest-neighbor Euclidean distance, in millimeters.

    0.5 * (mean_p min_q ||p-q|| + mean_q min_p ||p-q||) with inputs in meters.
    Scale-comparable across cloud sizes, unlike the squared-sum loss.
    """
    d_pq, d_qp = _nearest(p, q)
    return float(0.5 * (d_pq.mean() + d_qp.mean()) * 1000.0)
