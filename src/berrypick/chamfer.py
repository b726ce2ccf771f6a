"""Chamfer distance in its two roles: an unnormalized squared-sum loss and a
millimeter-scale symmetric mean metric.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import ParameterError
from .types import PointCloud


def _nearest(
    p: PointCloud | np.ndarray, q: PointCloud | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each point of p's distance to its nearest point of q, and each point
    of q's to its nearest of p. Exact: KD-tree queries with no approximation."""
    pa = p.xyz if isinstance(p, PointCloud) else np.asarray(p, dtype=np.float64)
    qa = q.xyz if isinstance(q, PointCloud) else np.asarray(q, dtype=np.float64)
    if len(pa) == 0 or len(qa) == 0:
        raise ParameterError("chamfer distance needs two non-empty clouds")
    return cKDTree(qa).query(pa)[0], cKDTree(pa).query(qa)[0]


def chamfer_loss(p: PointCloud | np.ndarray, q: PointCloud | np.ndarray) -> float:
    """Sum of squared nearest-neighbor distances in both directions.
    Unnormalized, units are squared input units."""
    d_pq, d_qp = _nearest(p, q)
    return float(np.sum(d_pq**2) + np.sum(d_qp**2))


def chamfer_metric_mm(p: PointCloud | np.ndarray, q: PointCloud | np.ndarray) -> float:
    """Symmetric mean nearest-neighbor Euclidean distance, in millimeters.

    0.5 * (mean_p min_q ||p-q|| + mean_q min_p ||p-q||) with inputs in meters.
    Scale-comparable across cloud sizes, unlike the squared-sum loss.
    """
    d_pq, d_qp = _nearest(p, q)
    return float(0.5 * (d_pq.mean() + d_qp.mean()) * 1000.0)
