"""Chamfer distance in its two roles: an unnormalized squared-sum loss and a
millimeter-scale symmetric mean metric.

Both come from each point's exact distance to its nearest point of the other
cloud. That distance is the minimum of one fixed formula (the three squared
offsets summed in axis order, then the square root) over every point of the
other cloud, so neither the KD-tree's layout nor the order in which points are
queried can change it; both only decide how fast the minimum is found. The
trees are sliding-midpoint with 32-point leaves, which build faster than
scipy's balanced default, and each cloud is queried in its own tree's leaf
order, so consecutive queries walk the same branches of the other tree.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import ParameterError
from .types import PointCloud

_LEAFSIZE = 32


def _nearest(
    p: PointCloud | np.ndarray, q: PointCloud | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each point of p's distance to its nearest point of q, and each point
    of q's to its nearest of p, in input order. Exact: KD-tree queries with
    no approximation. Raises ParameterError for an empty cloud or an array
    PointCloud refuses (wrong shape, non-finite values)."""
    pa, qa = (PointCloud(xyz=getattr(c, "xyz", c)).xyz for c in (p, q))
    if len(pa) == 0 or len(qa) == 0:
        raise ParameterError("chamfer distance needs two non-empty clouds")
    tp, tq = (cKDTree(a, leafsize=_LEAFSIZE, balanced_tree=False) for a in (pa, qa))
    return _in_tree_order(pa, tp, tq), _in_tree_order(qa, tq, tp)


def _in_tree_order(xyz: np.ndarray, own: cKDTree, other: cKDTree) -> np.ndarray:
    """Each point of xyz's nearest distance in `other`, queried in the leaf
    order of `own` (xyz's tree) and scattered back to xyz's order."""
    d = np.empty(len(xyz))
    d[own.indices] = other.query(xyz[own.indices])[0]
    return d


def _loss(d_pq: np.ndarray, d_qp: np.ndarray) -> float:
    return float(np.sum(d_pq**2) + np.sum(d_qp**2))


def _metric_mm(d_pq: np.ndarray, d_qp: np.ndarray) -> float:
    return float(0.5 * (d_pq.mean() + d_qp.mean()) * 1000.0)


def chamfer_loss(p: PointCloud | np.ndarray, q: PointCloud | np.ndarray) -> float:
    """Sum of squared nearest-neighbor distances in both directions.
    Unnormalized, units are squared input units."""
    return _loss(*_nearest(p, q))


def chamfer_metric_mm(p: PointCloud | np.ndarray, q: PointCloud | np.ndarray) -> float:
    """Symmetric mean nearest-neighbor Euclidean distance, in millimeters.

    0.5 * (mean_p min_q ||p-q|| + mean_q min_p ||p-q||) with inputs in meters.
    Scale-comparable across cloud sizes, unlike the squared-sum loss.
    """
    return _metric_mm(*_nearest(p, q))


def chamfer_figures(p: PointCloud | np.ndarray, q: PointCloud | np.ndarray) -> tuple[float, float]:
    """(chamfer_loss(p, q), chamfer_metric_mm(p, q)) from one pair of
    nearest-distance queries."""
    nearest = _nearest(p, q)
    return _loss(*nearest), _metric_mm(*nearest)
