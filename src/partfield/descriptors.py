"""Deterministic per-point geometric descriptors (the frozen backbone).

Each point gets a 10-dim row:
  0 linearity   (l1-l2)/l1      from local-PCA eigenvalues l1>=l2>=l3
  1 planarity   (l2-l3)/l1
  2 sphericity  l3/l1
  3 |normal . z|                normal = smallest-eigenvalue direction
  4 height above the cloud's minimum z
  5 radial distance to the cloud centroid
  6 local density score: 1 / (1 + dbar_i / mean(dbar)), dbar_i = mean
    distance to the k nearest neighbors; in (0, 1], high = dense
  7-9 coordinates centered on the cloud centroid

All columns are translation invariant.  Degenerate neighborhoods
(l1 = 0, duplicated points) map to zero eigen-features, never NaN.
"""

import numpy as np

from .errors import InvalidArgumentError
from .geometry import PartLabeledCloud

D_IN = 10
# neighbourhood size when nothing else fixes it: the raw-descriptor
# baseline and the training default (a trained field records its own)
DEFAULT_K_NEIGHBORS = 16


def extract_descriptors(cloud: PartLabeledCloud,
                        k_neighbors: int = DEFAULT_K_NEIGHBORS) -> np.ndarray:
    """(N, 10) descriptor matrix, rows index-aligned with cloud points.

    The covariance neighborhood is the point itself plus its k nearest
    others, taken from the exact N x N squared-distance matrix by partial
    selection: the neighbors and their order are those of a full stable
    argsort of each row (ties toward the lower index).
    """
    points = cloud.points
    n = len(points)
    if not 3 <= k_neighbors < n:
        raise InvalidArgumentError(f"k_neighbors must be in [3, {n}), got {k_neighbors}")
    sq = np.sum(points ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.maximum(d2, 0.0, out=d2)
    # k nearest excluding self (self sits at distance 0, column 0 after sort)
    knn = _stable_smallest(d2, k_neighbors + 1)[:, 1:]
    knn_dist = np.sqrt(np.take_along_axis(d2, knn, axis=1))

    neigh = points[knn]                                # (N, k, 3)
    group = np.concatenate([points[:, None, :], neigh], axis=1)  # self + k
    mean = group.mean(axis=1, keepdims=True)
    centered = group - mean
    cov = np.einsum("nki,nkj->nij", centered, centered) / group.shape[1]
    eigvals, eigvecs = np.linalg.eigh(cov)             # ascending
    lam = eigvals[:, ::-1]                             # l1 >= l2 >= l3
    lam = np.maximum(lam, 0.0)
    l1 = lam[:, 0]
    safe = np.where(l1 > 0.0, l1, 1.0)
    linearity = np.where(l1 > 0.0, (lam[:, 0] - lam[:, 1]) / safe, 0.0)
    planarity = np.where(l1 > 0.0, (lam[:, 1] - lam[:, 2]) / safe, 0.0)
    sphericity = np.where(l1 > 0.0, lam[:, 2] / safe, 0.0)
    normal_z = np.abs(eigvecs[:, 2, 0])                # smallest-eigval vector, z component

    centroid = points.mean(axis=0)
    centered_pts = points - centroid
    height = points[:, 2] - points[:, 2].min()
    radial = np.linalg.norm(centered_pts, axis=1)
    dbar = knn_dist.mean(axis=1)
    mean_dbar = dbar.mean()
    if mean_dbar <= 0.0:
        density = np.ones(n)
    else:
        density = 1.0 / (1.0 + dbar / mean_dbar)

    desc = np.empty((n, D_IN))
    desc[:, 0] = linearity
    desc[:, 1] = planarity
    desc[:, 2] = sphericity
    desc[:, 3] = normal_z
    desc[:, 4] = height
    desc[:, 5] = radial
    desc[:, 6] = density
    desc[:, 7:10] = centered_pts
    return desc


def _stable_smallest(d2: np.ndarray, m: int) -> np.ndarray:
    """np.argsort(d2, axis=1, kind="stable")[:, :m] without sorting whole rows.

    argpartition picks m candidates per row and lexsort orders them by
    value, then index.  A row whose m-th smallest value recurs outside
    the candidates may have picked a higher index than the stable sort
    would; such rows take the full sort.
    """
    cand = np.argpartition(d2, m - 1, axis=1)[:, :m]
    vals = np.take_along_axis(d2, cand, axis=1)
    idx = np.take_along_axis(cand, np.lexsort((cand, vals), axis=1), axis=1)
    tied = np.count_nonzero(d2 <= vals.max(axis=1, keepdims=True), axis=1) > m
    if tied.any():
        idx[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :m]
    return idx
