"""Feature-space part segmentation, shape correspondence, and
visualization colors.

Segmentation runs average-linkage agglomerative clustering on cosine
distance (1 - dot of unit rows).  Scores use matched mIoU: the best mean
IoU over all injective cluster-to-part assignments, found by the
Hungarian method (Kuhn 1955).  Correspondence is plain nearest neighbors
in feature space.
"""

from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from .errors import InvalidArgumentError


@dataclass
class Segmentation:
    labels: np.ndarray      # (N,) cluster indices in [0, num_clusters)
    num_clusters: int
    merges: np.ndarray      # scipy linkage matrix (heights non-decreasing)


def _feature_values(field) -> np.ndarray:
    values = field.values if hasattr(field, "values") else np.asarray(field)
    if values.ndim != 2 or len(values) == 0:
        raise InvalidArgumentError("field must be a non-empty (N, n) matrix")
    return values


def agglomerative_cluster(field, target_k: int = None,
                          height_threshold: float = None) -> Segmentation:
    """Bottom-up average-linkage clustering on cosine distance.

    Stops at target_k clusters, or cuts the tree at height_threshold
    (cosine distance in [0, 2]).  Exactly one of the two must be given.
    """
    values = _feature_values(field)
    n = len(values)
    if (target_k is None) == (height_threshold is None):
        raise InvalidArgumentError("give exactly one of target_k / height_threshold")
    if target_k is not None and not 1 <= target_k <= n:
        raise InvalidArgumentError(f"target_k must be in [1, {n}]")
    if height_threshold is not None and not 0.0 <= height_threshold <= 2.0:
        raise InvalidArgumentError("height_threshold must be in [0, 2]")
    if n == 1:
        return Segmentation(np.zeros(1, dtype=np.int64), 1, np.empty((0, 4)))
    dist = np.clip(1.0 - values @ values.T, 0.0, 2.0)
    np.fill_diagonal(dist, 0.0)
    Z = linkage(squareform(dist, checks=False), method="average")
    if target_k is not None:
        flat = fcluster(Z, t=target_k, criterion="maxclust")
    else:
        flat = fcluster(Z, t=height_threshold, criterion="distance")
    # renumber clusters by first appearance for determinism
    _, first, labels = np.unique(flat, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))
    return Segmentation(rank[labels].astype(np.int64), len(first), Z)


def match_miou(pred, gt_labels) -> float:
    """Best-assignment mean IoU between predicted clusters and ground
    truth parts; a part left without a cluster scores 0."""
    pred_labels = pred.labels if isinstance(pred, Segmentation) else np.asarray(pred)
    gt_labels = np.asarray(gt_labels)
    if len(pred_labels) != len(gt_labels):
        raise InvalidArgumentError("prediction and ground truth must align")
    clusters = np.unique(pred_labels)
    parts = np.unique(gt_labels)
    iou = np.zeros((len(clusters), len(parts)))
    for a, c in enumerate(clusters):
        pc = pred_labels == c
        for b, p in enumerate(parts):
            gp = gt_labels == p
            union = np.logical_or(pc, gp).sum()
            iou[a, b] = np.logical_and(pc, gp).sum() / union if union else 0.0
    # imported here: scipy.optimize adds ~11 MB of peak RSS to every
    # process that imports the package, most of which never score mIoU
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(iou, maximize=True)
    # summed in row order one float at a time, the order of the
    # exhaustive-search oracle in the tests
    return float(sum(iou[rows, cols]) / len(parts))


@dataclass
class Correspondence:
    mapping: np.ndarray     # for each A row, an index into B


def nn_correspondence(field_a, field_b) -> Correspondence:
    """For each A row, the B row with the largest dot product; ties go
    to the lowest B index (argmax convention)."""
    a = _feature_values(field_a)
    b = _feature_values(field_b)
    if a.shape[1] != b.shape[1]:
        raise InvalidArgumentError("feature dims must match")
    return Correspondence(np.argmax(a @ b.T, axis=1).astype(np.int64))


def correspondence_part_accuracy(corr: Correspondence, labels_a,
                                 labels_b) -> float:
    """Fraction of A points mapped to a B point of the same part."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    if len(corr.mapping) != len(labels_a):
        raise InvalidArgumentError("correspondence must align with labels_a")
    if corr.mapping.max() >= len(labels_b):
        raise InvalidArgumentError("correspondence indexes past labels_b")
    return float(np.mean(labels_a == labels_b[corr.mapping]))


def pca_colorize(field) -> np.ndarray:
    """RGB in [0,1] from the top-3 principal components of the field.

    Each channel is min-max normalized; zero-variance (rank-deficient)
    channels fill with 0.5.
    """
    values = _feature_values(field)
    centered = values - values.mean(axis=0)
    # SVD of the centered rows: columns of V are principal directions
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    rgb = np.full((len(values), 3), 0.5)
    for c in range(min(3, vt.shape[0])):
        if s[c] <= 1e-12 * max(1.0, s[0]):
            continue
        proj = centered @ vt[c]
        lo, hi = proj.min(), proj.max()
        if hi - lo > 0:
            rgb[:, c] = (proj - lo) / (hi - lo)
    return rgb
