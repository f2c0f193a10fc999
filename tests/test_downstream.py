import itertools

import numpy as np
import pytest

from partfield.downstream import (Correspondence, Segmentation,
                                  agglomerative_cluster,
                                  correspondence_part_accuracy, match_miou,
                                  nn_correspondence, pca_colorize)
from partfield.errors import InvalidArgumentError
from partfield.field import FeatureField


def _unit_rows(rng, n, d):
    f = rng.standard_normal((n, d))
    return f / np.linalg.norm(f, axis=1, keepdims=True)


def _average_linkage_oracle(values, target_k):
    """O(N^3) textbook agglomeration on cosine distance."""
    n = len(values)
    dist = np.clip(1.0 - values @ values.T, 0.0, 2.0)
    clusters = [[i] for i in range(n)]
    while len(clusters) > target_k:
        best = (np.inf, None, None)
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = np.mean([dist[i, j] for i in clusters[a]
                             for j in clusters[b]])
                if d < best[0]:
                    best = (d, a, b)
        _, a, b = best
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    labels = np.empty(n, dtype=np.int64)
    for c, members in enumerate(clusters):
        labels[members] = c
    return labels


def _same_partition(a, b):
    mapping = {}
    for x, y in zip(a, b):
        if x in mapping and mapping[x] != y:
            return False
        mapping[x] = y
    return len(set(mapping.values())) == len(mapping)


def test_clustering_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for trial in range(5):
        values = _unit_rows(rng, 24, 5)
        k = int(rng.integers(2, 6))
        got = agglomerative_cluster(FeatureField(values), target_k=k)
        expected = _average_linkage_oracle(values, k)
        assert got.num_clusters == k
        assert _same_partition(got.labels, expected)


def test_clustering_separates_obvious_clusters():
    rng = np.random.default_rng(1)
    centers = np.eye(3)
    values, gt = [], []
    for c in range(3):
        pts = centers[c] + 0.01 * rng.standard_normal((20, 3))
        values.append(pts / np.linalg.norm(pts, axis=1, keepdims=True))
        gt.extend([c] * 20)
    values = np.vstack(values)
    seg = agglomerative_cluster(FeatureField(values), target_k=3)
    assert match_miou(seg, np.array(gt)) == pytest.approx(1.0)


def test_clustering_height_threshold():
    values = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    seg = agglomerative_cluster(FeatureField(values), height_threshold=0.5)
    assert seg.num_clusters == 2
    seg_all = agglomerative_cluster(FeatureField(values), height_threshold=2.0)
    assert seg_all.num_clusters == 1


def test_clustering_label_renumbering_deterministic():
    rng = np.random.default_rng(2)
    values = _unit_rows(rng, 30, 4)
    for cut in ({"target_k": 4}, {"height_threshold": 0.5}):
        a = agglomerative_cluster(FeatureField(values), **cut)
        b = agglomerative_cluster(FeatureField(values), **cut)
        np.testing.assert_array_equal(a.labels, b.labels)
        # clusters are numbered 0, 1, 2, ... in order of first appearance
        seen = []
        for label in a.labels.tolist():
            if label not in seen:
                seen.append(label)
        assert a.num_clusters > 1
        assert seen == list(range(a.num_clusters)), cut


def test_clustering_argument_validation():
    values = np.eye(3)
    with pytest.raises(InvalidArgumentError):
        agglomerative_cluster(FeatureField(values))
    with pytest.raises(InvalidArgumentError):
        agglomerative_cluster(FeatureField(values), target_k=2,
                              height_threshold=0.1)
    with pytest.raises(InvalidArgumentError):
        agglomerative_cluster(FeatureField(values), target_k=9)
    with pytest.raises(InvalidArgumentError):
        agglomerative_cluster(FeatureField(np.zeros((0, 3))), target_k=1)


def test_match_miou_hand_case():
    # clusters exactly equal to parts
    gt = np.array([0, 0, 1, 1])
    assert match_miou(np.array([1, 1, 0, 0]), gt) == pytest.approx(1.0)
    # one point swapped: IoUs are 1/3 and 1/3 -> mean 1/3
    assert match_miou(np.array([0, 1, 0, 1]), gt) == pytest.approx(1.0 / 3.0)


def test_match_miou_padding_cases():
    gt = np.array([0, 0, 1, 1, 2, 2])
    # fewer clusters than parts: the missing part scores zero
    pred = np.array([0, 0, 1, 1, 1, 1])
    expected = (1.0 + 0.5 + 0.0) / 3.0
    assert match_miou(pred, gt) == pytest.approx(expected)
    # more clusters than parts: extras are simply unmatched
    pred2 = np.array([0, 3, 1, 1, 2, 2])
    assert match_miou(pred2, gt) == pytest.approx((0.5 + 1.0 + 1.0) / 3.0)


def test_match_miou_relabel_invariance():
    rng = np.random.default_rng(3)
    gt = rng.integers(0, 3, 40)
    pred = rng.integers(0, 3, 40)
    relabeled = (pred + 1) % 3
    assert match_miou(pred, gt) == pytest.approx(match_miou(relabeled, gt))


def _match_miou_oracle(pred, gt):
    """Exhaustive search: every injective cluster-to-part assignment of
    the zero-padded square IoU matrix, summed in row order."""
    clusters, parts = np.unique(pred), np.unique(gt)
    k = max(len(clusters), len(parts))
    iou = np.zeros((k, k))
    for a, c in enumerate(clusters):
        for b, p in enumerate(parts):
            inter = np.sum((pred == c) & (gt == p))
            iou[a, b] = inter / np.sum((pred == c) | (gt == p))
    best = max(sum(iou[i, perm[i]] for i in range(k))
               for perm in itertools.permutations(range(k)))
    return float(best / len(parts))


def test_match_miou_equals_exhaustive_search():
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = int(rng.integers(1, 80))
        pred = rng.integers(0, rng.integers(1, 8), n)
        gt = rng.integers(0, rng.integers(1, 8), n)
        # when optimal assignments tie, the search keeps the largest of
        # their rounded sums, which may differ from the Hungarian one's
        # in the last bits
        assert match_miou(pred, gt) == pytest.approx(
            _match_miou_oracle(pred, gt), rel=0, abs=1e-15)


def test_match_miou_nine_clusters():
    gt = np.repeat(np.arange(9), 3)
    assert match_miou((4 * gt + 1) % 9, gt) == 1.0
    # 27 singleton clusters: each part keeps one of its three points
    assert match_miou(np.arange(27), gt) == pytest.approx(1.0 / 3.0)


def test_nn_correspondence_and_accuracy():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0], [0.7, 0.7]])
    corr = nn_correspondence(FeatureField(a), FeatureField(b))
    np.testing.assert_array_equal(corr.mapping, [1, 0])
    acc = correspondence_part_accuracy(corr, [0, 1], [1, 0, 0])
    assert acc == pytest.approx(1.0)
    acc2 = correspondence_part_accuracy(corr, [0, 1], [0, 0, 1])
    assert acc2 == pytest.approx(0.5)


def test_nn_correspondence_tie_breaks_low_index():
    a = np.array([[1.0, 0.0]])
    b = np.array([[1.0, 0.0], [1.0, 0.0]])
    corr = nn_correspondence(FeatureField(a), FeatureField(b))
    assert corr.mapping[0] == 0


def test_correspondence_validation():
    corr = Correspondence(np.array([0, 5]))
    with pytest.raises(InvalidArgumentError):
        correspondence_part_accuracy(corr, [0, 0], [0])
    with pytest.raises(InvalidArgumentError):
        correspondence_part_accuracy(Correspondence(np.array([0])), [0, 1], [0])


def test_pca_colorize_range_and_shape():
    rng = np.random.default_rng(4)
    values = _unit_rows(rng, 50, 8)
    colors = pca_colorize(FeatureField(values))
    assert colors.shape == (50, 3)
    assert np.all(colors >= 0.0) and np.all(colors <= 1.0)
    assert colors.min() == pytest.approx(0.0)
    assert colors.max() == pytest.approx(1.0)


def test_pca_colorize_rank_deficient_fill():
    # all rows identical: every channel is degenerate -> 0.5 fill
    values = np.tile([[0.6, 0.8, 0.0]], (10, 1))
    colors = pca_colorize(FeatureField(values))
    np.testing.assert_allclose(colors, 0.5, atol=1e-12)


def test_pca_colorize_deterministic():
    rng = np.random.default_rng(5)
    values = _unit_rows(rng, 20, 6)
    np.testing.assert_array_equal(pca_colorize(FeatureField(values)),
                                  pca_colorize(FeatureField(values)))
