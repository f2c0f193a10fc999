import math

import numpy as np
import pytest

from partfield.codebook import build_codebook
from partfield.errors import InvalidArgumentError
from partfield.losses import (LabeledFeatureBatch, LossConfig,
                              geometric_loss, loss_gradients, part_pools,
                              sample_batch_indices, semantic_loss)
from partfield.geometry import generate_object


def _unit_rows(rng, n, d):
    f = rng.standard_normal((n, d))
    return f / np.linalg.norm(f, axis=1, keepdims=True)


def _geo_oracle(features, labels, tau):
    """Triple-loop transcription of the supervised contrastive sum."""
    n = len(features)
    total = 0.0
    for i in range(n):
        pos = [j for j in range(n) if j != i and labels[j] == labels[i]]
        if not pos:
            continue
        denom = sum(math.exp(features[i] @ features[k] / tau)
                    for k in range(n) if k != i)
        for j in pos:
            total += -math.log(math.exp(features[i] @ features[j] / tau)
                               / denom) / len(pos)
    return total


def _softmax_weight(features, i, k, tau):
    """softmax over j != i of f_i . f_j / tau, at j = k."""
    denom = sum(math.exp(features[i] @ features[j] / tau)
                for j in range(len(features)) if j != i)
    return math.exp(features[i] @ features[k] / tau) / denom


def _sem_oracle(features, labels, vectors, tau):
    total = 0.0
    for i in range(len(features)):
        denom = sum(math.exp(features[i] @ v / tau) for v in vectors)
        total += -math.log(math.exp(features[i] @ vectors[labels[i]] / tau)
                           / denom)
    return total


def test_geometric_loss_matches_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(4, 20))
        f = _unit_rows(rng, n, 6)
        labels = rng.integers(0, 3, size=n)
        batch = LabeledFeatureBatch(f, labels)
        tau = float(rng.uniform(0.05, 1.0))
        assert abs(geometric_loss(batch, tau)[0]
                   - _geo_oracle(f, labels, tau)) < 1e-10


def test_semantic_loss_matches_oracle():
    rng = np.random.default_rng(1)
    cb = build_codebook(["a", "b", "c"], 6, 0)
    for trial in range(20):
        n = int(rng.integers(2, 20))
        f = _unit_rows(rng, n, 6)
        labels = rng.integers(0, 3, size=n)
        batch = LabeledFeatureBatch(f, labels)
        tau = float(rng.uniform(0.05, 1.0))
        assert abs(semantic_loss(batch, cb, tau)[0]
                   - _sem_oracle(f, labels, cb.vectors, tau)) < 1e-10


def test_all_singletons_is_zero():
    rng = np.random.default_rng(2)
    f = _unit_rows(rng, 4, 6)
    batch = LabeledFeatureBatch(f, np.arange(4))
    loss, grad = geometric_loss(batch, 0.1)
    assert loss == 0.0
    np.testing.assert_array_equal(grad, np.zeros_like(f))


def test_tiny_batches():
    rng = np.random.default_rng(3)
    f = _unit_rows(rng, 1, 6)
    batch = LabeledFeatureBatch(f, np.zeros(1, dtype=int))
    assert geometric_loss(batch, 0.1)[0] == 0.0


def test_mixed_singletons_contribute_zero():
    # adding a singleton anchor must only extend existing denominators
    rng = np.random.default_rng(4)
    f = _unit_rows(rng, 5, 6)
    labels = np.array([0, 0, 1, 1, 2])
    loss = geometric_loss(LabeledFeatureBatch(f, labels), 0.2)[0]
    assert abs(loss - _geo_oracle(f, labels, 0.2)) < 1e-10


def test_geometric_grad_matches_fd():
    rng = np.random.default_rng(5)
    f = _unit_rows(rng, 8, 5)
    labels = rng.integers(0, 2, size=8)
    batch = LabeledFeatureBatch(f, labels)
    grad = geometric_loss(batch, 0.3)[1]
    h = 1e-6
    for (i, j) in [(0, 0), (3, 2), (7, 4)]:
        fp, fm = f.copy(), f.copy()
        fp[i, j] += h
        fm[i, j] -= h
        # bypass unit-norm validation: evaluate the raw math directly
        lp = _geo_oracle(fp, labels, 0.3)
        lm = _geo_oracle(fm, labels, 0.3)
        assert abs(grad[i, j] - (lp - lm) / (2 * h)) < 1e-5


@pytest.mark.parametrize("tau", [0.01, 1.0])
def test_geometric_loss_with_singleton_anchors(tau):
    rng = np.random.default_rng(10)
    f = _unit_rows(rng, 9, 5)
    labels = np.array([0, 3, 0, 1, 1, 4, 1, 2, 0])   # 2, 3, 4 are singletons
    loss, grad = geometric_loss(LabeledFeatureBatch(f, labels), tau)
    oracle = _geo_oracle(f, labels, tau)
    assert abs(loss - oracle) <= 1e-12 * max(1.0, abs(oracle))
    h = 1e-6
    for i in range(len(f)):
        for j in range(f.shape[1]):
            fp, fm = f.copy(), f.copy()
            fp[i, j] += h
            fm[i, j] -= h
            fd = (_geo_oracle(fp, labels, tau) - _geo_oracle(fm, labels, tau)) / (2 * h)
            assert abs(grad[i, j] - fd) <= 1e-5 * max(1.0, abs(fd))
    # a singleton's own row of dL/dS is zero: it reaches the loss only
    # through the softmax denominators of the anchors that have positives
    anchors = [i for i in range(len(f)) if np.sum(labels == labels[i]) > 1]
    for s in range(len(f)):
        if s in anchors:
            continue
        expected = sum(_softmax_weight(f, i, s, tau) * f[i] for i in anchors) / tau
        np.testing.assert_allclose(grad[s], expected, rtol=1e-12, atol=1e-12)


def test_semantic_grad_matches_fd():
    rng = np.random.default_rng(6)
    cb = build_codebook(["a", "b"], 5, 0)
    f = _unit_rows(rng, 6, 5)
    labels = rng.integers(0, 2, size=6)
    batch = LabeledFeatureBatch(f, labels)
    grad = semantic_loss(batch, cb, 0.4)[1]
    h = 1e-6
    for (i, j) in [(0, 0), (5, 4)]:
        fp, fm = f.copy(), f.copy()
        fp[i, j] += h
        fm[i, j] -= h
        lp = _sem_oracle(fp, labels, cb.vectors, 0.4)
        lm = _sem_oracle(fm, labels, cb.vectors, 0.4)
        assert abs(grad[i, j] - (lp - lm) / (2 * h)) < 1e-5


def test_small_temperature_stays_finite():
    rng = np.random.default_rng(7)
    f = _unit_rows(rng, 10, 6)
    labels = rng.integers(0, 2, size=10)
    batch = LabeledFeatureBatch(f, labels)
    cb = build_codebook(["a", "b"], 6, 0)
    assert np.isfinite(geometric_loss(batch, 0.01)[0])
    assert np.isfinite(semantic_loss(batch, cb, 0.01)[0])
    assert np.all(np.isfinite(loss_gradients(batch, cb, LossConfig(0.01, 0.01))[2]))


def test_loss_gradients_ablation_flags():
    rng = np.random.default_rng(8)
    f = _unit_rows(rng, 6, 6)
    labels = rng.integers(0, 2, size=6)
    batch = LabeledFeatureBatch(f, labels)
    cb = build_codebook(["a", "b"], 6, 0)
    g, g_grad = geometric_loss(batch, 0.1)
    s, s_grad = semantic_loss(batch, cb, 0.1)
    l_geo, l_sem, grad = loss_gradients(batch, cb, LossConfig(0.1, 0.1))
    assert (l_geo, l_sem) == (g, s)
    np.testing.assert_array_equal(grad, g_grad + s_grad)
    l_geo, l_sem, grad = loss_gradients(batch, cb,
                                        LossConfig(0.1, 0.1, enable_sem=False))
    assert (l_geo, l_sem) == (g, None)
    np.testing.assert_array_equal(grad, g_grad)
    l_geo, l_sem, grad = loss_gradients(batch, cb,
                                        LossConfig(0.1, 0.1, enable_geo=False))
    assert (l_geo, l_sem) == (None, s)
    np.testing.assert_array_equal(grad, s_grad)
    with pytest.raises(InvalidArgumentError):
        loss_gradients(batch, cb, LossConfig(0.1, 0.1, False, False))


def test_batch_validation():
    with pytest.raises(InvalidArgumentError):
        LabeledFeatureBatch(np.ones((3, 4)), np.zeros(3, dtype=int))
    with pytest.raises(InvalidArgumentError):
        LabeledFeatureBatch(np.eye(3), np.zeros(2, dtype=int))
    with pytest.raises(InvalidArgumentError):
        LossConfig(tau_geo=-1.0)
    nan_row = np.eye(3)
    nan_row[1] = np.nan
    with pytest.raises(InvalidArgumentError):
        LabeledFeatureBatch(nan_row, np.zeros(3, dtype=int))


def test_sample_batch_indices_balanced_and_deterministic():
    clouds = [generate_object("pot_with_handle", i, 400) for i in range(6)]
    pools = part_pools(clouds, "pot_with_handle")
    idx = sample_batch_indices(pools, 8, 3, seed=0)
    idx2 = sample_batch_indices(pools, 8, 3, seed=0)
    np.testing.assert_array_equal(idx.point_indices, idx2.point_indices)
    np.testing.assert_array_equal(idx.cloud_indices, idx2.cloud_indices)
    # 3 instances x 3 parts x 8 points, all parts populated at N=400
    assert len(idx.labels) == 3 * 3 * 8
    for lab in range(3):
        assert np.sum(idx.labels == lab) == 3 * 8
    assert len(np.unique(idx.cloud_indices)) == 3


def test_sample_batch_indices_rejects_small_pool():
    clouds = [generate_object("pot_with_handle", i, 100) for i in range(2)]
    with pytest.raises(InvalidArgumentError):
        sample_batch_indices(part_pools(clouds, "pot_with_handle"), 8, 3,
                             seed=0)

