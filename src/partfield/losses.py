"""Supervised-contrastive geometric loss, codebook-alignment semantic
loss, and balanced batch construction.

Both losses operate on unit-norm feature rows.  The geometric loss pulls
same-part features together and pushes cross-part features apart; the
semantic loss is a cross-entropy over similarities to the fixed per-part
codebook vectors.  Anchors whose part appears only once in the batch
contribute zero to the geometric loss (the standard SupCon convention,
which avoids the 1/(N_a - 1) division by zero).

Each loss returns its value and its analytic gradient with respect to
the feature rows from one evaluation.  `loss_gradients` is the single
entry point of training: it runs the enabled terms and sums their
gradients.

All log-sum-exp computations subtract the row max first, so temperatures
down to 0.01 stay finite.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .codebook import PartNameCodebook
from .errors import InvalidArgumentError
from .rng import rng_from

log = logging.getLogger(__name__)


@dataclass
class LossConfig:
    tau_geo: float = 0.1
    tau_sem: float = 0.1
    enable_geo: bool = True
    enable_sem: bool = True

    def __post_init__(self):
        if self.tau_geo <= 0 or self.tau_sem <= 0:
            raise InvalidArgumentError("temperatures must be positive")


@dataclass
class LabeledFeatureBatch:
    """Unit-norm feature rows with part labels.

    labels index the name-sorted part vocabulary of `category` (i.e. the
    codebook row order), so they are shared identities across instances.
    """

    features: np.ndarray
    labels: np.ndarray
    category: str = ""

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.features) != len(self.labels):
            raise InvalidArgumentError("features and labels must align")
        norms = np.linalg.norm(self.features, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise InvalidArgumentError("feature rows must be unit norm within 1e-9")


def geometric_loss(batch: LabeledFeatureBatch,
                   tau: float) -> tuple[float, np.ndarray]:
    """Exact supervised-contrastive loss over the batch at temperature tau
    and its gradient d/d(features), rows treated as free vectors.

    The loss sums, over anchors with at least one same-label partner, the
    average -log softmax(f_i . f_j / tau) over that anchor's positives.
    """
    if tau <= 0:
        raise InvalidArgumentError("tau must be positive")
    features, labels = batch.features, batch.labels
    n = len(features)
    if n < 2:
        return 0.0, np.zeros_like(features)
    scores = (features @ features.T) / tau
    off_diag = ~np.eye(n, dtype=bool)
    pos = (labels[:, None] == labels[None, :]) & off_diag
    n_pos = pos.sum(axis=1)
    anchors = n_pos > 0
    if not np.any(anchors):
        log.warning("geometric_loss: every anchor is a singleton; returning 0")
        return 0.0, np.zeros_like(features)
    # softmax over k != i: push the diagonal to -inf before the max trick
    masked = np.where(off_diag, scores, -np.inf)
    m = masked.max(axis=1)
    logz = m + np.log(np.exp(masked - m[:, None]).sum(axis=1))
    per_anchor = np.where(
        anchors,
        -(np.where(pos, scores - logz[:, None], 0.0).sum(axis=1))
        / np.maximum(n_pos, 1),
        0.0,
    )
    q = np.exp(masked - logz[:, None])
    # dL/dS_ij for i != j: softmax weight minus the positive-average weight
    w = np.where(anchors[:, None], q - pos / np.maximum(n_pos, 1)[:, None], 0.0)
    return float(per_anchor.sum()), (w @ features + w.T @ features) / tau


def semantic_loss(batch: LabeledFeatureBatch, codebook: PartNameCodebook,
                  tau: float) -> tuple[float, np.ndarray]:
    """Cross-entropy of f_i against its part's codebook vector at
    temperature tau, summed over the batch, and its gradient
    d/d(features)."""
    if tau <= 0:
        raise InvalidArgumentError("tau must be positive")
    if batch.labels.size and batch.labels.max() >= len(codebook.names):
        raise InvalidArgumentError("label index exceeds codebook size")
    scores = (batch.features @ codebook.vectors.T) / tau
    m = scores.max(axis=1, keepdims=True)
    p = np.exp(scores - m)
    z = p.sum(axis=1, keepdims=True)
    rows = np.arange(len(scores))
    loss = float(np.sum(m[:, 0] + np.log(z[:, 0]) - scores[rows, batch.labels]))
    p /= z
    p[rows, batch.labels] -= 1.0
    return loss, (p @ codebook.vectors) / tau


def loss_gradients(batch: LabeledFeatureBatch, codebook: PartNameCodebook,
                   config: LossConfig):
    """(L_geo, L_sem, grad): each enabled term from one evaluation, a
    disabled one None, and grad = d(L_geo + L_sem)/d(features).  The
    caller applies the normalization Jacobian when chaining into a
    network."""
    if not (config.enable_geo or config.enable_sem):
        raise InvalidArgumentError("at least one loss term must be enabled")
    l_geo = l_sem = None
    grad = np.zeros_like(batch.features)
    if config.enable_geo:
        l_geo, g = geometric_loss(batch, config.tau_geo)
        grad += g
    if config.enable_sem:
        l_sem, g = semantic_loss(batch, codebook, config.tau_sem)
        grad += g
    return l_geo, l_sem, grad


# ---------------------------------------------------------------------------
# batch construction

@dataclass
class BatchIndex:
    """Point addresses of a batch: which cloud, which point, which label
    (index into the name-sorted category vocabulary)."""

    cloud_indices: np.ndarray
    point_indices: np.ndarray
    labels: np.ndarray
    category: str = ""


def sample_batch_indices(clouds, category: str, points_per_part: int,
                         instances_per_batch: int, seed: int,
                         tags=()) -> BatchIndex:
    """Balanced sampling: from each selected instance of `category`, up
    to points_per_part points per part name.  Parts absent from an
    instance contribute nothing (logged at debug level)."""
    pool = [i for i, c in enumerate(clouds) if c.category == category]
    if len(pool) < instances_per_batch:
        raise InvalidArgumentError(
            f"dataset holds {len(pool)} clouds of {category!r}, "
            f"need {instances_per_batch}")
    rng = rng_from(seed, "batch", category, *tags)
    chosen = rng.choice(len(pool), size=instances_per_batch, replace=False)
    sorted_names = sorted(clouds[pool[0]].part_names)
    ci, pi, lab = [], [], []
    for j in chosen:
        cloud = clouds[pool[j]]
        name_of = {k: name for k, name in enumerate(cloud.part_names)}
        for li, name in enumerate(sorted_names):
            raw = [k for k in range(len(cloud.part_names)) if name_of[k] == name]
            mask = np.isin(cloud.labels, raw)
            idx = np.flatnonzero(mask)
            if idx.size == 0:
                log.debug("part %r absent from cloud seed=%d", name, cloud.seed)
                continue
            take = min(points_per_part, idx.size)
            picked = rng.choice(idx, size=take, replace=False)
            ci.extend([pool[j]] * take)
            pi.extend(picked.tolist())
            lab.extend([li] * take)
    return BatchIndex(np.array(ci, dtype=np.int64), np.array(pi, dtype=np.int64),
                      np.array(lab, dtype=np.int64), category)

