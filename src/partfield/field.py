"""The per-point refinement network, its trainer, and field statistics.

The network is the softplus MLP of `nn` applied independently to each
descriptor row, followed by row L2 normalization onto the unit sphere.
Training runs minibatch Adam on the contrastive objective; `backward`
chains the loss gradient through the normalization Jacobian by hand and
hands the rest to `nn.mlp_backward` (no autodiff framework).

`depth` counts hidden layers; it is the capacity knob exposed for
ablation studies.  The parameters record the descriptor `k_neighbors`
the net was trained on, and its checkpoint keeps it, so whoever loads a
field computes its input descriptors the same way.
"""

import csv
import hashlib
from dataclasses import dataclass, field as dc_field

import numpy as np

from .descriptors import D_IN, DEFAULT_K_NEIGHBORS, extract_descriptors
from .errors import FormatError, InvalidArgumentError, NumericalError
from .losses import (LabeledFeatureBatch, LossConfig, loss_gradients,
                     part_pools, sample_batch_indices)
from .nn import Adam, mlp_backward, mlp_forward
from .rng import rng_from
from .serialize import checked_meta, load_arrays, mlp_layers, save_arrays

FIELD_MAGIC = b"PFF1"


@dataclass
class RefineNetParams:
    """Weights/biases of the d_in -> hidden x depth -> n stack, plus the
    descriptor k the net reads."""

    weights: list   # [(W, b), ...], depth+1 linear layers
    d_in: int
    hidden: int
    depth: int
    n: int
    seed: int
    k_neighbors: int

    def copy(self) -> "RefineNetParams":
        return RefineNetParams([(W.copy(), b.copy()) for W, b in self.weights],
                               self.d_in, self.hidden, self.depth, self.n,
                               self.seed, self.k_neighbors)

    def flat(self) -> np.ndarray:
        return np.concatenate([a.ravel() for W, b in self.weights for a in (W, b)])

    def n_params(self) -> int:
        return sum(W.size + b.size for W, b in self.weights)

    def sha256(self) -> str:
        """Hex digest of the weight arrays: names this net in the
        checkpoint of a policy trained on its features."""
        return hashlib.sha256(self.flat().tobytes()).hexdigest()


@dataclass
class FeatureField:
    """Unit-norm per-point embeddings, row-aligned with a source cloud."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def init_refine_net(d_in: int = D_IN, hidden: int = 64, depth: int = 2,
                    n: int = 32, seed: int = 0) -> RefineNetParams:
    """Seeded scaled-Gaussian (1/sqrt(fan_in)) initialization, tagged with
    the default descriptor k (train_field records the k it trains on)."""
    if min(d_in, hidden, depth, n) < 1:
        raise InvalidArgumentError("all dims must be >= 1")
    rng = rng_from(seed, "refine-init")
    dims = [d_in] + [hidden] * depth + [n]
    weights = []
    for i in range(len(dims) - 1):
        W = rng.standard_normal((dims[i], dims[i + 1])) / np.sqrt(dims[i])
        b = np.zeros(dims[i + 1])
        weights.append((W, b))
    return RefineNetParams(weights, d_in, hidden, depth, n, seed,
                           DEFAULT_K_NEIGHBORS)


def normalize_rows(y: np.ndarray):
    """Unit rows plus the norms and nonzero mask the backward pass needs;
    a zero row maps to the fixed fallback e1, a NaN row stays NaN."""
    norms = np.linalg.norm(y, axis=1)
    ok = norms != 0.0
    f = np.empty_like(y)
    f[ok] = y[ok] / norms[ok, None]
    if not np.all(ok):
        f[~ok] = 0.0
        f[~ok, 0] = 1.0
    return f, norms, ok


def forward(params: RefineNetParams, desc: np.ndarray) -> FeatureField:
    """Apply the net per point and L2-normalize each row."""
    desc = np.asarray(desc, dtype=np.float64)
    if desc.ndim != 2 or desc.shape[1] != params.d_in:
        raise InvalidArgumentError(
            f"descriptor width {desc.shape[-1]} != d_in {params.d_in}")
    y, _ = mlp_forward(params.weights, desc)
    return FeatureField(normalize_rows(y)[0])


def backward(params: RefineNetParams, desc: np.ndarray, grad_f: np.ndarray):
    """Parameter gradients of a scalar loss given dL/d(normalized rows).

    Chains through the normalization Jacobian (I - f f^T)/|y| and the
    softplus stack.  Returns gradients shaped like params.weights.
    """
    y, acts = mlp_forward(params.weights, desc)
    f, norms, ok = normalize_rows(y)
    g = np.zeros_like(y)
    g[ok] = (grad_f[ok] - (np.sum(grad_f[ok] * f[ok], axis=1, keepdims=True)
                           * f[ok])) / norms[ok, None]
    return mlp_backward(params.weights, acts, g)[0]


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainConfig:
    steps: int = 600
    learning_rate: float = 1e-3
    points_per_part: int = 16
    instances_per_batch: int = 4
    loss: LossConfig = dc_field(default_factory=LossConfig)
    seed: int = 0
    hidden: int = 64
    depth: int = 2
    n_dim: int = 32
    k_neighbors: int = DEFAULT_K_NEIGHBORS

    def __post_init__(self):
        if self.steps < 1 or self.learning_rate <= 0:
            raise InvalidArgumentError("steps and learning rate must be positive")


def train_field(clouds, codebooks: dict, config: TrainConfig,
                descriptors=None):
    """Minibatch Adam on the contrastive objective.

    Returns (params, log) where log is a list of dicts with per-step
    loss terms (disabled terms stay None).  Descriptors may be passed
    precomputed (row-aligned with clouds, at config.k_neighbors);
    otherwise they are extracted once here.  Non-finite features or
    losses raise NumericalError before that step's update.
    """
    if not clouds:
        raise InvalidArgumentError("dataset must be non-empty")
    categories = sorted({c.category for c in clouds})
    for cat in categories:
        if cat not in codebooks:
            raise InvalidArgumentError(f"no codebook for category {cat!r}")
    if descriptors is None:
        descriptors = [extract_descriptors(c, config.k_neighbors) for c in clouds]
    params = init_refine_net(D_IN, config.hidden, config.depth,
                             config.n_dim, config.seed)
    params.k_neighbors = config.k_neighbors
    tensors = [a for W, b in params.weights for a in (W, b)]
    opt = Adam([a.shape for a in tensors], config.learning_rate)
    pools = {cat: part_pools(clouds, cat) for cat in categories}
    history = []
    for step in range(config.steps):
        category = categories[step % len(categories)]
        idx = sample_batch_indices(pools[category], config.points_per_part,
                                   config.instances_per_batch,
                                   config.seed, tags=("step", step))
        desc = np.empty((len(idx.labels), descriptors[0].shape[1]))
        for c in np.unique(idx.cloud_indices):
            rows = idx.cloud_indices == c
            desc[rows] = descriptors[c][idx.point_indices[rows]]
        ff = forward(params, desc)
        if not np.all(np.isfinite(ff.values)):
            raise _diverged(f"non-finite features at step {step}", step, params)
        batch = LabeledFeatureBatch(ff.values, idx.labels, category)
        l_geo, l_sem, grad_f = loss_gradients(batch, codebooks[category],
                                              config.loss)
        total = (l_geo or 0.0) + (l_sem or 0.0)
        if not np.isfinite(total):
            raise _diverged(f"non-finite loss at step {step}", step, params)
        grads = backward(params, desc, grad_f)
        opt.step(tensors, [a for W, b in grads for a in (W, b)])
        history.append({"step": step, "L_geo": l_geo, "L_sem": l_sem,
                        "total": total})
    return params, history


def _diverged(message: str, step: int, params: RefineNetParams):
    err = NumericalError(message)
    err.step = step
    err.params = params.copy()
    return err


def write_training_log(path, history) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "L_geo", "L_sem", "total"])
        for row in history:
            writer.writerow([row["step"],
                             "" if row["L_geo"] is None else repr(row["L_geo"]),
                             "" if row["L_sem"] is None else repr(row["L_sem"]),
                             repr(row["total"])])


# ---------------------------------------------------------------------------
# statistics

@dataclass
class SimilarityStats:
    intra: float
    inter: float  # None when only one part is present


def part_similarity_stats(field: FeatureField, labels,
                          max_pairs: int = 1_000_000,
                          seed: int = 0) -> SimilarityStats:
    """Mean same-part and cross-part cosine over (subsampled) pairs."""
    values = field.values if isinstance(field, FeatureField) else np.asarray(field)
    labels = np.asarray(labels)
    if len(labels) != len(values):
        raise InvalidArgumentError("labels must align with field rows")
    n = len(values)
    total_pairs = n * (n - 1) // 2
    if total_pairs <= max_pairs:
        iu, ju = np.triu_indices(n, k=1)
    else:
        rng = rng_from(seed, "simstats")
        iu = rng.integers(0, n, size=max_pairs)
        ju = rng.integers(0, n - 1, size=max_pairs)
        ju = np.where(ju >= iu, ju + 1, ju)  # avoid i == j
    cos = np.sum(values[iu] * values[ju], axis=1)
    same = labels[iu] == labels[ju]
    intra = float(cos[same].mean()) if np.any(same) else float("nan")
    inter = float(cos[~same].mean()) if np.any(~same) else None
    return SimilarityStats(intra, inter)


# ---------------------------------------------------------------------------
# checkpoints

_META_KEYS = ("d_in", "hidden", "depth", "n", "seed", "k_neighbors")


def save_field_checkpoint(path, params: RefineNetParams) -> None:
    meta = {key: getattr(params, key) for key in _META_KEYS}
    arrays = [a for W, b in params.weights for a in (W, b)]
    save_arrays(path, FIELD_MAGIC, meta, arrays)


def load_field_checkpoint(path) -> RefineNetParams:
    """Params of a saved field; FormatError when the meta lacks a key or
    disagrees with the stored layer shapes."""
    meta, arrays = load_arrays(path, FIELD_MAGIC)
    meta = checked_meta(meta, dict.fromkeys(_META_KEYS, int))
    if min(meta["d_in"], meta["hidden"], meta["depth"], meta["n"]) < 1 \
            or meta["k_neighbors"] < 3:
        raise FormatError(f"checkpoint meta out of range: {meta}")
    widths = [meta["d_in"]] + [meta["hidden"]] * meta["depth"] + [meta["n"]]
    return RefineNetParams(mlp_layers(arrays, widths),
                           **{key: meta[key] for key in _META_KEYS})
