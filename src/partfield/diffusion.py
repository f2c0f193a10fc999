"""Noise schedules, forward noising, the denoising step, part-query
pooling, the action denoiser network, and its trainer.

Notation note (important): `beta` here plays the signal-retention role
(what much of the DDPM literature calls alpha).  The forward process is

    a_noisy = sqrt(beta_bar^k) * a0 + sqrt(1 - beta_bar^k) * eps

with beta_bar^k the cumulative product of per-step beta and
beta_bar^0 = 1.  gamma^k = 1 - beta^k is the per-step noise variance.
The denoising step consumes a predicted *clean* chunk (x0-prediction):

    a^{k-1} = sqrt(beta_bar^{k-1}) gamma^k / (1 - beta_bar^k) * a0_pred
            + sqrt(beta^k) (1 - beta_bar^{k-1}) / (1 - beta_bar^k) * a^k
            + tau^k * v

At k = 1 the a0 coefficient collapses to 1 and the a^k coefficient to 0,
so the step returns a0_pred exactly (v must be 0 there).  With
tau^k = sqrt(gamma^k (1 - beta_bar^{k-1}) / (1 - beta_bar^k)) the step
is the exact Gaussian posterior mean plus matched noise (the stochastic
"ddpm_posterior" mode); tau^k = 0 gives the deterministic DDIM chain.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidArgumentError, NumericalError
from .field import FeatureField
from .nn import Adam, mlp_backward, mlp_forward
from .rng import rng_from
from .serialize import checked_meta, load_arrays, mlp_layers, save_arrays

ACTION_DIM = 4          # delta-position (m) + gripper scalar
DEFAULT_HORIZON = 16    # action chunk length
DEFAULT_EXECUTE = 8     # actions executed per predicted chunk
T_EMBED_DIM = 16

POLICY_MAGIC = b"PFP1"


@dataclass(frozen=True)
class NoiseSchedule:
    """beta[k-1] = beta^k (signal retention, near 1), gamma = 1 - beta,
    beta_bar[k] = prod_{i<=k} beta^i with beta_bar[0] = 1."""

    beta: np.ndarray
    gamma: np.ndarray
    beta_bar: np.ndarray

    @property
    def K(self) -> int:
        return len(self.beta)


def make_schedule(K: int, kind: str = "linear", lo: float = 1e-4,
                  hi: float = 0.02) -> NoiseSchedule:
    """Schedule with per-step noise gamma interpolated from lo to hi."""
    if K < 1:
        raise InvalidArgumentError("K must be >= 1")
    if not 0.0 < lo <= hi < 1.0:
        raise InvalidArgumentError("need 0 < lo <= hi < 1 on the noise side")
    t = np.linspace(0.0, 1.0, K) if K > 1 else np.zeros(1)
    if kind == "linear":
        gamma = lo + (hi - lo) * t
    elif kind == "cosine":
        gamma = lo + (hi - lo) * 0.5 * (1.0 - np.cos(math.pi * t))
    else:
        raise InvalidArgumentError(f"unknown schedule kind: {kind!r}")
    return _schedule_from_gamma(gamma)


def _schedule_from_gamma(gamma: np.ndarray) -> NoiseSchedule:
    """The one place beta and beta_bar are derived from gamma, so a
    checkpoint that stores gamma rebuilds its schedule bit for bit."""
    beta = 1.0 - gamma
    beta_bar = np.concatenate([[1.0], np.cumprod(beta)])
    return NoiseSchedule(beta, gamma, beta_bar)


def forward_noise(a0: np.ndarray, k: int, eps, schedule: NoiseSchedule) -> np.ndarray:
    """Noised chunk at step k: sqrt(bb^k) a0 + sqrt(1 - bb^k) eps."""
    if not 1 <= k <= schedule.K:
        raise InvalidArgumentError(f"k must be in [1, {schedule.K}], got {k}")
    bb = schedule.beta_bar[k]
    return np.sqrt(bb) * np.asarray(a0) + np.sqrt(1.0 - bb) * np.asarray(eps)


def ddpm_tau(k: int, schedule: NoiseSchedule) -> float:
    """Posterior-matched noise scale; 0 at k = 1 by construction."""
    bb_prev = schedule.beta_bar[k - 1]
    bb = schedule.beta_bar[k]
    return math.sqrt(schedule.gamma[k - 1] * (1.0 - bb_prev) / (1.0 - bb))


def ddim_step(a_k: np.ndarray, a0_pred: np.ndarray, k: int,
              schedule: NoiseSchedule, tau_k: float = 0.0, v=0.0) -> np.ndarray:
    """One denoising step from a^k to a^{k-1} (see module docstring)."""
    if not 1 <= k <= schedule.K:
        raise InvalidArgumentError(f"k must be in [1, {schedule.K}], got {k}")
    if tau_k < 0:
        raise InvalidArgumentError("tau_k must be non-negative")
    bb_prev = schedule.beta_bar[k - 1]
    bb = schedule.beta_bar[k]
    denom = 1.0 - bb
    assert denom > 0.0, "schedule invariant violated: beta_bar not decreasing"
    c0 = math.sqrt(bb_prev) * schedule.gamma[k - 1] / denom
    ck = math.sqrt(schedule.beta[k - 1]) * (1.0 - bb_prev) / denom
    return c0 * np.asarray(a0_pred) + ck * np.asarray(a_k) + tau_k * np.asarray(v)


# ---------------------------------------------------------------------------
# observation encoding

@dataclass
class Observation:
    """Scene observation for the policy.

    field rows are unit-norm features over `points` (the posed scene
    cloud); agent_state is (x, y, z, gripper); part_query is the
    codebook vector of the task-critical part.
    """

    field: FeatureField
    points: np.ndarray
    agent_state: np.ndarray
    part_query: np.ndarray


def pool_with_part_query(field: FeatureField, part_query: np.ndarray,
                         temperature: float = 1.0):
    """Single-query attention pooling over field rows.

    Returns (weights, pooled) with weights = softmax(field . query /
    (sqrt(n) * temperature)); the pooled feature is the convex
    combination w @ rows.
    """
    values = field.values if isinstance(field, FeatureField) else np.asarray(field)
    if len(values) == 0:
        raise InvalidArgumentError("field must be non-empty")
    q = np.asarray(part_query)
    if q.shape != (values.shape[1],):
        raise InvalidArgumentError("query dim must match field dim")
    if temperature <= 0:
        raise InvalidArgumentError("temperature must be positive")
    logits = values @ q / (math.sqrt(values.shape[1]) * temperature)
    logits -= logits.max()
    w = np.exp(logits)
    w /= w.sum()
    return w, w @ values


def encode_observation(obs: Observation, temperature: float) -> np.ndarray:
    """Frozen conditioning vector: the pooled feature in both slots of a
    two-frame history (scenes are static), the attention-weighted scene
    anchor point, the anchor relative to the agent, and agent state.

    The anchor point (attention weights applied to the cloud's xyz)
    grounds the part query spatially; without it the translation-
    invariant features carry no object-position information at all.
    The anchor - agent offset is redundant with (anchor, state) but
    linearizes the reaching direction for the small denoiser.
    """
    w, pooled = pool_with_part_query(obs.field, obs.part_query, temperature)
    anchor = w @ np.asarray(obs.points)
    state = np.asarray(obs.agent_state, dtype=np.float64)
    return np.concatenate([pooled, pooled, anchor, anchor - state[:3], state])


# the embedding's sinusoid frequencies, geometric from 1 down to 1/1000
_T_FREQS = np.exp(-np.log(1000.0) * np.arange(T_EMBED_DIM // 2)
                  / max(T_EMBED_DIM // 2 - 1, 1))


def timestep_embedding(k: int) -> np.ndarray:
    ang = k * _T_FREQS
    return np.concatenate([np.sin(ang), np.cos(ang)])


# ---------------------------------------------------------------------------
# denoiser network

@dataclass
class PolicyParams:
    """Pooling temperature plus the two trainable MLPs.

    proj: two-layer MLP reducing the conditioning vector; denoiser:
    three-layer MLP from cond + flattened noisy chunk + timestep
    embedding to the predicted clean chunk.
    """

    temperature: float
    proj: list          # [(W, b), (W, b)]
    denoiser: list      # [(W, b), (W, b), (W, b)]
    feat_dim: int
    horizon: int
    action_dim: int
    seed: int

    def tensors(self):
        return [a for W, b in self.proj + self.denoiser for a in (W, b)]

    def copy(self) -> "PolicyParams":
        return PolicyParams(
            self.temperature,
            [(W.copy(), b.copy()) for W, b in self.proj],
            [(W.copy(), b.copy()) for W, b in self.denoiser],
            self.feat_dim, self.horizon, self.action_dim, self.seed)


def _enc_dim(feat_dim: int) -> int:
    """Width of encode_observation's vector: two pooled-feature slots,
    anchor, anchor - agent, agent state."""
    return 2 * feat_dim + 3 + 3 + 4


def init_policy(feat_dim: int, horizon: int = DEFAULT_HORIZON,
                action_dim: int = ACTION_DIM, cond_dim: int = 32,
                hidden: int = 128, temperature: float = 0.1,
                seed: int = 0) -> PolicyParams:
    rng = rng_from(seed, "policy-init")
    enc_dim = _enc_dim(feat_dim)
    flat = horizon * action_dim

    def layer(din, dout):
        return (rng.standard_normal((din, dout)) / np.sqrt(din), np.zeros(dout))

    proj = [layer(enc_dim, hidden), layer(hidden, cond_dim)]
    den_in = cond_dim + flat + T_EMBED_DIM
    denoiser = [layer(den_in, hidden), layer(hidden, hidden), layer(hidden, flat)]
    return PolicyParams(temperature, proj, denoiser, feat_dim, horizon,
                        action_dim, seed)


def _condition(params: PolicyParams, obs: Observation) -> np.ndarray:
    """(1, cond_dim) proj MLP output for one observation; step-free."""
    return mlp_forward(params.proj,
                       encode_observation(obs, params.temperature)[None])[0]


def _denoise(params: PolicyParams, cond: np.ndarray, noisy_flat: np.ndarray,
             k_emb: np.ndarray):
    """Denoiser MLP on [cond, noisy chunk, k embedding] rows: (out, acts)."""
    return mlp_forward(params.denoiser,
                       np.concatenate([cond, noisy_flat, k_emb], axis=-1))


def _policy_apply(params: PolicyParams, enc_in: np.ndarray,
                  noisy_flat: np.ndarray, k_emb: np.ndarray):
    """Batched forward through both MLPs; returns output + caches."""
    cond, proj_acts = mlp_forward(params.proj, enc_in)
    out, den_acts = _denoise(params, cond, noisy_flat, k_emb)
    return out, (proj_acts, den_acts, cond.shape[-1])


def policy_forward(params: PolicyParams, obs: Observation,
                   noisy: np.ndarray, k: int) -> np.ndarray:
    """Predicted clean chunk (horizon x action_dim) for one observation."""
    noisy = np.asarray(noisy, dtype=np.float64)
    if noisy.shape != (params.horizon, params.action_dim):
        raise InvalidArgumentError(
            f"noisy chunk must be {(params.horizon, params.action_dim)}, "
            f"got {noisy.shape}")
    out, _ = _denoise(params, _condition(params, obs), noisy.ravel()[None],
                      timestep_embedding(k)[None])
    return out[0].reshape(noisy.shape)


def _policy_backward(params: PolicyParams, caches, grad_out: np.ndarray):
    proj_acts, den_acts, cond_dim = caches
    den_grads, g_den_in = mlp_backward(params.denoiser, den_acts, grad_out)
    proj_grads, _ = mlp_backward(params.proj, proj_acts, g_den_in[:, :cond_dim])
    return [a for W, b in proj_grads + den_grads for a in (W, b)]


# ---------------------------------------------------------------------------
# training

@dataclass
class PolicyTrainConfig:
    steps: int = 3000
    learning_rate: float = 1e-3
    batch_size: int = 32
    cond_dim: int = 32
    hidden: int = 128
    temperature: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.learning_rate <= 0:
            raise InvalidArgumentError("steps and learning rate must be positive")


def train_policy(episodes, schedule: NoiseSchedule,
                 config: PolicyTrainConfig):
    """Denoising regression on (observation, chunk) pairs.

    Per step: sample pairs, k ~ Uniform{1..K}, eps ~ N(0, I), noise the
    clean chunk, regress the denoiser output onto the clean chunk (MSE).
    Returns (params, loss log).
    """
    pairs = [(obs, chunk) for ep in episodes for obs, chunk in ep.steps]
    if not pairs:
        raise InvalidArgumentError("episodes must contain at least one chunk")
    horizon, action_dim = pairs[0][1].shape
    feat_dim = pairs[0][0].field.dim
    params = init_policy(feat_dim, horizon, action_dim, config.cond_dim,
                         config.hidden, config.temperature, config.seed)
    # pooling has no trainable parameters, so conditioning is precomputable
    enc = np.stack([encode_observation(obs, config.temperature)
                    for obs, _ in pairs])
    chunks = np.stack([chunk.ravel() for _, chunk in pairs])
    tensors = params.tensors()
    opt = Adam([a.shape for a in tensors], config.learning_rate)
    rng = rng_from(config.seed, "policy-train")
    k_table = np.stack([timestep_embedding(k) for k in range(schedule.K + 1)])
    history = []
    for step in range(config.steps):
        idx = rng.integers(0, len(pairs), size=config.batch_size)
        a0 = chunks[idx]
        ks = rng.integers(1, schedule.K + 1, size=config.batch_size)
        eps = rng.standard_normal(a0.shape)
        bb = schedule.beta_bar[ks][:, None]
        noisy = np.sqrt(bb) * a0 + np.sqrt(1.0 - bb) * eps
        pred, caches = _policy_apply(params, enc[idx], noisy, k_table[ks])
        diff = pred - a0
        loss = float(np.mean(diff ** 2))
        if not np.isfinite(loss):
            err = NumericalError(f"non-finite policy loss at step {step}")
            err.step = step
            err.params = params.copy()
            raise err
        grads = _policy_backward(params, caches, 2.0 * diff / diff.size)
        opt.step(tensors, grads)
        history.append({"step": step, "mse": loss})
    return params, history


def sample_actions(params: PolicyParams, obs: Observation,
                   schedule: NoiseSchedule, mode: str = "ddim_deterministic",
                   seed: int = 0) -> np.ndarray:
    """Draw an action chunk by iterating the denoising step from pure
    noise at k = K down to k = 1.  The conditioning is fixed for the
    chunk (Chi et al. 2023), so it is computed once; the K steps run only
    the denoiser, bit for bit the chain of policy_forward + ddim_step.

    mode "ddim_deterministic": tau^k = 0 everywhere (only the initial
    a^K is random).  mode "ddpm_posterior": posterior-matched tau^k with
    fresh noise each step, v = 0 at k = 1.
    """
    if mode not in ("ddpm_posterior", "ddim_deterministic"):
        raise InvalidArgumentError(f"unknown sampling mode: {mode!r}")
    rng = rng_from(seed, "sample-actions")
    a = rng.standard_normal((params.horizon, params.action_dim))
    cond = _condition(params, obs)
    for k in range(schedule.K, 0, -1):
        a0_pred = _denoise(params, cond, a.ravel()[None],
                           timestep_embedding(k)[None])[0].reshape(a.shape)
        if mode == "ddpm_posterior" and k > 1:
            tau = ddpm_tau(k, schedule)
            v = rng.standard_normal(a.shape)
        else:
            tau, v = 0.0, 0.0
        a = ddim_step(a, a0_pred, k, schedule, tau, v)
    return a


# ---------------------------------------------------------------------------
# checkpoints

_META_TYPES = {"temperature": (int, float), "feat_dim": int, "horizon": int,
               "action_dim": int, "seed": int, "n_proj": int,
               "n_denoiser": int, "gamma": list, "field": (dict, type(None))}
_FIELD_TYPES = {"k_neighbors": int, "sha256": str}


def save_policy_checkpoint(path, params: PolicyParams, schedule: NoiseSchedule,
                           field_record) -> None:
    """Weights, the noise schedule they were trained under (as gamma),
    and the record of the features they read
    (`env.FieldPipeline.field_record`: None for the raw baseline)."""
    meta = {"temperature": params.temperature, "feat_dim": params.feat_dim,
            "horizon": params.horizon, "action_dim": params.action_dim,
            "seed": params.seed, "n_proj": len(params.proj),
            "n_denoiser": len(params.denoiser),
            "gamma": schedule.gamma.tolist(), "field": field_record}
    save_arrays(path, POLICY_MAGIC, meta, params.tensors())


def load_policy_checkpoint(path):
    """(PolicyParams, NoiseSchedule, field record) of a saved policy;
    FormatError when the meta lacks a key or disagrees with the stored
    layer shapes."""
    meta, arrays = load_arrays(path, POLICY_MAGIC)
    meta = checked_meta(meta, _META_TYPES)
    if meta["field"] is not None:
        checked_meta(meta["field"], _FIELD_TYPES)
    try:
        gamma = np.array(meta["gamma"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FormatError("checkpoint gamma is not a list of numbers") from exc
    if gamma.ndim != 1 or len(gamma) == 0 \
            or not np.all((gamma > 0.0) & (gamma < 1.0)):
        raise FormatError(f"checkpoint gamma must be a non-empty list in "
                          f"(0, 1), got {meta['gamma']!r}")
    n_proj, n_den = meta["n_proj"], meta["n_denoiser"]
    if min(n_proj, n_den, meta["feat_dim"], meta["horizon"],
           meta["action_dim"]) < 1 or not meta["temperature"] > 0:
        raise FormatError(f"checkpoint meta out of range: {meta}")
    flat = meta["horizon"] * meta["action_dim"]
    proj = mlp_layers(arrays[:2 * n_proj],
                      [_enc_dim(meta["feat_dim"])] + [None] * n_proj)
    denoiser = mlp_layers(arrays[2 * n_proj:],
                          [proj[-1][0].shape[1] + flat + T_EMBED_DIM]
                          + [None] * (n_den - 1) + [flat])
    params = PolicyParams(meta["temperature"], proj, denoiser,
                          meta["feat_dim"], meta["horizon"],
                          meta["action_dim"], meta["seed"])
    return params, _schedule_from_gamma(gamma), meta["field"]
