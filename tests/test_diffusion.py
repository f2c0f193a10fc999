import math

import numpy as np
import pytest

import partfield.diffusion as diffusion
from partfield.diffusion import (DEFAULT_HORIZON, Observation, PolicyParams,
                                 PolicyTrainConfig, ddim_step, ddpm_tau,
                                 encode_observation, forward_noise,
                                 init_policy, load_policy_checkpoint,
                                 make_schedule, policy_forward,
                                 pool_with_part_query, sample_actions,
                                 save_policy_checkpoint, timestep_embedding,
                                 train_policy)
from partfield.errors import InvalidArgumentError
from partfield.field import FeatureField


def _random_schedules(rng, count=50):
    out = []
    for _ in range(count):
        K = int(rng.integers(1, 60))
        kind = rng.choice(["linear", "cosine"])
        lo = float(rng.uniform(1e-4, 0.01))
        hi = float(rng.uniform(lo, 0.05))
        out.append(make_schedule(K, kind, lo, hi))
    return out


@pytest.mark.parametrize("K", [1, 10, 100])
@pytest.mark.parametrize("kind", ["linear", "cosine"])
def test_schedule_invariants(K, kind):
    s = make_schedule(K, kind)
    assert s.beta_bar[0] == 1.0
    assert np.all(np.diff(s.beta_bar) < 0)
    assert np.all((s.beta > 0) & (s.beta < 1))
    np.testing.assert_allclose(s.gamma, 1.0 - s.beta, atol=1e-15)
    assert s.beta_bar[-1] > 0
    np.testing.assert_allclose(s.beta_bar[1:], np.cumprod(s.beta), atol=1e-15)


def test_schedule_k1():
    s = make_schedule(1)
    assert s.beta_bar[1] == s.beta[0]


def test_schedule_rejects_bad_args():
    with pytest.raises(InvalidArgumentError):
        make_schedule(0)
    with pytest.raises(InvalidArgumentError):
        make_schedule(10, "linear", 0.0, 0.1)
    with pytest.raises(InvalidArgumentError):
        make_schedule(10, "linear", 0.2, 0.1)
    with pytest.raises(InvalidArgumentError):
        make_schedule(10, "quadratic")


def test_forward_noise_identities():
    s = make_schedule(20)
    a0 = np.arange(8.0).reshape(2, 4)
    np.testing.assert_allclose(forward_noise(a0, 5, 0.0, s),
                               math.sqrt(s.beta_bar[5]) * a0, atol=1e-15)
    eps = np.ones((2, 4))
    np.testing.assert_allclose(forward_noise(np.zeros((2, 4)), 5, eps, s),
                               math.sqrt(1 - s.beta_bar[5]) * eps, atol=1e-15)
    with pytest.raises(InvalidArgumentError):
        forward_noise(a0, 0, 0.0, s)
    with pytest.raises(InvalidArgumentError):
        forward_noise(a0, 21, 0.0, s)


def test_forward_noise_scalar_oracle():
    rng = np.random.default_rng(0)
    for s in _random_schedules(rng, 10):
        k = int(rng.integers(1, s.K + 1))
        a0 = rng.standard_normal((3, 4))
        eps = rng.standard_normal((3, 4))
        got = forward_noise(a0, k, eps, s)
        bb = 1.0
        for i in range(k):
            bb *= s.beta[i]
        expected = math.sqrt(bb) * a0 + math.sqrt(1 - bb) * eps
        np.testing.assert_allclose(got, expected, atol=1e-15)


def test_ddim_k1_identity():
    rng = np.random.default_rng(1)
    for s in _random_schedules(rng, 50):
        a0p = rng.standard_normal((2, 4))
        ak = rng.standard_normal((2, 4))
        np.testing.assert_allclose(ddim_step(ak, a0p, 1, s), a0p, atol=1e-12)


def test_ddim_noiseless_path_identity():
    rng = np.random.default_rng(2)
    for s in _random_schedules(rng, 50):
        a0 = rng.standard_normal((2, 4))
        for k in range(1, s.K + 1):
            ak = math.sqrt(s.beta_bar[k]) * a0
            out = ddim_step(ak, a0, k, s)
            np.testing.assert_allclose(out, math.sqrt(s.beta_bar[k - 1]) * a0,
                                       atol=1e-12)


def test_ddim_scalar_oracle():
    rng = np.random.default_rng(3)
    for s in _random_schedules(rng, 20):
        k = int(rng.integers(1, s.K + 1))
        ak = rng.standard_normal(4)
        a0p = rng.standard_normal(4)
        v = rng.standard_normal(4)
        tau = float(rng.uniform(0, 0.5))
        bbp, bb = s.beta_bar[k - 1], s.beta_bar[k]
        expected = (math.sqrt(bbp) * s.gamma[k - 1] / (1 - bb)) * a0p \
            + (math.sqrt(s.beta[k - 1]) * (1 - bbp) / (1 - bb)) * ak + tau * v
        np.testing.assert_allclose(ddim_step(ak, a0p, k, s, tau, v),
                                   expected, atol=1e-15)


def test_ddpm_tau_bounds():
    rng = np.random.default_rng(4)
    for s in _random_schedules(rng, 20):
        for k in range(1, s.K + 1):
            tau = ddpm_tau(k, s)
            assert 0.0 <= tau <= math.sqrt(s.gamma[k - 1]) + 1e-15
        assert ddpm_tau(1, s) == 0.0


def test_forward_then_denoise_consistency():
    rng = np.random.default_rng(5)
    for s in _random_schedules(rng, 10):
        a0 = rng.standard_normal((2, 4))
        a = forward_noise(a0, s.K, 0.0, s)
        for k in range(s.K, 0, -1):
            a = ddim_step(a, a0, k, s)
        np.testing.assert_allclose(a, a0, atol=1e-9)


# ---------------------------------------------------------------------------
# pooling and encoding

def _unit_rows(rng, n, d):
    f = rng.standard_normal((n, d))
    return f / np.linalg.norm(f, axis=1, keepdims=True)


def test_pool_identical_rows():
    f = np.tile([[0.6, 0.8]], (5, 1))
    rng = np.random.default_rng(0)
    out = pool_with_part_query(FeatureField(f), rng.standard_normal(2))
    np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-12)


def test_pool_low_temperature_picks_best_row():
    rng = np.random.default_rng(1)
    f = _unit_rows(rng, 20, 8)
    q = f[7]
    out = pool_with_part_query(FeatureField(f), q, temperature=1e-3)
    np.testing.assert_allclose(out, f[7], atol=1e-3)


def test_pool_permutation_invariant():
    rng = np.random.default_rng(2)
    f = _unit_rows(rng, 15, 6)
    q = rng.standard_normal(6)
    a = pool_with_part_query(FeatureField(f), q, 0.5)
    b = pool_with_part_query(FeatureField(f[rng.permutation(15)]), q, 0.5)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_pool_weights_are_convex():
    rng = np.random.default_rng(3)
    f = _unit_rows(rng, 10, 4)
    w, out = pool_with_part_query(FeatureField(f), rng.standard_normal(4),
                                  0.3, return_weights=True)
    assert w.shape == (10,)
    assert np.all(w >= 0)
    assert abs(w.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(out, w @ f, atol=1e-12)


def test_pool_rejects_empty_and_bad_temperature():
    with pytest.raises(InvalidArgumentError):
        pool_with_part_query(FeatureField(np.zeros((0, 4))), np.zeros(4))
    with pytest.raises(InvalidArgumentError):
        pool_with_part_query(FeatureField(np.eye(4)), np.zeros(4), 0.0)


def _toy_observation(rng, n=12, dim=6):
    f = _unit_rows(rng, n, dim)
    pts = rng.standard_normal((n, 3)) * 0.1
    return Observation(FeatureField(f), pts,
                       np.array([0.0, 0.1, 0.3, 0.0]), f[0])


def test_encode_observation_layout():
    rng = np.random.default_rng(4)
    obs = _toy_observation(rng, dim=6)
    enc = encode_observation(obs, temperature=0.1)
    # pooled current + previous + anchor + anchor-agent offset + state
    assert enc.shape == (6 + 6 + 3 + 3 + 4,)
    np.testing.assert_allclose(enc[12:15] - obs.agent_state[:3], enc[15:18],
                               atol=1e-15)
    # without prev_field the current field stands in for the history
    np.testing.assert_allclose(enc[:6], enc[6:12], atol=1e-15)
    np.testing.assert_allclose(enc[-4:], obs.agent_state, atol=1e-15)


def test_timestep_embedding():
    e1 = timestep_embedding(3, 16)
    e2 = timestep_embedding(3, 16)
    np.testing.assert_array_equal(e1, e2)
    assert e1.shape == (16,)
    assert not np.allclose(e1, timestep_embedding(4, 16))
    assert np.all(np.abs(e1) <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# policy network

def test_policy_forward_shape_and_determinism():
    rng = np.random.default_rng(5)
    params = init_policy(feat_dim=6, horizon=4, action_dim=4, cond_dim=8,
                         hidden=16, seed=0)
    obs = _toy_observation(rng, dim=6)
    noisy = rng.standard_normal((4, 4))
    a = policy_forward(params, obs, noisy, k=3)
    b = policy_forward(params, obs, noisy, k=3)
    assert a.shape == (4, 4)
    np.testing.assert_array_equal(a, b)
    c = policy_forward(params, obs, noisy, k=4)
    assert not np.allclose(a, c)


def test_policy_checkpoint_roundtrip(tmp_path):
    params = init_policy(feat_dim=6, horizon=4, cond_dim=8, hidden=16, seed=3)
    schedule = make_schedule(7, "cosine", 3e-4, 0.05)
    path = tmp_path / "p.ckpt"
    save_policy_checkpoint(path, params, schedule)
    back, back_schedule = load_policy_checkpoint(path)
    for name in ("beta", "gamma", "beta_bar"):
        np.testing.assert_array_equal(getattr(back_schedule, name),
                                      getattr(schedule, name))
    rng = np.random.default_rng(6)
    obs = _toy_observation(rng, dim=6)
    noisy = rng.standard_normal((4, 4))
    np.testing.assert_array_equal(policy_forward(params, obs, noisy, 2),
                                  policy_forward(back, obs, noisy, 2))
    assert back.temperature == params.temperature


def _overfit_setup(seed=0, horizon=4):
    rng = np.random.default_rng(seed)
    obs = _toy_observation(rng, dim=6)
    chunk = rng.uniform(-0.02, 0.02, size=(horizon, 4))

    class _Ep:
        steps = [(obs, chunk)]

    schedule = make_schedule(10)
    return _Ep(), chunk, schedule


def test_train_policy_overfits_single_episode():
    episode, chunk, schedule = _overfit_setup()
    cfg = PolicyTrainConfig(steps=3000, learning_rate=1e-3, batch_size=16,
                            cond_dim=8, hidden=32, seed=0)
    params, history = train_policy([episode], schedule, cfg)
    losses = [h["mse"] for h in history]
    assert losses[-1] < 1e-3
    # 100-step moving average decreases from start to finish
    ma = np.convolve(losses, np.ones(100) / 100, mode="valid")
    assert ma[-1] < ma[0]
    # deterministic sampling reproduces the memorized chunk
    out = sample_actions(params, episode.steps[0][0], schedule,
                         mode="ddim_deterministic", seed=5)
    assert np.max(np.abs(out - chunk)) <= 0.05


def test_train_policy_deterministic():
    episode, _, schedule = _overfit_setup()
    cfg = PolicyTrainConfig(steps=50, batch_size=8, cond_dim=8, hidden=16,
                            seed=1)
    p1, h1 = train_policy([episode], schedule, cfg)
    p2, h2 = train_policy([episode], schedule, cfg)
    for a, b in zip(p1.tensors(), p2.tensors()):
        np.testing.assert_array_equal(a, b)
    assert h1 == h2


def test_sample_actions_denoiser_call_count(monkeypatch):
    episode, _, schedule = _overfit_setup()
    params = init_policy(feat_dim=6, horizon=4, cond_dim=8, hidden=16, seed=0)
    calls = {"n": 0}
    real = diffusion.policy_forward

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(diffusion, "policy_forward", counting)
    sample_actions(params, episode.steps[0][0], schedule, seed=0)
    assert calls["n"] == schedule.K


def test_sample_actions_ddim_deterministic():
    episode, _, schedule = _overfit_setup()
    params = init_policy(feat_dim=6, horizon=4, cond_dim=8, hidden=16, seed=0)
    obs = episode.steps[0][0]
    a = sample_actions(params, obs, schedule, mode="ddim_deterministic", seed=3)
    b = sample_actions(params, obs, schedule, mode="ddim_deterministic", seed=3)
    np.testing.assert_array_equal(a, b)
    c = sample_actions(params, obs, schedule, mode="ddpm_posterior", seed=3)
    assert c.shape == a.shape


def test_sample_actions_rejects_unknown_mode():
    episode, _, schedule = _overfit_setup()
    params = init_policy(feat_dim=6, horizon=4, cond_dim=8, hidden=16, seed=0)
    with pytest.raises(InvalidArgumentError):
        sample_actions(params, episode.steps[0][0], schedule, mode="foo",
                       seed=0)


def test_default_horizon_constant():
    assert DEFAULT_HORIZON == 16
