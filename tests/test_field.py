import csv

import numpy as np
import pytest

from partfield.codebook import build_codebooks
from partfield.descriptors import extract_descriptors
from partfield.errors import InvalidArgumentError, NumericalError
from partfield.field import (FeatureField, TrainConfig, backward, forward,
                             init_refine_net, load_field_checkpoint,
                             part_similarity_stats, save_field_checkpoint,
                             train_field, write_training_log)
from partfield.geometry import PART_VOCAB, generate_object
from partfield.losses import LabeledFeatureBatch, LossConfig, loss_gradients


def test_param_count_closed_form():
    d_in, hidden, depth, n = 10, 64, 2, 32
    params = init_refine_net(d_in, hidden, depth, n, seed=0)
    expected = (d_in + 1) * hidden + (depth - 1) * (hidden + 1) * hidden \
        + (hidden + 1) * n
    assert params.n_params() == expected
    assert len(params.flat()) == expected


def test_forward_unit_rows():
    params = init_refine_net(seed=1)
    rng = np.random.default_rng(0)
    desc = rng.standard_normal((40, 10))
    f = forward(params, desc)
    np.testing.assert_allclose(np.linalg.norm(f.values, axis=1), 1.0,
                               atol=1e-12)


def test_forward_permutation_equivariant():
    params = init_refine_net(seed=1)
    rng = np.random.default_rng(1)
    desc = rng.standard_normal((30, 10))
    perm = rng.permutation(30)
    a = forward(params, desc).values
    b = forward(params, desc[perm]).values
    np.testing.assert_array_equal(a[perm], b)


def test_forward_deterministic():
    params = init_refine_net(seed=2)
    desc = np.random.default_rng(2).standard_normal((10, 10))
    np.testing.assert_array_equal(forward(params, desc).values,
                                  forward(params, desc).values)


def test_forward_rejects_bad_width():
    params = init_refine_net(seed=0)
    with pytest.raises(InvalidArgumentError):
        forward(params, np.zeros((5, 7)))


def test_zero_row_fallback():
    params = init_refine_net(seed=0)
    # zero the last layer: pre-normalization output is exactly zero
    W, b = params.weights[-1]
    params.weights[-1] = (np.zeros_like(W), np.zeros_like(b))
    f = forward(params, np.random.default_rng(0).standard_normal((4, 10)))
    expected = np.zeros((4, f.dim))
    expected[:, 0] = 1.0
    np.testing.assert_array_equal(f.values, expected)


def test_nan_weight_gives_nan_rows():
    # a NaN norm must not take the zero-row fallback
    params = init_refine_net(d_in=6, hidden=8, depth=2, n=5, seed=0)
    params.weights[0][0][0, 0] = np.nan
    f = forward(params, np.random.default_rng(0).standard_normal((4, 6)))
    assert np.all(np.isnan(f.values))


def test_full_chain_gradient_matches_fd():
    # loss -> normalized features -> net parameters, all by hand
    rng = np.random.default_rng(3)
    params = init_refine_net(d_in=6, hidden=8, depth=2, n=5, seed=4)
    desc = rng.standard_normal((3, 6))
    labels = np.array([0, 0, 1])
    books = build_codebooks({"cat": ["a", "b"]}, 5, 0)
    cfg = LossConfig(0.3, 0.4)

    def run(p):
        f = forward(p, desc)
        l_geo, l_sem, _ = loss_gradients(LabeledFeatureBatch(f.values, labels),
                                         books["cat"], cfg)
        return l_geo + l_sem

    f = forward(params, desc)
    grad_f = loss_gradients(LabeledFeatureBatch(f.values, labels),
                            books["cat"], cfg)[2]
    grads = backward(params, desc, grad_f)
    h = 1e-5
    worst = 0.0
    for li in range(len(params.weights)):
        for arr_i in (0, 1):
            arr = params.weights[li][arr_i]
            flat = arr.reshape(-1)
            for pos in range(0, flat.size, max(1, flat.size // 5)):
                p2 = params.copy()
                p2.weights[li][arr_i].reshape(-1)[pos] += h
                lp = run(p2)
                p2.weights[li][arr_i].reshape(-1)[pos] -= 2 * h
                lm = run(p2)
                fd = (lp - lm) / (2 * h)
                got = grads[li][arr_i].reshape(-1)[pos]
                denom = max(abs(fd), abs(got), 1e-8)
                worst = max(worst, abs(got - fd) / denom)
    assert worst <= 1e-4


def _tiny_dataset():
    clouds = [generate_object("bottle_with_cap", i, 150) for i in range(4)] \
        + [generate_object("box_with_lid", i, 150) for i in range(4)]
    books = build_codebooks(PART_VOCAB, 16, 0)
    return clouds, books


def test_train_field_smoke_and_determinism():
    clouds, books = _tiny_dataset()
    cfg = TrainConfig(steps=6, points_per_part=6, instances_per_batch=2,
                      hidden=16, depth=2, n_dim=16, seed=0)
    p1, h1 = train_field(clouds, books, cfg)
    p2, h2 = train_field(clouds, books, cfg)
    np.testing.assert_array_equal(p1.flat(), p2.flat())
    assert len(h1) == 6
    assert all(np.isfinite(r["total"]) for r in h1)
    assert h1 == h2


def test_train_field_ablation_logs_none():
    clouds, books = _tiny_dataset()
    cfg = TrainConfig(steps=2, points_per_part=4, instances_per_batch=2,
                      hidden=8, depth=2, n_dim=16, seed=0,
                      loss=LossConfig(0.1, 0.1, enable_sem=False))
    _, hist = train_field(clouds, books, cfg)
    assert hist[0]["L_sem"] is None
    assert hist[0]["L_geo"] is not None


def test_train_field_rejects_empty_and_missing_codebook():
    clouds, books = _tiny_dataset()
    cfg = TrainConfig(steps=1)
    with pytest.raises(InvalidArgumentError):
        train_field([], books, cfg)
    with pytest.raises(InvalidArgumentError):
        train_field(clouds, {"bottle_with_cap": books["bottle_with_cap"]}, cfg)


def test_train_field_nan_descriptors_raise_before_update():
    clouds, books = _tiny_dataset()
    cfg = TrainConfig(steps=3, points_per_part=4, instances_per_batch=2,
                      hidden=8, depth=2, n_dim=16, seed=0)
    nan_desc = [np.full((c.n_points, 10), np.nan) for c in clouds]
    with pytest.raises(NumericalError) as info:
        train_field(clouds, books, cfg, descriptors=nan_desc)
    assert info.value.step == 0
    initial = init_refine_net(10, cfg.hidden, cfg.depth, cfg.n_dim, cfg.seed)
    np.testing.assert_array_equal(info.value.params.flat(), initial.flat())


def test_train_field_no_nan_medium_run():
    clouds, books = _tiny_dataset()
    cfg = TrainConfig(steps=200, points_per_part=8, instances_per_batch=2,
                      hidden=16, depth=2, n_dim=16, seed=0)
    _, hist = train_field(clouds, books, cfg)
    assert all(np.isfinite(r["total"]) for r in hist)


def test_write_training_log(tmp_path):
    rows = [{"step": 0, "L_geo": 1.5, "L_sem": None, "total": 1.5}]
    path = tmp_path / "log.csv"
    write_training_log(path, rows)
    with open(path) as f:
        got = list(csv.reader(f))
    assert got[0] == ["step", "L_geo", "L_sem", "total"]
    assert got[1][0] == "0"
    assert float(got[1][1]) == 1.5
    assert got[1][2] == ""


def test_part_similarity_stats_hand_case():
    values = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    stats = part_similarity_stats(FeatureField(values), [0, 0, 1])
    assert stats.intra == pytest.approx(1.0)
    assert stats.inter == pytest.approx(0.0)


def test_part_similarity_stats_single_part():
    values = np.eye(3)
    stats = part_similarity_stats(FeatureField(values), [0, 0, 0])
    assert stats.inter is None
    assert stats.intra == pytest.approx(0.0)


def test_part_similarity_stats_subsample_close_to_exact():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((300, 8))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    labels = rng.integers(0, 3, 300)
    exact = part_similarity_stats(FeatureField(v), labels)
    sub = part_similarity_stats(FeatureField(v), labels, max_pairs=20000)
    assert abs(exact.intra - sub.intra) < 0.05
    assert abs(exact.inter - sub.inter) < 0.05


def test_checkpoint_roundtrip(tmp_path):
    params = init_refine_net(seed=7)
    path = tmp_path / "f.ckpt"
    save_field_checkpoint(path, params)
    back = load_field_checkpoint(path)
    np.testing.assert_array_equal(back.flat(), params.flat())
    assert (back.d_in, back.hidden, back.depth, back.n) == \
        (params.d_in, params.hidden, params.depth, params.n)
    desc = np.random.default_rng(1).standard_normal((5, 10))
    np.testing.assert_array_equal(forward(params, desc).values,
                                  forward(back, desc).values)


def test_checkpoint_write_determinism(tmp_path):
    params = init_refine_net(seed=7)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_field_checkpoint(p1, params)
    save_field_checkpoint(p2, params)
    assert p1.read_bytes() == p2.read_bytes()
