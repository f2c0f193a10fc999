import numpy as np

from partfield.nn import Adam, mlp_backward, mlp_forward, sigmoid, softplus


def test_softplus_values_and_stability():
    np.testing.assert_allclose(softplus(np.array([0.0])), [np.log(2.0)],
                               atol=1e-15)
    big = softplus(np.array([800.0, -800.0]))
    assert np.all(np.isfinite(big))
    assert abs(big[0] - 800.0) < 1e-9
    assert big[1] >= 0.0


def test_sigmoid_is_softplus_derivative():
    x = np.linspace(-5, 5, 41)
    h = 1e-6
    fd = (softplus(x + h) - softplus(x - h)) / (2 * h)
    np.testing.assert_allclose(sigmoid(x), fd, atol=1e-9)


def _rand_mlp(rng, dims):
    return [(rng.standard_normal((dims[i], dims[i + 1])) / np.sqrt(dims[i]),
             rng.standard_normal(dims[i + 1]) * 0.1)
            for i in range(len(dims) - 1)]


def test_mlp_forward_shapes():
    rng = np.random.default_rng(0)
    weights = _rand_mlp(rng, [4, 7, 3])
    x = rng.standard_normal((5, 4))
    y, acts = mlp_forward(weights, x)
    assert y.shape == (5, 3)
    assert len(acts) == 2 and acts[0] is x


def test_mlp_backward_matches_fd():
    rng = np.random.default_rng(1)
    weights = _rand_mlp(rng, [3, 6, 2])
    x = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 2))

    def loss(ws):
        y, _ = mlp_forward(ws, x)
        return 0.5 * np.sum((y - target) ** 2)

    y, acts = mlp_forward(weights, x)
    grads, gx = mlp_backward(weights, acts, y - target)
    h = 1e-6
    for li in range(len(weights)):
        for arr_i in (0, 1):
            arr = weights[li][arr_i]
            it = [(0,) * arr.ndim, tuple(s - 1 for s in arr.shape)]
            for pos in it:
                w2 = [(W.copy(), b.copy()) for W, b in weights]
                w2[li][arr_i][pos] += h
                lp = loss(w2)
                w2[li][arr_i][pos] -= 2 * h
                lm = loss(w2)
                fd = (lp - lm) / (2 * h)
                assert abs(grads[li][arr_i][pos] - fd) < 1e-5
    # input gradient too
    x2 = x.copy()
    x2[1, 2] += h
    lp = 0.5 * np.sum((mlp_forward(weights, x2)[0] - target) ** 2)
    x2[1, 2] -= 2 * h
    lm = 0.5 * np.sum((mlp_forward(weights, x2)[0] - target) ** 2)
    assert abs(gx[1, 2] - (lp - lm) / (2 * h)) < 1e-5


def test_adam_single_step_reference():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    theta = np.array([1.0, -2.0])
    g = np.array([0.5, -0.25])
    opt = Adam([theta.shape], lr)
    opt.step([theta], [g])
    m = (1 - b1) * g
    v = (1 - b2) * g ** 2
    mh = m / (1 - b1)
    vh = v / (1 - b2)
    expected = np.array([1.0, -2.0]) - lr * mh / (np.sqrt(vh) + eps)
    np.testing.assert_allclose(theta, expected, atol=1e-12)


def test_adam_converges_on_quadratic():
    theta = np.array([5.0])
    opt = Adam([theta.shape], 0.1)
    for _ in range(500):
        opt.step([theta], [2.0 * theta])
    assert abs(theta[0]) < 1e-3
