"""Tiny feedforward building blocks: the one softplus MLP forward/backward
in the package, run by both the refinement network (`field`) and the
action denoiser (`diffusion`), and Adam."""

import numpy as np


def softplus(x):
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), the branch
    `np.logaddexp(0, x)` takes, with in-place ufuncs on the output; x is
    left unchanged.  The max term is one temporary: adding x under a
    `where=x > 0` mask instead skips it but runs numpy's unvectorised
    masked loop, which costs more than the exp and log1p together."""
    out = np.abs(x)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def mlp_forward(weights, x):
    """Softplus MLP with a linear final layer.

    weights: [(W, b), ...].  Returns (output, activations) where
    activations[i] is the input to layer i (kept for backprop).
    """
    acts = [x]
    for W, b in weights[:-1]:
        x = softplus(x @ W + b)
        acts.append(x)
    W, b = weights[-1]
    return x @ W + b, acts


def mlp_backward(weights, acts, grad_out):
    """Parameter gradients plus the gradient w.r.t. the MLP input."""
    grads = [None] * len(weights)
    g = grad_out
    W_last, _ = weights[-1]
    grads[-1] = (acts[-1].T @ g, g.sum(axis=0))
    upstream = g @ W_last.T
    for i in range(len(weights) - 2, -1, -1):
        W, b = weights[i]
        z = acts[i] @ W + b
        gz = upstream * sigmoid(z)
        grads[i] = (acts[i].T @ gz, gz.sum(axis=0))
        upstream = gz @ W.T
    return grads, upstream


class Adam:
    b1, b2, eps = 0.9, 0.999, 1e-8      # the constants of Kingma & Ba 2015

    def __init__(self, shapes, lr=1e-3):
        self.lr = lr
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0

    def step(self, tensors, grads):
        self.t += 1
        for i, (x, g) in enumerate(zip(tensors, grads)):
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g * g
            mhat = self.m[i] / (1 - self.b1 ** self.t)
            vhat = self.v[i] / (1 - self.b2 ** self.t)
            x -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
