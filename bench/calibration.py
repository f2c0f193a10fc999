"""Machine-speed calibration for untraced runs.

The benchmark was developed on a shared machine whose speed drifted by
10-45% with the load of other tenants, in bursts from under a second to
minutes.  CPU time drifted with it, so the slowdown was contention, not
waiting, and medians inside one run cannot remove a drift that outlasts
the run.  So a run times a fixed kernel before each timed unit, and each
unit's time is divided by the kernel's slowdown (median kernel time over
its nominal time) over the samples around that unit.

No kernel calls partfield code, so a change to the package cannot move
them.  Each kernel resembles the work of the phases it calibrates, since
contention slows interpreter-bound, BLAS-bound and memory-bound code by
different amounts:

- mixed: an FPS-like loop of array ops over 2048 points, a 1024x1024
  distance matrix with row argsort, batched 3x3 eigh, average linkage and
  JSON (descriptors, clustering, dataset I/O, task building);
- dense: a 320-row softplus MLP, its normalized Gram matrix and a softmax
  (one field train step);
- small: batch-1 and batch-32 MLP calls (policy sampling and training).
"""

import json
import time
from statistics import median

import numpy as np
from scipy.cluster.hierarchy import linkage

_rng = np.random.default_rng(0)
_POINTS = _rng.standard_normal((2048, 3))
_NEIGHBORHOODS = _rng.standard_normal((1024, 8, 3))
_COV = np.einsum("nki,nkj->nij", _NEIGHBORHOODS, _NEIGHBORHOODS)
_FEATURES = _rng.standard_normal((400, 16))
_DESC = _rng.standard_normal((320, 10))
_MLP = [_rng.standard_normal(s) / np.sqrt(s[0])
        for s in ((10, 128), (128, 128), (128, 128), (128, 32))]
_COND = _rng.standard_normal((1, 64))
_POLICY = [_rng.standard_normal(s) / np.sqrt(s[0])
           for s in ((144, 128), (128, 128), (128, 64))]
_BATCH = _rng.standard_normal((32, 144))


def _mixed():
    pts = _POINTS
    dist = np.linalg.norm(pts - pts[0], axis=1)
    for _ in range(40):
        far = pts[int(np.argmax(dist))]
        dist = np.minimum(dist, np.linalg.norm(pts - far, axis=1))
    half = pts[:1024]
    np.argsort((half @ half.T)[:32], axis=1, kind="stable")
    np.linalg.eigh(_COV)
    linkage(_FEATURES, method="average", metric="cosine")
    json.loads(json.dumps(pts[:300].tolist()))


def _dense():
    acts = [_DESC]
    for W in _MLP[:-1]:
        acts.append(np.logaddexp(0.0, acts[-1] @ W))
    f = acts[-1] @ _MLP[-1]
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    q = np.exp(f @ f.T / 0.1 - 10.0)
    q /= q.sum(axis=1, keepdims=True)
    g = q @ f
    for W, a in zip(reversed(_MLP), reversed(acts)):
        a.T @ g
        g = g @ W.T


def _small():
    x = _COND
    for k in range(100):
        h = np.concatenate([x, np.full((1, 80), k * 1e-2)], axis=1)
        for W in _POLICY[:-1]:
            h = np.logaddexp(0.0, h @ W)
        x = 0.5 * (x + h @ _POLICY[-1])
    h = _BATCH
    for _ in range(5):
        for W in _POLICY[:-1]:
            h = np.logaddexp(0.0, h @ W)
        h = np.concatenate([h, _BATCH[:, :16]], axis=1)


# name -> (kernel, nominal seconds: its typical time inside a run on the
# machine the benchmark was developed on, so scaled values stay close to
# the raw ones there)
KERNELS = {"mixed": (_mixed, 0.011), "dense": (_dense, 0.0038),
           "small": (_small, 0.002)}


def measure(kind):
    kernel, _ = KERNELS[kind]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def slowdown(kind, samples):
    """Median kernel time over its nominal: above 1 on a slowed machine."""
    return median(samples) / KERNELS[kind][1]
