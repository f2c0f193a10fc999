"""Spans around the public functions of each `partfield` module, recorded
from outside the package.

`Tracer.installed()` replaces every binding of a traced function object
in every loaded `partfield` module, so a call is recorded whatever name
the caller looks it up by (`field.py` imports the `losses` functions by
name, `env.py` imports `extract_descriptors`, `forward` and
`sample_actions` by name).  Methods are patched on their class.  On exit
every original binding is restored.

Spans are aggregated in memory as they close: per name the list of
durations, the self time (duration minus direct child spans) and a few
per-span observations that the per-layer metrics need.
"""

import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from statistics import median

from partfield import (descriptors, diffusion, downstream, env, field,
                       geometry, losses, nn, serialize)

# (span name, owner, attribute); the owner is a module or a class
SPANNED = [
    ("geometry.generate_object", geometry, "generate_object"),
    ("geometry.farthest_point_sample", geometry, "farthest_point_sample"),
    ("descriptors.extract_descriptors", descriptors, "extract_descriptors"),
    ("field.train_field", field, "train_field"),
    ("field.forward", field, "forward"),
    ("field.backward", field, "backward"),
    ("losses.sample_batch_indices", losses, "sample_batch_indices"),
    ("losses.geometric_loss", losses, "geometric_loss"),
    ("losses.semantic_loss", losses, "semantic_loss"),
    ("losses.loss_gradients", losses, "loss_gradients"),
    ("nn.Adam.step", nn.Adam, "step"),
    ("nn.mlp_forward", nn, "mlp_forward"),
    ("downstream.agglomerative_cluster", downstream, "agglomerative_cluster"),
    ("downstream.match_miou", downstream, "match_miou"),
    ("downstream.nn_correspondence", downstream, "nn_correspondence"),
    ("diffusion.train_policy", diffusion, "train_policy"),
    ("diffusion.sample_actions", diffusion, "sample_actions"),
    ("diffusion.policy_forward", diffusion, "policy_forward"),
    ("diffusion.encode_observation", diffusion, "encode_observation"),
    ("env.make_task", env, "make_task"),
    ("env.scripted_expert", env, "scripted_expert"),
    ("env.rollout", env, "rollout"),
    ("env.FieldPipeline.field_for", env.FieldPipeline, "field_for"),
    ("env.FieldPipeline.attach_observations", env.FieldPipeline,
     "attach_observations"),
    ("serialize.save_arrays", serialize, "save_arrays"),
    ("serialize.load_arrays", serialize, "load_arrays"),
]

# counted, not spanned: env stepping stays inside env.rollout's self time
COUNTED = [("env.step", env, "step")]


class _Frame:
    __slots__ = ("name", "start", "child_s", "descendants", "marks")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.descendants = Counter()
        self.marks = None


class Tracer:
    """Aggregates spans; `span()` marks a boundary inside benchmark code."""

    def __init__(self):
        self.durations = defaultdict(lambda: array("d"))
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.observed = defaultdict(lambda: array("d"))
        self._stack = []
        self._active = False

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        frame = _Frame(name, time.perf_counter())
        if name == "losses.sample_batch_indices":
            self._mark("field.train_field", frame.start)
        self._stack.append(frame)
        return frame

    def _exit(self, frame, result=None, observe=True):
        end = time.perf_counter()
        dt = end - frame.start
        self._stack.pop()
        name = frame.name
        self.durations[name].append(dt)
        self.self_s[name] += dt - frame.child_s
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += dt
            parent.descendants[name] += 1
            parent.descendants.update(frame.descendants)
        if observe:
            self._observe(name, frame, end, result)

    def _mark(self, owner, t):
        """Append a timestamp to the innermost open span named owner."""
        for frame in reversed(self._stack):
            if frame.name == owner:
                if frame.marks is None:
                    frame.marks = []
                frame.marks.append(t)
                return

    def _observe(self, name, frame, end, result):
        obs = self.observed
        if name == "nn.Adam.step":
            self._mark("diffusion.train_policy", end)
        elif name == "field.forward":
            obs["field.forward.rows"].append(len(result.values))
        elif name == "losses.sample_batch_indices":
            obs["losses.batch_rows"].append(len(result.labels))
        elif name == "field.train_field" and frame.marks:
            # a step runs from one batch draw to the next (the last one to
            # the return of train_field)
            marks = frame.marks + [end]
            obs["field.train_step"].extend(
                b - a for a, b in zip(marks, marks[1:]))
        elif name == "diffusion.train_policy" and frame.marks:
            # a step ends with its Adam update; the first interval also
            # holds the conditioning precompute, so it is dropped
            marks = frame.marks
            obs["diffusion.train_policy.step"].extend(
                b - a for a, b in zip(marks, marks[1:]))
        elif name == "diffusion.sample_actions":
            d = frame.descendants
            obs["diffusion.policy_forward.per_chunk"].append(
                d["diffusion.policy_forward"])
            obs["diffusion.encode_observation.per_chunk"].append(
                d["diffusion.encode_observation"])
        elif name == "env.FieldPipeline.field_for":
            # a call that extracted descriptors missed the cache
            miss = frame.descendants["descriptors.extract_descriptors"] > 0
            obs["env.field_for.hit"].append(0.0 if miss else 1.0)
            if miss:
                obs["env.field_for.miss"].append(end - frame.start)
        elif name == "env.rollout":
            obs["env.rollout.self"].append(end - frame.start - frame.child_s)

    @contextmanager
    def span(self, name):
        """A span opened by benchmark code; a no-op while not installed."""
        if not self._active:
            yield
            return
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- patching ----------------------------------------------------------

    def _spanned(self, name, fn):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, observe=False)
                raise
            tracer._exit(frame, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding of the traced functions, restore on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "partfield"
                                         or n.startswith("partfield."))]
        restore = []
        try:
            for make, targets in ((self._spanned, SPANNED),
                                  (self._counted, COUNTED)):
                for name, owner, attr in targets:
                    original = owner.__dict__[attr]
                    wrapper = make(name, original)
                    if isinstance(owner, type):
                        restore.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
                        continue
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                restore.append((module, key, original))
                                setattr(module, key, wrapper)
            self._active = True
            yield self
        finally:
            self._active = False
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)
            self._stack.clear()

    # -- summaries ---------------------------------------------------------

    def calls(self, name):
        if name in self.counts:
            return self.counts[name]
        return len(self.durations.get(name, ()))

    def ms_p50(self, name):
        return _median_ms(self.durations.get(name, ()))

    def observed_ms_p50(self, key):
        return _median_ms(self.observed.get(key, ()))

    def observed_mean(self, key):
        values = self.observed.get(key, ())
        return sum(values) / len(values) if values else 0.0

    def samples(self, key):
        """Sample count behind a duration or an observation key."""
        if key in self.observed:
            return len(self.observed[key])
        return self.calls(key)


def _median_ms(values):
    return 1000.0 * median(values) if len(values) else 0.0
