"""The four closed-loop workloads: one caller, each next operation after
the previous one returns.

Every input (clouds, tasks, demos, configs) is generated here from the
workload seed.  A workload sets up several times and reports the median
set-up time, then runs its timed loop of units.  Each unit does a known
number of the workload's operations (field train steps, clouds, demos or
policy chunks); every workload reports the same end-to-end metrics over
its own operation.  Untraced, the loop runs until the deadline (with a
floor on its sample count).  Traced, it runs a fixed number of units, so
counts repeat exactly, and runs every unit twice, once traced and once
not, in alternating order: the pair must give the same output digest,
and the ratio of the two times is the tracing overhead.
"""

import hashlib
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from statistics import median

import numpy as np

from partfield import (cli, codebook, descriptors, diffusion, downstream, env,
                       field, geometry)
from partfield.losses import LossConfig
from partfield.rng import derive_seed

import calibration

CLOUD_POINTS = 1024
K_NEIGHBORS = 16
# field recipe of the acceptance suite (hidden 128, depth 3, n 32,
# 32 points/part x 4 instances, tau_geo 0.1, tau_sem 0.5)
FIELD_RECIPE = dict(learning_rate=3e-3, points_per_part=32,
                    instances_per_batch=4, hidden=128, depth=3, n_dim=32,
                    k_neighbors=K_NEIGHBORS, loss=LossConfig(0.1, 0.5))
POLICY_TASKS = [("bottle_with_cap", "cap"), ("pot_with_handle", "handle")]
SPLITS = ("OS", "OI", "OC")
SCHEDULE_STEPS = 50
POLICY_TEMPERATURE = 0.05
# library failures an operation can raise (partfield errors subclass these)
OPERATION_ERRORS = (ValueError, KeyError, RuntimeError, FloatingPointError)
# kernel samples on each side of a unit that scale it: enough to damp
# the kernel's own jitter, few enough to follow sub-second bursts of
# contention
CALIBRATION_WINDOW = 5


@dataclass(frozen=True)
class Sizes:
    setup_repeats: int = 3
    train_instances: int = 8      # field_train dataset, per seen category
    setup_instances: int = 4      # set-up field of the other workloads
    setup_field_steps: int = 200
    chunk_steps: int = 50         # field_train: steps per train_field call
    min_chunks: int = 20
    trace_chunks: int = 12
    min_clouds: int = 100         # >= 100 so a p90 has >= 10 samples above
    trace_clouds: int = 100
    min_demos: int = 100
    trace_demos: int = 40
    setup_demos_per_task: int = 12    # policy: demos the policies learn from
    policies: int = 2
    policy_steps: int = 1000
    tasks_per_split: int = 12
    min_rounds: int = 3           # rollout passes over the task set
    trace_rounds: int = 3


FULL = Sizes()
# smoke-test size: every code path, a few seconds per workload
TINY = replace(FULL, setup_repeats=2, train_instances=4, setup_instances=4,
               setup_field_steps=4, chunk_steps=4, min_chunks=2,
               trace_chunks=2, min_clouds=8, trace_clouds=8, min_demos=4,
               trace_demos=2, setup_demos_per_task=2, policies=2,
               policy_steps=10, tasks_per_split=1, min_rounds=2,
               trace_rounds=1)


class Checks:
    """Correctness checks counted as operations attempted / failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def error(self, what, exc):
        self.check(False, f"{what}: {type(exc).__name__}: {exc}")


@dataclass
class Run:
    """What a workload hands back to run.py."""

    metrics: dict
    values: dict
    samples: dict


@dataclass
class Unit:
    """One timed unit of a workload's loop."""

    seconds: float
    ops: int            # operations the unit did
    digest: str         # of its outputs
    payload: object = None


class Context:
    """Per-run state: seed, sizes, checks, calibration and the tracer."""

    def __init__(self, seed, seconds, sizes, tracer, workdir):
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.tracer = tracer        # None: untraced run
        self.workdir = workdir
        self.checks = Checks()
        self.overhead = []          # traced / untraced time of each pair
        self.deadline = None
        self._files = 0
        self.phase = None
        self.kernels = {}           # phase -> (kernel name, window)
        self.calibration = {}       # phase -> kernel seconds (untraced)
        self.units = {}             # phase -> [(seconds, ops, samples before)]

    def derive(self, *tags):
        return derive_seed(self.seed, *tags)

    def tracing(self):
        """Trace the block in a traced run; no-op otherwise."""
        return self.tracer.installed() if self.tracer else nullcontext()

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def fresh_path(self, name):
        """A file name not used before in this run.  Rewriting one file
        would time the disk: ext4 flushes a truncated-and-rewritten file
        on close (auto_da_alloc), tens of ms here."""
        self._files += 1
        return self.workdir / f"{self._files}-{name}"

    def enter(self, phase, kernel="mixed", window=CALIBRATION_WINDOW):
        """Start a phase calibrated by the named kernel; a unit is scaled
        by the `window` kernel samples on each side of it."""
        self.phase = phase
        self.kernels[phase] = (kernel, window)
        self.units[phase] = []

    def calibrate(self, n=1):
        """Before a timed unit: time the phase's kernel (untraced runs)."""
        if self.tracer is None:
            kernel, _ = self.kernels[self.phase]
            self.calibration.setdefault(self.phase, []).extend(
                calibration.measure(kernel) for _ in range(n))

    def unit(self, seconds, ops=1):
        """Record the time of one unit of the current phase."""
        samples = self.calibration.get(self.phase, ())
        self.units[self.phase].append((seconds, ops, len(samples)))

    def times(self, phase):
        """The phase's (unit seconds, ops) with the seconds at the
        kernel's nominal speed (as measured in traced runs, which do not
        calibrate)."""
        units = self.units.get(phase, [])
        samples = self.calibration.get(phase)
        if not samples:
            return [(s, n) for s, n, _ in units]
        kernel, window = self.kernels[phase]
        return [(s / calibration.slowdown(kernel, samples[max(0, i - window):
                                                          i + window]), n)
                for s, n, i in units]

    def set_up(self, build):
        """Run build() several times untraced (median time) or once traced.

        Returns (state, set-up seconds).  Every repeat must produce the
        same digest.
        """
        if self.tracer is not None:
            with self.tracing():
                return build(), None
        states = []
        self.enter("setup", window=2)
        for _ in range(self.sizes.setup_repeats):
            self.calibrate(2)
            t0 = time.perf_counter()
            states.append(build())
            self.unit(time.perf_counter() - t0)
        self.calibrate(2)
        self.checks.check(len({s.digest for s in states}) == 1,
                          "set-up repeats differ in digest")
        return states[-1], median(s for s, _ in self.times("setup"))

    def loop(self, unit, minimum, fixed, kernel="mixed"):
        """The timed closed loop: unit(i) -> Unit for i = 0, 1, ...

        Untraced: until the deadline and at least `minimum` units, then
        unit 0 once more, which must give the same digest.  Traced:
        exactly `fixed` units, each paired with an untraced run of it.
        Returns {i: payload} of the units that did not raise.
        """
        self.enter("timed", kernel)
        self.deadline = time.perf_counter() + self.seconds
        payloads, first = {}, None
        i = 0
        while self._keep_going(i, minimum, fixed):
            try:
                done = self._paired(i, unit)
            except OPERATION_ERRORS as exc:
                self.checks.error(f"unit {i}", exc)
            else:
                self.unit(done.seconds, done.ops)
                payloads[i] = done.payload
                if i == 0:
                    first = done.digest
            i += 1
        if self.tracer is None and first is not None:
            self.checks.check(unit(0).digest == first,
                              "repeated first unit differs in digest")
        return payloads

    def _keep_going(self, i, minimum, fixed):
        if self.tracer is not None:
            return i < fixed
        self.calibrate()
        return i < minimum or time.perf_counter() < self.deadline

    def _paired(self, i, unit):
        if self.tracer is None:
            return unit(i)
        out = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            with self.tracer.installed() if traced else nullcontext():
                out[traced] = unit(i)
        self.checks.check(out[True].digest == out[False].digest,
                          f"traced and untraced unit {i} differ")
        if out[False].seconds > 0:
            self.overhead.append(out[True].seconds / out[False].seconds)
        return out[True]

    def op_metrics(self):
        """The end-to-end metrics of the timed loop besides set-up time."""
        units = [(s, n) for s, n in self.times("timed") if n]
        if not units:
            raise RuntimeError("no timed unit succeeded; see failed checks")
        ms = [1000.0 * s / n for s, n in units]
        ops, seconds = map(sum, zip(*((n, s) for s, n in units)))
        return {"ops_per_s": ops / seconds,
                "op_ms_p50": median(ms),
                "op_ms_p90": float(np.percentile(ms, 90))}


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()


def _unit_norm(values):
    return bool(np.all(np.abs(np.linalg.norm(values, axis=1) - 1.0) <= 1e-9))


def _in_unit_interval(x):
    return bool(np.isfinite(x) and 0.0 <= x <= 1.0)


def _finite(values):
    return all(math.isfinite(x) for x in values)


@dataclass
class _TrainSet:
    clouds: list
    descs: list
    codebooks: dict
    digest: str


def _train_set(ctx, tag, instances):
    clouds = [geometry.generate_object(cat, ctx.derive(tag, cat, i),
                                       CLOUD_POINTS)
              for cat in geometry.SEEN_CATEGORIES for i in range(instances)]
    descs = [descriptors.extract_descriptors(c, K_NEIGHBORS) for c in clouds]
    codebooks = codebook.build_codebooks(
        geometry.PART_VOCAB, FIELD_RECIPE["n_dim"], ctx.derive("codebook"))
    return _TrainSet(clouds, descs, codebooks, _digest(*descs))


@dataclass
class _SetupField:
    params: object
    codebooks: dict
    losses: list
    digest: str


def _setup_field(ctx):
    """Short deterministic field training shared by the workloads that
    use a trained field."""
    data = _train_set(ctx, "setup-train", ctx.sizes.setup_instances)
    cfg = field.TrainConfig(steps=ctx.sizes.setup_field_steps,
                            seed=ctx.derive("setup-field"), **FIELD_RECIPE)
    params, history = field.train_field(data.clouds, data.codebooks, cfg,
                                        descriptors=data.descs)
    losses = [h["total"] for h in history]
    ctx.checks.check(_finite(losses), "set-up field: non-finite loss")
    return _SetupField(params, data.codebooks, losses,
                       _digest(params.flat(), losses))


# ---------------------------------------------------------------------------
# field_train: an operation is one field train step


def field_train(ctx):
    sizes = ctx.sizes
    data, setup_s = ctx.set_up(
        lambda: _train_set(ctx, "train", sizes.train_instances))

    def chunk(c):
        cfg = field.TrainConfig(steps=sizes.chunk_steps,
                                seed=ctx.derive("chunk", c), **FIELD_RECIPE)
        ckpt = ctx.fresh_path("field.ckpt")
        t0 = time.perf_counter()
        params, history = field.train_field(data.clouds, data.codebooks, cfg,
                                            descriptors=data.descs)
        field.save_field_checkpoint(ckpt, params)
        loaded = field.load_field_checkpoint(ckpt)
        dt = time.perf_counter() - t0
        ckpt.unlink()
        losses = [h["total"] for h in history]
        ctx.checks.check(_finite(losses), f"chunk {c}: non-finite loss")
        ctx.checks.check(np.array_equal(loaded.flat(), params.flat()),
                         f"chunk {c}: checkpoint round trip differs")
        return Unit(dt, sizes.chunk_steps, _digest(params.flat(), losses),
                    losses)

    done = ctx.loop(chunk, sizes.min_chunks, sizes.trace_chunks,
                    kernel="dense")
    values = {}
    if 0 in done:
        values = {"final_loss": done[0][-1],
                  "loss_trajectory_sha256": _digest(done[0]),
                  "loss_trajectory_steps": len(done[0])}
    samples = {"chunks": len(done), "steps_per_chunk": sizes.chunk_steps,
               "setup_repeats": sizes.setup_repeats}
    return Run({"setup_s": setup_s, **ctx.op_metrics()}, values, samples)


# ---------------------------------------------------------------------------
# perception: an operation is one held-out cloud


def _raw_field(desc):
    """Row-normalized raw descriptors: the baseline the field must beat."""
    norms = np.linalg.norm(desc, axis=1, keepdims=True)
    return desc / np.where(norms < 1e-12, 1.0, norms)


def _perceive(ctx, setup, cloud, previous):
    """One held-out cloud through I/O, descriptors, field, segmentation,
    retrieval and correspondence with the last cloud of its category."""
    path = ctx.fresh_path("cloud.jsonl")
    t0 = time.perf_counter()
    with ctx.span("geometry.dataset_io"):
        geometry.save_dataset(path, [cloud])
        loaded = geometry.load_dataset(path)[0]
    path.unlink()
    desc = descriptors.extract_descriptors(loaded, K_NEIGHBORS)
    ff = field.forward(setup.params, desc)
    k = len(loaded.part_names)
    seg = downstream.agglomerative_cluster(ff, target_k=k)
    miou_field = downstream.match_miou(seg, loaded.labels)
    miou_raw = downstream.match_miou(
        downstream.agglomerative_cluster(_raw_field(desc), target_k=k),
        loaded.labels)
    with ctx.span("codebook.retrieval"):
        book = setup.codebooks[loaded.category]
        sims = np.stack([codebook.query_similarity(ff, book, name)
                         for name in book.names], axis=1)
        rows = np.array([book.index(n) for n in loaded.part_names])
        want = rows[loaded.labels]
        retrieval = float(np.mean(np.argmax(sims, axis=1) == want))
    corr = None
    if previous is not None:
        prev_ff, prev_labels = previous
        corr = downstream.correspondence_part_accuracy(
            downstream.nn_correspondence(prev_ff, ff), prev_labels,
            loaded.labels)
    dt = time.perf_counter() - t0

    same = (np.array_equal(loaded.points, cloud.points)
            and np.array_equal(loaded.labels, cloud.labels)
            and loaded.part_names == cloud.part_names
            and (loaded.category, loaded.seed) == (cloud.category, cloud.seed))
    name = f"cloud {cloud.category}/{cloud.seed}"
    checks = ctx.checks
    checks.check(same, f"{name}: dataset round trip differs")
    checks.check(_unit_norm(ff.values), f"{name}: rows not unit-norm")
    checks.check(_in_unit_interval(miou_field), f"{name}: field mIoU")
    checks.check(_in_unit_interval(miou_raw), f"{name}: raw mIoU")
    checks.check(_in_unit_interval(retrieval), f"{name}: retrieval")
    if corr is not None:
        checks.check(_in_unit_interval(corr), f"{name}: correspondence")
    scores = (miou_field, miou_raw, retrieval, corr)
    return Unit(dt, 1, _digest(ff.values, seg.labels, scores), (ff, scores))


def perception(ctx):
    sizes = ctx.sizes
    setup, setup_s = ctx.set_up(lambda: _setup_field(ctx))
    cats = geometry.SEEN_CATEGORIES
    fields = {}     # index -> (field, labels) of the recent clouds

    def cloud(i):
        # input generation is not timed; cloud i is compared with cloud
        # i - len(cats), the previous one of its category
        cat = cats[i % len(cats)]
        held_out = geometry.generate_object(
            cat, ctx.derive("held-out", cat, i), CLOUD_POINTS)
        done = _perceive(ctx, setup, held_out, fields.get(i - len(cats)))
        fields[i] = (done.payload[0], held_out.labels)
        fields.pop(i - 2 * len(cats), None)
        return done

    done = ctx.loop(cloud, sizes.min_clouds, sizes.trace_clouds)
    scores = [done[i][1] for i in sorted(done) if i < sizes.min_clouds]
    values = {}
    if scores:
        cols = list(zip(*scores))
        corr = [x for x in cols[3] if x is not None]
        values = {"miou_field": float(np.mean(cols[0])),
                  "miou_raw": float(np.mean(cols[1])),
                  "retrieval_accuracy": float(np.mean(cols[2])),
                  "correspondence_accuracy":
                      float(np.mean(corr)) if corr else None,
                  "scored_clouds": len(scores),
                  "setup_field_final_loss": setup.losses[-1]}
    samples = {"clouds": len(done), "setup_repeats": sizes.setup_repeats}
    return Run({"setup_s": setup_s, **ctx.op_metrics()}, values, samples)


# ---------------------------------------------------------------------------
# demos: an operation is one scripted demo with observations attached


def demos(ctx):
    sizes = ctx.sizes
    setup, setup_s = ctx.set_up(lambda: _setup_field(ctx))

    def demo(i):
        spec = POLICY_TASKS[i % len(POLICY_TASKS)]
        t0 = time.perf_counter()
        eps, _ = cli.build_demo_episodes([spec], 1, ctx.derive("demo", i),
                                         env.PoseRanges())
        # a fresh pipeline per demo, as train-policy builds one, so the
        # field cache does not grow with the run
        ep = env.FieldPipeline(setup.codebooks, setup.params
                               ).attach_observations(eps[0])
        dt = time.perf_counter() - t0
        obs = ep.observations
        ctx.checks.check(len(ep.steps) == len(ep.chunks) > 0,
                         f"demo {i}: no observed steps")
        ctx.checks.check(_unit_norm(obs[0].field.values),
                         f"demo {i}: field rows not unit-norm")
        ctx.checks.check(bool(np.all(np.isfinite(np.stack(ep.chunks)))),
                         f"demo {i}: non-finite expert chunk")
        return Unit(dt, 1, _digest(ep.task.cloud.points, obs[0].field.values,
                                   *ep.chunks, ep.success),
                    (ep.success, len(ep.chunks)))

    done = ctx.loop(demo, sizes.min_demos, sizes.trace_demos)
    scored = [done[i] for i in sorted(done) if i < sizes.min_demos]
    values = {"expert_success": float(np.mean([s for s, _ in scored])),
              "chunks_per_demo": float(np.mean([n for _, n in scored])),
              "setup_field_final_loss": setup.losses[-1]} if scored else {}
    samples = {"demos": len(done), "setup_repeats": sizes.setup_repeats}
    return Run({"setup_s": setup_s, **ctx.op_metrics()}, values, samples)


# ---------------------------------------------------------------------------
# policy: an operation is one sampled action chunk of a rollout


@dataclass
class _PolicySetup:
    field: _SetupField
    pipe: object            # FieldPipeline, every task's scene cached
    policies: list
    final_mse: list
    tasks: list             # (split, Task)
    digest: str


def _policy_setup(ctx, schedule):
    """The train-policy path: field, demos, behaviour cloning, then the
    OS/OI/OC tasks, every scene observed once."""
    sizes = ctx.sizes
    setup = _setup_field(ctx)
    pipe = env.FieldPipeline(setup.codebooks, setup.params)
    episodes, instances = cli.build_demo_episodes(
        POLICY_TASKS, sizes.setup_demos_per_task, ctx.derive("demos"),
        env.PoseRanges())
    for ep in episodes:
        pipe.attach_observations(ep)
    policies, final_mse = [], []
    for p in range(sizes.policies):
        cfg = diffusion.PolicyTrainConfig(steps=sizes.policy_steps,
                                          temperature=POLICY_TEMPERATURE,
                                          seed=ctx.derive("policy", p))
        params, history = diffusion.train_policy(episodes, schedule, cfg)
        losses = [h["mse"] for h in history]
        ctx.checks.check(_finite(losses), f"policy {p}: non-finite loss")
        policies.append(params)
        final_mse.append(losses[-1])
    # OS reuses the demo instances under new poses
    tasks = [(split, task) for split in SPLITS
             for task in env.make_split_tasks(
                 split, POLICY_TASKS, sizes.tasks_per_split,
                 ctx.derive("split", split), train_instance_seeds=instances)]
    for _, task in tasks:
        pipe.field_for(task.cloud)
    digest = _digest(setup.digest, final_mse,
                     *[t for p in policies for t in p.tensors()],
                     *[t.cloud.points for _, t in tasks])
    return _PolicySetup(setup, pipe, policies, final_mse, tasks, digest)


def policy(ctx):
    sizes = ctx.sizes
    schedule = diffusion.make_schedule(SCHEDULE_STEPS, "linear", 1e-4, 0.02)
    setup, setup_s = ctx.set_up(lambda: _policy_setup(ctx, schedule))
    tasks, policies = setup.tasks, setup.policies
    n_tasks = len(tasks)

    def episode(j):
        split, task = tasks[j % n_tasks]
        params = policies[(j // n_tasks) % len(policies)]
        t0 = time.perf_counter()
        res = env.rollout(params, setup.pipe, task, schedule,
                          seed=ctx.derive("rollout", j))
        dt = time.perf_counter() - t0
        # env.step rejects a non-finite sampled action, so a bad chunk
        # fails the unit
        ctx.checks.check(bool(np.all(np.isfinite(res.trajectory)))
                         and math.isfinite(res.final_distance),
                         f"episode {j}: non-finite trajectory")
        # per episode: its time over its chunks, so the latency stays
        # comparable when policy success changes episode length
        chunks = math.ceil(res.env_steps / diffusion.DEFAULT_EXECUTE)
        return Unit(dt, chunks, _digest(res.trajectory, res.success),
                    (split, res.success))

    min_episodes = sizes.min_rounds * n_tasks
    done = ctx.loop(episode, min_episodes, sizes.trace_rounds * n_tasks,
                    kernel="small")
    wins = {}
    for j in sorted(done):
        if j < min_episodes:
            split, success = done[j]
            wins.setdefault(split, []).append(success)
    values = {f"success_{split}": float(np.mean(w))
              for split, w in sorted(wins.items())}
    values.update({"episodes_scored": sum(len(w) for w in wins.values()),
                   "policy_final_mse": setup.final_mse,
                   "setup_field_final_loss": setup.field.losses[-1]})
    samples = {"episodes": len(done), "tasks": n_tasks,
               "chunks": sum(n for _, n in ctx.times("timed")),
               "setup_repeats": sizes.setup_repeats}
    return Run({"setup_s": setup_s, **ctx.op_metrics()}, values, samples)


WORKLOADS = {"field_train": field_train, "perception": perception,
             "demos": demos, "policy": policy}
