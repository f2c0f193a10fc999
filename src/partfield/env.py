"""Kinematic part-reaching environment with a scripted expert.

A point agent (position + gripper scalar, no dynamics) must reach the
centroid of a named part of a posed, procedurally generated object.
Per-step motion is clipped to 0.02 m per axis.  The scripted expert
walks a straight line to the target; episodes are its state/chunk pairs
(DEFAULT_HORIZON actions a chunk).  A rollout executes the first
DEFAULT_EXECUTE actions of each sampled chunk before sampling the next.

Generalization splits mirror pose / instance / category novelty:
OS = training instances under new poses, OI = unseen instances of seen
categories, OC = the held-out unseen category.
"""

import csv
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .codebook import PartNameCodebook, build_codebooks
from .descriptors import D_IN, extract_descriptors
from .diffusion import (DEFAULT_EXECUTE, DEFAULT_HORIZON, Observation,
                        sample_actions)
from .errors import InvalidArgumentError
from .field import FeatureField, RefineNetParams, forward, normalize_rows
from .geometry import (PART_VOCAB, PartLabeledCloud, RigidPose, apply_pose,
                       farthest_point_sample, generate_object,
                       rotation_about_z)
from .rng import derive_seed, rng_from

STEP_LIMIT = 0.02          # per-axis motion clip, meters
SUCCESS_RADIUS = 0.03
MAX_STEPS = 80
CLOUD_POINTS = 1024        # observation cloud size after downsampling
RAW_POINTS = 2048          # generator resolution before downsampling
SPLITS = ("OS", "OI", "OC")


@dataclass
class PoseRanges:
    """Uniform pose randomization: |yaw| and per-axis |xy translation|."""

    yaw: float = math.pi
    translation: float = 0.08


@dataclass
class Task:
    cloud: PartLabeledCloud     # posed, downsampled scene
    target_part: str
    target_point: np.ndarray
    start_state: np.ndarray     # (4,) position + gripper
    success_radius: float = SUCCESS_RADIUS
    max_steps: int = MAX_STEPS
    instance_seed: int = 0

    def distance(self, state) -> float:
        return float(np.linalg.norm(np.asarray(state)[:3] - self.target_point))


@dataclass
class Episode:
    """(Observation, clean action chunk) pairs plus metadata.

    Observations start as None placeholders (agent states only) until a
    FieldPipeline attaches encoded scenes; `steps` then yields the
    (Observation, chunk) view consumed by the policy trainer.
    """

    task: Task
    agent_states: list          # state at each chunk start
    chunks: list                # (H, 4) arrays
    success: bool
    observations: list = dc_field(default_factory=list)

    @property
    def steps(self):
        if len(self.observations) != len(self.chunks):
            raise InvalidArgumentError(
                "episode has no attached observations; run a FieldPipeline")
        return list(zip(self.observations, self.chunks))


def make_task(category: str, part: str, seed: int,
              pose_ranges: PoseRanges = None,
              instance_seed: int = None) -> Task:
    """Seeded task: seeded instance geometry + seeded pose + start state.

    instance_seed defaults to a value derived from `seed`; passing it
    explicitly lets a split reuse training instances under new poses.
    """
    if part not in PART_VOCAB.get(category, ()):
        raise InvalidArgumentError(f"part {part!r} not in {category!r} vocabulary")
    pose_ranges = pose_ranges or PoseRanges()
    if instance_seed is None:
        instance_seed = derive_seed(seed, "instance", category)
    raw = generate_object(category, instance_seed, RAW_POINTS)
    cloud = raw.subset(farthest_point_sample(raw, CLOUD_POINTS, start=0))
    rng = rng_from(seed, "task-pose", category, part)
    yaw = float(rng.uniform(-pose_ranges.yaw, pose_ranges.yaw))
    shift = rng.uniform(-pose_ranges.translation, pose_ranges.translation, size=2)
    pose = RigidPose(rotation_about_z(yaw), np.array([shift[0], shift[1], 0.0]))
    posed = apply_pose(cloud, pose)
    label = posed.part_names.index(part)
    target = posed.points[posed.labels == label].mean(axis=0)
    start = np.array([rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
                      rng.uniform(0.35, 0.45), 0.0])
    return Task(posed, part, target, start, instance_seed=instance_seed)


def step(agent_state, action) -> np.ndarray:
    """position += clip(delta, +-0.02 per axis); gripper clamped to [0, 1]."""
    action = np.asarray(action, dtype=np.float64)
    if not np.all(np.isfinite(action)):
        raise InvalidArgumentError("action must be finite")
    out = np.asarray(agent_state, dtype=np.float64).copy()
    out[:3] += np.clip(action[:3], -STEP_LIMIT, STEP_LIMIT)
    out[3] = np.clip(action[3], 0.0, 1.0)
    return out


def scripted_expert(task: Task) -> Episode:
    """Straight-line expert, chunked into DEFAULT_HORIZON-step blocks.

    Actions after the target is reached are zero padding.  Always
    terminates inside the success radius (asserted).
    """
    state = task.start_state.copy()
    actions = []
    for _ in range(task.max_steps):
        if task.distance(state) < task.success_radius * 0.5:
            break
        delta = np.clip(task.target_point - state[:3], -STEP_LIMIT, STEP_LIMIT)
        actions.append(np.concatenate([delta, [0.0]]))
        state = step(state, actions[-1])
    if task.distance(state) >= task.success_radius:
        raise InvalidArgumentError(
            f"expert failed to reach target within {task.max_steps} steps "
            f"(final distance {task.distance(state):.4f})")
    n_chunks = max(1, math.ceil(len(actions) / DEFAULT_HORIZON))
    chunks, states = [], []
    replay = task.start_state.copy()
    for c in range(n_chunks):
        states.append(replay.copy())
        block = actions[c * DEFAULT_HORIZON:(c + 1) * DEFAULT_HORIZON]
        chunk = np.zeros((DEFAULT_HORIZON, 4))
        for i, a in enumerate(block):
            chunk[i] = a
            replay = step(replay, a)
        chunks.append(chunk)
    return Episode(task, states, chunks, success=True)


# ---------------------------------------------------------------------------
# observation pipelines

class FieldPipeline:
    """Turns scene clouds into Observations for the policy.

    With refine-net params the features are the trained field, on
    descriptors at the k the params record; with params=None the raw
    geometric descriptors at the default k (row-normalized, zero rows to
    e1) stand in as the baseline conditioning.  Codebooks must match the
    feature dimension.
    """

    def __init__(self, codebooks: dict, params: RefineNetParams = None):
        self.params = params
        self.codebooks = codebooks
        self._cache = {}

    @property
    def dim(self) -> int:
        """Feature dimension of the observations."""
        return D_IN if self.params is None else self.params.n

    @property
    def field_record(self):
        """The features' identity, as a policy checkpoint records it:
        None for the raw baseline, else the field's descriptor k and the
        sha256 of its weights."""
        if self.params is None:
            return None
        return {"k_neighbors": self.params.k_neighbors,
                "sha256": self.params.sha256()}

    def field_for(self, cloud: PartLabeledCloud) -> FeatureField:
        # keyed on content: the field depends only on the points (plus
        # the params, fixed per pipeline), and an id() can be reused
        key = cloud.points.tobytes()
        if key not in self._cache:
            if self.params is not None:
                desc = extract_descriptors(cloud, self.params.k_neighbors)
                self._cache[key] = forward(self.params, desc)
            else:
                desc = extract_descriptors(cloud)
                self._cache[key] = FeatureField(normalize_rows(desc)[0])
        return self._cache[key]

    def part_query(self, category: str, part: str) -> np.ndarray:
        return self.codebooks[category].vector(part)

    def observe(self, task: Task, agent_state) -> Observation:
        return Observation(self.field_for(task.cloud), task.cloud.points,
                           np.asarray(agent_state, dtype=np.float64),
                           self.part_query(task.cloud.category, task.target_part))

    def attach_observations(self, episode: Episode) -> Episode:
        episode.observations = [self.observe(episode.task, s)
                                for s in episode.agent_states]
        return episode


def raw_descriptor_codebooks(dim: int = 10, seed: int = 0) -> dict:
    """Part-name codebooks in descriptor space for the baseline pipeline."""
    return build_codebooks(PART_VOCAB, dim, seed)


# ---------------------------------------------------------------------------
# rollouts and splits

@dataclass
class RolloutResult:
    success: bool
    final_distance: float
    trajectory: np.ndarray      # visited agent states, (T+1, 4)
    env_steps: int


def rollout(policy, pipeline: FieldPipeline, task: Task, schedule,
            mode: str = "ddim_deterministic", seed: int = 0) -> RolloutResult:
    """Alternate chunk sampling and env stepping until success or the
    step budget runs out; success = final distance < success_radius."""
    state = task.start_state.copy()
    traj = [state.copy()]
    steps_taken = 0
    chunk_idx = 0
    success = task.distance(state) < task.success_radius
    while not success and steps_taken < task.max_steps:
        obs = pipeline.observe(task, state)
        chunk = sample_actions(policy, obs, schedule, mode,
                               seed=derive_seed(seed, "rollout-chunk", chunk_idx))
        for action in chunk[:DEFAULT_EXECUTE]:
            state = step(state, action)
            traj.append(state.copy())
            steps_taken += 1
            if task.distance(state) < task.success_radius:
                success = True
                break
            if steps_taken >= task.max_steps:
                break
        chunk_idx += 1
    return RolloutResult(success, task.distance(state), np.stack(traj),
                         steps_taken)


def make_split_tasks(split: str, task_specs, n_tasks: int, seed: int,
                     train_instance_seeds: dict = None,
                     pose_ranges: PoseRanges = None) -> list:
    """Tasks for one generalization split.

    task_specs: list of (category, part) pairs covering the seen tasks.
    OS reuses train_instance_seeds[(category, part)] (new poses only);
    OI derives fresh instance seeds; OC targets the unseen category.
    """
    if split not in SPLITS:
        raise InvalidArgumentError(f"unknown split {split!r}; choose from {SPLITS}")
    if n_tasks < 1:
        raise InvalidArgumentError("n_tasks must be >= 1")
    tasks = []
    for i in range(n_tasks):
        if split == "OC":
            category, part = "microwave_with_door", "handle"
        else:
            category, part = task_specs[i % len(task_specs)]
        task_seed = derive_seed(seed, "split", split, category, part, i)
        if split == "OS":
            if not train_instance_seeds:
                raise InvalidArgumentError("OS split needs train instance seeds")
            pool = train_instance_seeds[(category, part)]
            inst = pool[i % len(pool)]
        elif split == "OI":
            inst = derive_seed(seed, "oi-instance", category, i)
        else:
            inst = derive_seed(seed, "oc-instance", i)
        tasks.append(make_task(category, part, task_seed, pose_ranges,
                               instance_seed=inst))
    return tasks


def evaluate_splits(policy, pipeline: FieldPipeline, schedule,
                    splits: dict, mode: str = "ddim_deterministic",
                    seed: int = 0) -> dict:
    """Success mean +- stderr per split name -> (mean, stderr, n)."""
    out = {}
    for name, tasks in splits.items():
        if not tasks:
            raise InvalidArgumentError(f"split {name!r} is empty")
        wins = np.array([
            rollout(policy, pipeline, task, schedule, mode,
                    seed=derive_seed(seed, "eval", name, i)).success
            for i, task in enumerate(tasks)], dtype=float)
        stderr = float(wins.std(ddof=1) / math.sqrt(len(wins))) \
            if len(wins) > 1 else 0.0
        out[name] = (float(wins.mean()), stderr, len(wins))
    return out


def write_split_table(path, table: dict) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["split", "success_rate", "stderr", "n"])
        for name in sorted(table):
            mean, stderr, n = table[name]
            writer.writerow([name, repr(mean), repr(stderr), n])
