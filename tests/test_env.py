import numpy as np
import pytest

from partfield.descriptors import DEFAULT_K_NEIGHBORS, extract_descriptors
from partfield.diffusion import make_schedule
from partfield.env import (CLOUD_POINTS, MAX_STEPS, STEP_LIMIT,
                           SUCCESS_RADIUS, FieldPipeline, PoseRanges,
                           Episode, evaluate_splits, make_split_tasks,
                           make_task, raw_descriptor_codebooks, rollout,
                           scripted_expert, step, write_split_table)
from partfield.errors import InvalidArgumentError
from partfield.geometry import generate_object
from partfield.rng import derive_seed


def test_constants():
    assert STEP_LIMIT == 0.02
    assert SUCCESS_RADIUS == 0.03
    assert MAX_STEPS == 80
    assert CLOUD_POINTS == 1024


def test_make_task_deterministic():
    a = make_task("box_with_lid", "lid", seed=3)
    b = make_task("box_with_lid", "lid", seed=3)
    np.testing.assert_array_equal(a.cloud.points, b.cloud.points)
    np.testing.assert_array_equal(a.target_point, b.target_point)
    np.testing.assert_array_equal(a.start_state, b.start_state)
    assert len(a.cloud.points) == CLOUD_POINTS


def test_make_task_pose_randomization():
    a = make_task("box_with_lid", "lid", seed=3)
    b = make_task("box_with_lid", "lid", seed=4, instance_seed=a.instance_seed)
    # same instance, different pose: point sets differ, pairwise shape same
    assert not np.allclose(a.cloud.points, b.cloud.points)
    da = np.linalg.norm(a.cloud.points[0] - a.cloud.points[100])
    db = np.linalg.norm(b.cloud.points[0] - b.cloud.points[100])
    assert abs(da - db) < 1e-9


def test_make_task_target_is_part_centroid():
    task = make_task("pot_with_handle", "lid", seed=1)
    label = task.cloud.part_names.index("lid")
    centroid = task.cloud.points[task.cloud.labels == label].mean(axis=0)
    np.testing.assert_allclose(task.target_point, centroid, atol=1e-12)


def test_make_task_rejects_bad_part():
    with pytest.raises(InvalidArgumentError):
        make_task("box_with_lid", "door", seed=0)


def test_step_clips_per_axis():
    state = np.zeros(4)
    out = step(state, np.array([0.5, -0.5, 0.001, 2.0]))
    np.testing.assert_allclose(out[:3], [STEP_LIMIT, -STEP_LIMIT, 0.001],
                               atol=1e-15)
    assert out[3] == 1.0
    np.testing.assert_array_equal(state, np.zeros(4))  # no mutation


def test_scripted_expert_reaches_target():
    task = make_task("bottle_with_cap", "cap", seed=2)
    episode = scripted_expert(task)
    assert episode.success
    final = episode.agent_states[0].copy()
    for chunk in episode.chunks:
        for action in chunk:
            final = step(final, action)
    assert task.distance(final) < SUCCESS_RADIUS
    for chunk in episode.chunks:
        assert chunk.shape[1] == 4
        assert np.all(np.abs(chunk[:, :3]) <= STEP_LIMIT + 1e-12)


def test_scripted_expert_deterministic():
    task = make_task("bottle_with_cap", "cap", seed=2)
    a = scripted_expert(task)
    b = scripted_expert(task)
    for ca, cb in zip(a.chunks, b.chunks):
        np.testing.assert_array_equal(ca, cb)


class _ExpertReplay:
    """Stands in for a trained policy: replays the expert's chunks."""

    def __init__(self, task):
        self.chunks = scripted_expert(task).chunks
        self.i = 0
        self.horizon = 16
        self.action_dim = 4

    def __call__(self, obs, schedule, mode, seed):
        chunk = self.chunks[min(self.i, len(self.chunks) - 1)]
        self.i += 1
        return chunk


class _Frozen:
    horizon = 16
    action_dim = 4

    def __call__(self, obs, schedule, mode, seed):
        return np.zeros((16, 4))


def _pipeline():
    return FieldPipeline(raw_descriptor_codebooks())


@pytest.fixture
def fake_sampler(monkeypatch):
    """Route chunk sampling through the callable test policies above."""
    import partfield.env as env_mod

    def sampler(policy, obs, schedule, mode, seed):
        return policy(obs, schedule, mode, seed)

    monkeypatch.setattr(env_mod, "sample_actions", sampler)


def test_rollout_expert_replay_succeeds(fake_sampler):
    task = make_task("box_with_lid", "lid", seed=5)
    res = rollout(_ExpertReplay(task), _pipeline(), task, make_schedule(5))
    assert res.success
    assert res.final_distance < SUCCESS_RADIUS


def test_rollout_frozen_policy_fails(fake_sampler):
    task = make_task("box_with_lid", "lid", seed=5)
    res = rollout(_Frozen(), _pipeline(), task, make_schedule(5))
    assert not res.success
    assert res.env_steps <= MAX_STEPS


def test_success_monotone_in_radius(fake_sampler):
    task = make_task("box_with_lid", "lid", seed=6)
    loose = make_task("box_with_lid", "lid", seed=6)
    loose.success_radius = 1.0
    assert rollout(_Frozen(), _pipeline(), loose, make_schedule(5)).success


def test_pipeline_attach_observations():
    task = make_task("pot_with_handle", "handle", seed=7)
    episode = scripted_expert(task)
    with pytest.raises(InvalidArgumentError):
        episode.steps
    pipeline = _pipeline()
    pipeline.attach_observations(episode)
    steps = episode.steps
    assert len(steps) == len(episode.chunks)
    obs = steps[0][0]
    assert obs.field.values.shape[0] == CLOUD_POINTS
    np.testing.assert_allclose(np.linalg.norm(obs.field.values, axis=1),
                               1.0, atol=1e-9)
    # the raw baseline is each descriptor row divided by its norm
    desc = extract_descriptors(task.cloud, DEFAULT_K_NEIGHBORS)
    np.testing.assert_array_equal(
        obs.field.values, desc / np.linalg.norm(desc, axis=1, keepdims=True))


def test_pipeline_cache_never_returns_another_clouds_field():
    # fresh clouds are freed after each lookup, so their ids get reused;
    # the cache must still answer for the cloud it is given
    pipeline = _pipeline()
    stale = 0
    for seed in range(40):
        cloud = generate_object("box_with_lid", seed, 64)
        got = pipeline.field_for(cloud).values
        stale += not np.array_equal(got, _pipeline().field_for(cloud).values)
    assert stale == 0


def test_split_instance_disjointness():
    specs = [("box_with_lid", "lid"), ("pot_with_handle", "handle")]
    train_seeds = {spec: [derive_seed(0, "train-inst", *spec, i)
                          for i in range(3)] for spec in specs}
    os_tasks = make_split_tasks("OS", specs, 4, seed=1,
                                train_instance_seeds=train_seeds)
    oi_tasks = make_split_tasks("OI", specs, 4, seed=1)
    oc_tasks = make_split_tasks("OC", specs, 2, seed=1)
    os_inst = {t.instance_seed for t in os_tasks}
    oi_inst = {t.instance_seed for t in oi_tasks}
    assert os_inst <= {s for pool in train_seeds.values() for s in pool}
    assert not (os_inst & oi_inst)
    assert all(t.cloud.category == "microwave_with_door" for t in oc_tasks)


@pytest.mark.parametrize("split", ["Os", "bogus", ""])
def test_split_name_must_be_known(split):
    with pytest.raises(InvalidArgumentError):
        make_split_tasks(split, [("box_with_lid", "lid")], 2, seed=0)


def test_split_requires_train_seeds_for_os():
    with pytest.raises(InvalidArgumentError):
        make_split_tasks("OS", [("box_with_lid", "lid")], 2, seed=0)


def test_evaluate_splits_and_table(tmp_path, fake_sampler):
    specs = [("box_with_lid", "lid")]
    tasks = make_split_tasks("OI", specs, 3, seed=2)
    table = evaluate_splits(_Frozen(), _pipeline(), make_schedule(3),
                            {"OI": tasks})
    mean, stderr, n = table["OI"]
    assert mean == 0.0 and n == 3
    path = tmp_path / "t.csv"
    write_split_table(path, table)
    text = path.read_text()
    assert "OI" in text and text.startswith("split")


def test_evaluate_splits_rejects_empty():
    with pytest.raises(InvalidArgumentError):
        evaluate_splits(_Frozen(), _pipeline(), make_schedule(3), {"OI": []})
