"""The benchmark tracer patches package functions by name; a renamed or
bypassed function would crash or empty every traced benchmark run, so
these checks catch it in the unit suite instead."""

import importlib.util
from pathlib import Path

import numpy as np

from partfield import diffusion, env
from partfield.codebook import build_codebooks
from partfield.field import TrainConfig, train_field
from partfield.geometry import PART_VOCAB, generate_object

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    tracing = _load_tracing()
    missing = [name for name, owner, attr in tracing.SPANNED + tracing.COUNTED
               if not callable(owner.__dict__.get(attr))]
    assert not missing


def test_train_field_calls_each_traced_step_function_every_step():
    tracing = _load_tracing()
    clouds = [generate_object("bottle_with_cap", i, 96) for i in range(2)]
    books = build_codebooks(PART_VOCAB, 8, 0)
    desc = [np.random.default_rng(i).standard_normal((96, 10))
            for i in range(2)]
    cfg = TrainConfig(steps=2, points_per_part=4, instances_per_batch=2,
                      hidden=8, depth=1, n_dim=8)
    tracer = tracing.Tracer()
    with tracer.installed():
        train_field(clouds, books, cfg, descriptors=desc)
    for name in ("losses.sample_batch_indices", "field.forward",
                 "losses.loss_gradients", "losses.geometric_loss",
                 "losses.semantic_loss", "field.backward", "nn.Adam.step"):
        assert tracer.calls(name) == cfg.steps, name


def test_rollout_encodes_each_observation_once_per_chunk():
    tracing = _load_tracing()
    task = env.make_task("box_with_lid", "lid", seed=5)
    pipeline = env.FieldPipeline(env.raw_descriptor_codebooks())
    policy = diffusion.init_policy(pipeline.dim, cond_dim=8, hidden=16)
    tracer = tracing.Tracer()
    with tracer.installed():
        env.rollout(policy, pipeline, task, diffusion.make_schedule(3))
    chunks = tracer.calls("diffusion.sample_actions")
    assert chunks > 0
    assert tracer.calls("diffusion.encode_observation") == chunks
