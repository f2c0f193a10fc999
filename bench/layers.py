"""Per-layer metrics of a traced run and the workloads each is mapped to.

A metric is mapped to the workloads whose end-to-end numbers it should
move (see README.md).  A mapped metric that records no sample fails the
run, so a renamed or bypassed function cannot read as a silent zero.
Units and directions live in BENCHMARK.json.
"""

ALL = ("demos", "field_train", "perception", "policy")
FIELD = ("field_train",)
PERCEPTION = ("perception",)
DEMOS = ("demos",)
POLICY = ("policy",)


def _calls(span):
    return lambda t: (t.calls(span), t.calls(span))


def _p50(span):
    return lambda t: (t.ms_p50(span), t.calls(span))


def _obs_p50(key):
    return lambda t: (t.observed_ms_p50(key), t.samples(key))


def _obs_mean(key):
    return lambda t: (t.observed_mean(key), t.samples(key))


def _self_s(span):
    return lambda t: (t.self_s.get(span, 0.0), t.calls(span))


# name -> (mapped workloads, tracer -> (value, sample count))
PER_LAYER = {
    "geometry.generate_object.calls":
        (ALL, _calls("geometry.generate_object")),
    "geometry.generate_object.ms_p50": (ALL, _p50("geometry.generate_object")),
    "geometry.farthest_point_sample.calls":
        (DEMOS + POLICY, _calls("geometry.farthest_point_sample")),
    "geometry.farthest_point_sample.ms_p50":
        (DEMOS + POLICY, _p50("geometry.farthest_point_sample")),
    "geometry.dataset_io.ms": (PERCEPTION, _p50("geometry.dataset_io")),
    "descriptors.extract_descriptors.calls":
        (ALL, _calls("descriptors.extract_descriptors")),
    "descriptors.extract_descriptors.ms_p50":
        (ALL, _p50("descriptors.extract_descriptors")),
    "descriptors.extract_descriptors.self_s":
        (ALL, _self_s("descriptors.extract_descriptors")),
    "field.forward.calls": (ALL, _calls("field.forward")),
    "field.forward.rows_mean": (ALL, _obs_mean("field.forward.rows")),
    "field.forward.ms_p50": (ALL, _p50("field.forward")),
    "field.backward.ms_p50": (FIELD, _p50("field.backward")),
    "field.train_step.ms_p50": (FIELD, _obs_p50("field.train_step")),
    "losses.sample_batch_indices.ms_p50":
        (FIELD, _p50("losses.sample_batch_indices")),
    "losses.geometric_loss.ms_p50": (FIELD, _p50("losses.geometric_loss")),
    "losses.semantic_loss.ms_p50": (FIELD, _p50("losses.semantic_loss")),
    "losses.loss_gradients.ms_p50": (FIELD, _p50("losses.loss_gradients")),
    "losses.batch_rows_mean": (FIELD, _obs_mean("losses.batch_rows")),
    "nn.Adam.step.ms_p50": (FIELD + POLICY, _p50("nn.Adam.step")),
    "nn.mlp_forward.calls": (POLICY, _calls("nn.mlp_forward")),
    "downstream.agglomerative_cluster.ms_p50":
        (PERCEPTION, _p50("downstream.agglomerative_cluster")),
    "downstream.match_miou.ms_p50":
        (PERCEPTION, _p50("downstream.match_miou")),
    "downstream.nn_correspondence.ms_p50":
        (PERCEPTION, _p50("downstream.nn_correspondence")),
    "codebook.retrieval.ms_p50": (PERCEPTION, _p50("codebook.retrieval")),
    "diffusion.sample_actions.calls":
        (POLICY, _calls("diffusion.sample_actions")),
    "diffusion.sample_actions.ms_p50":
        (POLICY, _p50("diffusion.sample_actions")),
    "diffusion.policy_forward.calls_per_chunk":
        (POLICY, _obs_mean("diffusion.policy_forward.per_chunk")),
    "diffusion.encode_observation.calls_per_chunk":
        (POLICY, _obs_mean("diffusion.encode_observation.per_chunk")),
    "diffusion.train_policy.step_ms_p50":
        (POLICY, _obs_p50("diffusion.train_policy.step")),
    "env.FieldPipeline.field_for.calls":
        (DEMOS + POLICY, _calls("env.FieldPipeline.field_for")),
    "env.FieldPipeline.field_for.hit_ratio":
        (DEMOS + POLICY, _obs_mean("env.field_for.hit")),
    "env.FieldPipeline.field_for.miss_ms_p50":
        (DEMOS + POLICY, _obs_p50("env.field_for.miss")),
    "env.make_task.ms_p50": (DEMOS + POLICY, _p50("env.make_task")),
    "env.scripted_expert.ms_p50":
        (DEMOS + POLICY, _p50("env.scripted_expert")),
    "env.FieldPipeline.attach_observations.ms_p50":
        (DEMOS + POLICY, _p50("env.FieldPipeline.attach_observations")),
    "env.rollout.self_ms_p50": (POLICY, _obs_p50("env.rollout.self")),
    "env.step.calls": (POLICY, _calls("env.step")),
    "serialize.save_arrays.ms": (FIELD, _p50("serialize.save_arrays")),
    "serialize.load_arrays.ms": (FIELD, _p50("serialize.load_arrays")),
}


def per_layer_metrics(tracer, workload):
    """(values, names of mapped metrics that recorded no sample)."""
    values, empty = {}, []
    for name, (mapped, compute) in PER_LAYER.items():
        value, n = compute(tracer)
        values[name] = value
        if workload in mapped and n == 0:
            empty.append(name)
    return values, empty
