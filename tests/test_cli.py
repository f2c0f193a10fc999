"""End-to-end checks of the command-line surface: each subcommand on a
tiny workload, config/flag merging, and the documented exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from partfield import (cli, codebook, descriptors, diffusion, env, field,
                       geometry, serialize)


def run(*argv):
    return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_writes_dataset_and_manifest(tmp_path):
    out = tmp_path / "data"
    rc = run("gen-data", "--categories", "bottle_with_cap,box_with_lid",
             "--instances", 2, "--points", 128, "--out", out)
    assert rc == 0
    clouds = geometry.load_dataset(out / "dataset.jsonl")
    assert len(clouds) == 4
    assert {c.category for c in clouds} == {"bottle_with_cap", "box_with_lid"}
    assert all(c.n_points == 128 for c in clouds)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert "dataset.jsonl" in manifest["files"]


def test_gen_data_deterministic_bytes(tmp_path):
    for name in ("a", "b"):
        rc = run("gen-data", "--categories", "bottle_with_cap",
                 "--instances", 3, "--points", 96, "--seed", 7,
                 "--out", tmp_path / name)
        assert rc == 0
    blob_a = (tmp_path / "a" / "dataset.jsonl").read_bytes()
    blob_b = (tmp_path / "b" / "dataset.jsonl").read_bytes()
    assert blob_a == blob_b


def test_gen_data_seed_changes_output(tmp_path):
    run("gen-data", "--categories", "bottle_with_cap", "--instances", 1,
        "--points", 96, "--seed", 0, "--out", tmp_path / "s0")
    run("gen-data", "--categories", "bottle_with_cap", "--instances", 1,
        "--points", 96, "--seed", 1, "--out", tmp_path / "s1")
    assert (tmp_path / "s0" / "dataset.jsonl").read_bytes() != \
        (tmp_path / "s1" / "dataset.jsonl").read_bytes()


def test_gen_data_unknown_category_is_usage_error(tmp_path):
    rc = run("gen-data", "--categories", "flying_saucer",
             "--out", tmp_path / "x")
    assert rc == cli.EXIT_USAGE


def test_gen_data_missing_categories_is_usage_error(tmp_path):
    rc = run("gen-data", "--out", tmp_path / "x")
    assert rc == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# config handling


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": 1, "bogus_knob": 5}))
    rc = run("gen-data", "--categories", "bottle_with_cap",
             "--config", cfg, "--out", tmp_path / "x")
    assert rc == cli.EXIT_USAGE


def test_config_invalid_json_is_data_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    rc = run("gen-data", "--categories", "bottle_with_cap",
             "--config", cfg, "--out", tmp_path / "x")
    assert rc == cli.EXIT_DATA


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": 5, "points": 96}))
    rc = run("gen-data", "--categories", "bottle_with_cap", "--config", cfg,
             "--instances", 2, "--out", tmp_path / "x")
    assert rc == 0
    clouds = geometry.load_dataset(tmp_path / "x" / "dataset.jsonl")
    # flag wins for instances, config wins for points
    assert len(clouds) == 2
    assert clouds[0].n_points == 96


# ---------------------------------------------------------------------------
# train-field


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = run("gen-data", "--categories", "bottle_with_cap,pot_with_handle",
             "--instances", 2, "--points", 160, "--out", out)
    assert rc == 0
    return out / "dataset.jsonl"


FIELD_CFG = {"steps": 25, "points_per_part": 8, "instances_per_batch": 2,
             "hidden": 16, "depth": 2, "n_dim": 8, "k_neighbors": 8}


@pytest.fixture(scope="module")
def tiny_field(tmp_path_factory, tiny_data):
    out = tmp_path_factory.mktemp("field")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps(FIELD_CFG))
    rc = run("train-field", "--data", tiny_data, "--config", cfg, "--out", out)
    assert rc == 0
    return out


def test_train_field_outputs(tiny_field):
    params = field.load_field_checkpoint(tiny_field / "field.ckpt")
    assert params.hidden == 16 and params.depth == 2 and params.n == 8
    books = codebook.load_codebooks(tiny_field / "codebooks.jsonl")
    assert set(books) == set(geometry.CATEGORIES)
    assert books["bottle_with_cap"].dim == 8
    log = (tiny_field / "train_log.csv").read_text().splitlines()
    assert log[0] == "step,L_geo,L_sem,total"
    assert len(log) == 1 + FIELD_CFG["steps"]
    manifest = json.loads((tiny_field / "manifest.json").read_text())
    assert set(manifest["files"]) == {"field.ckpt", "codebooks.jsonl",
                                      "train_log.csv"}


def test_train_field_ablation_blanks_sem_column(tiny_data, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FIELD_CFG, "steps": 5, "enable_sem": 0}))
    rc = run("train-field", "--data", tiny_data, "--config", cfg,
             "--out", tmp_path / "f")
    assert rc == 0
    rows = (tmp_path / "f" / "train_log.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[2] == "" for row in rows)
    assert all(row.split(",")[1] != "" for row in rows)


def test_train_field_missing_data_is_data_error(tmp_path):
    rc = run("train-field", "--data", tmp_path / "nope.jsonl",
             "--out", tmp_path / "f")
    assert rc == cli.EXIT_DATA


def _bad_record_exit_code(tmp_path, **bad):
    rec = geometry.cloud_to_record(geometry.generate_object("box_with_lid", 0, 32))
    data = tmp_path / "bad.jsonl"
    data.write_text(json.dumps({**rec, **bad}) + "\n")
    return run("train-field", "--data", data, "--out", tmp_path / "f")


def test_train_field_label_out_of_range_is_data_error(tmp_path):
    assert _bad_record_exit_code(tmp_path, labels=[5] * 32) == cli.EXIT_DATA


def test_train_field_non_integer_seed_is_data_error(tmp_path):
    assert _bad_record_exit_code(tmp_path, seed="abc") == cli.EXIT_DATA


# ---------------------------------------------------------------------------
# train-policy and rollout


POLICY_CFG = {"steps": 30, "batch_size": 4, "cond_dim": 8, "hidden": 16,
              "schedule_steps": 4}


@pytest.fixture(scope="module")
def demo_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("demos") / "demos.json"
    path.write_text(json.dumps(
        {"tasks": [["bottle_with_cap", "cap"]], "demos_per_task": 2}))
    return path


@pytest.fixture(scope="module")
def tiny_policy(tmp_path_factory, demo_spec, tiny_field):
    out = tmp_path_factory.mktemp("policy")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps(POLICY_CFG))
    rc = run("train-policy", "--demos", demo_spec, "--config", cfg,
             "--field-ckpt", tiny_field / "field.ckpt", "--out", out)
    assert rc == 0
    return out


def test_train_policy_outputs(tiny_policy):
    params, schedule = diffusion.load_policy_checkpoint(
        tiny_policy / "policy.ckpt")
    assert params.horizon == diffusion.DEFAULT_HORIZON
    assert schedule.K == POLICY_CFG["schedule_steps"]
    assert params.action_dim == 4
    log = (tiny_policy / "policy_log.csv").read_text().splitlines()
    assert log[0] == "step,mse"
    assert len(log) == 1 + POLICY_CFG["steps"]


def test_train_policy_empty_tasks_is_usage_error(tmp_path, tiny_field):
    spec = tmp_path / "demos.json"
    spec.write_text(json.dumps({"tasks": []}))
    rc = run("train-policy", "--demos", spec,
             "--field-ckpt", tiny_field / "field.ckpt", "--out", tmp_path / "p")
    assert rc == cli.EXIT_USAGE


def test_rollout_writes_split_table(tmp_path, demo_spec, tiny_policy,
                                    tiny_field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"episodes_per_split": 1, "splits": "OS,OI"}))
    out = tmp_path / "rollout.csv"
    rc = run("rollout", "--policy", tiny_policy / "policy.ckpt",
             "--field-ckpt", tiny_field / "field.ckpt",
             "--demos", demo_spec, "--config", cfg, "--out", out)
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "split,success_rate,stderr,n"
    assert sorted(r.split(",")[0] for r in rows[1:]) == ["OI", "OS"]


def _rollout(tmp_path, demo_spec, policy_ckpt, *extra):
    return run("rollout", "--policy", policy_ckpt, "--demos", demo_spec,
               "--episodes-per-split", 1, "--out", tmp_path / "rollout.csv",
               *extra)


def test_rollout_samples_with_checkpoint_schedule(tmp_path, monkeypatch,
                                                  demo_spec, tiny_policy,
                                                  tiny_field):
    seen = []
    sample_actions = env.sample_actions

    def spy(policy, obs, schedule, *args, **kwargs):
        seen.append(schedule)
        return sample_actions(policy, obs, schedule, *args, **kwargs)

    monkeypatch.setattr(env, "sample_actions", spy)
    rc = _rollout(tmp_path, demo_spec, tiny_policy / "policy.ckpt",
                  "--field-ckpt", tiny_field / "field.ckpt", "--splits", "OS")
    assert rc == 0 and seen
    trained = diffusion.make_schedule(POLICY_CFG["schedule_steps"])
    for schedule in seen:
        assert schedule.K == POLICY_CFG["schedule_steps"]
        for name in ("beta", "gamma", "beta_bar"):
            np.testing.assert_array_equal(getattr(schedule, name),
                                          getattr(trained, name))


@pytest.mark.parametrize("key", [{"schedule_steps": 4},
                                 {"learning_rate": 5.0, "hidden": 3}],
                         ids=["schedule_steps", "learning_rate+hidden"])
def test_rollout_training_config_key_rejected(tmp_path, demo_spec,
                                              tiny_policy, tiny_field, key):
    rc = _rollout(tmp_path, demo_spec, tiny_policy / "policy.ckpt",
                  "--field-ckpt", tiny_field / "field.ckpt",
                  "--config", json_file(tmp_path, key))
    assert rc == cli.EXIT_USAGE


def test_rollout_policy_feature_dim_mismatch_is_usage_error(
        tmp_path, demo_spec, tiny_policy):
    # trained on the 8-dim field, rolled out on 10-dim raw descriptors
    rc = _rollout(tmp_path, demo_spec, tiny_policy / "policy.ckpt")
    assert rc == cli.EXIT_USAGE


def test_rollout_unknown_split_is_usage_error(tmp_path, demo_spec,
                                              tiny_policy, tiny_field):
    rc = _rollout(tmp_path, demo_spec, tiny_policy / "policy.ckpt",
                  "--field-ckpt", tiny_field / "field.ckpt",
                  "--splits", "OS,Os,bogus")
    assert rc == cli.EXIT_USAGE
    assert not (tmp_path / "rollout.csv").exists()


def _rewrite_checkpoint(src, dst, magic, edit):
    meta, arrays = serialize.load_arrays(src, magic)
    serialize.save_arrays(dst, magic, *edit(meta, arrays))


def _drop(key):
    return lambda meta, arrays: ({k: v for k, v in meta.items() if k != key},
                                 arrays)


def _set(key, value):
    return lambda meta, arrays: ({**meta, key: value}, arrays)


def _drop_last_bias(meta, arrays):
    return meta, arrays[:-1]


def _shrink_first_weight(meta, arrays):
    return meta, [arrays[0][:-1]] + arrays[1:]


@pytest.mark.parametrize("edit", [
    _drop("hidden"), _set("hidden", "16"), _drop("k_neighbors"),
    _set("k_neighbors", 2), _drop_last_bias, _shrink_first_weight],
    ids=["no_hidden", "str_hidden", "no_k", "k_2", "no_last_bias",
         "short_W0"])
def test_export_ply_bad_field_checkpoint_is_data_error(tmp_path, tiny_field,
                                                       edit):
    ckpt_dir = tmp_path / "ckpt"
    ckpt_dir.mkdir()
    _rewrite_checkpoint(tiny_field / "field.ckpt", ckpt_dir / "field.ckpt",
                        field.FIELD_MAGIC, edit)
    (ckpt_dir / "codebooks.jsonl").write_text(
        (tiny_field / "codebooks.jsonl").read_text())
    rc = run("export-ply", "--field-ckpt", ckpt_dir / "field.ckpt",
             "--out", tmp_path / "x.ply",
             "--config", json_file(tmp_path, {"points": 128}))
    assert rc == cli.EXIT_DATA


@pytest.mark.parametrize("edit", [
    _drop("horizon"), _set("feat_dim", 8.0), _drop("gamma"),
    _set("gamma", [0.5, 1.5]), _set("gamma", "linear"), _drop_last_bias,
    _shrink_first_weight],
    ids=["no_horizon", "float_feat_dim", "no_gamma", "gamma_1.5",
         "str_gamma", "no_last_bias", "short_W0"])
def test_rollout_bad_policy_checkpoint_is_data_error(tmp_path, demo_spec,
                                                     tiny_policy, tiny_field,
                                                     edit):
    ckpt = tmp_path / "policy.ckpt"
    _rewrite_checkpoint(tiny_policy / "policy.ckpt", ckpt,
                        diffusion.POLICY_MAGIC, edit)
    rc = _rollout(tmp_path, demo_spec, ckpt,
                  "--field-ckpt", tiny_field / "field.ckpt")
    assert rc == cli.EXIT_DATA


# ---------------------------------------------------------------------------
# evaluation commands


def test_eval_seg_writes_table(tmp_path, tiny_data, tiny_field):
    out = tmp_path / "seg.csv"
    rc = run("eval-seg", "--data", tiny_data,
             "--field-ckpt", tiny_field / "field.ckpt", "--out", out)
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "category,seed,miou_field,miou_raw"
    assert len(rows) == 5
    for row in rows[1:]:
        parts = row.split(",")
        assert 0.0 <= float(parts[2]) <= 1.0
        assert 0.0 <= float(parts[3]) <= 1.0


def test_eval_seg_unread_config_key_rejected(tmp_path, tiny_data, tiny_field):
    # eval-seg reads no config key, so it takes no --config at all
    with pytest.raises(SystemExit) as info:
        run("eval-seg", "--data", tiny_data,
            "--field-ckpt", tiny_field / "field.ckpt",
            "--out", tmp_path / "seg.csv",
            "--config", json_file(tmp_path, {"k_neighbors": 8}))
    assert info.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize("command", ["eval-seg", "eval-corr", "export-ply"])
def test_seed_flag_rejected_where_unread(tmp_path, tiny_data, tiny_field,
                                         command):
    data = ["--data", tiny_data] if command.startswith("eval") else []
    with pytest.raises(SystemExit) as info:
        run(command, *data, "--field-ckpt", tiny_field / "field.ckpt",
            "--out", tmp_path / "x", "--seed", 1)
    assert info.value.code == cli.EXIT_USAGE


def test_field_checkpoint_k_drives_pipeline(tiny_field):
    params = field.load_field_checkpoint(tiny_field / "field.ckpt")
    assert params.k_neighbors == FIELD_CFG["k_neighbors"] == 8
    pipeline = cli._pipeline_from(tiny_field / "field.ckpt")
    cloud = geometry.generate_object("box_with_lid", 3, 128)
    got = pipeline.field_for(cloud).values
    np.testing.assert_array_equal(
        got, field.forward(params, descriptors.extract_descriptors(
            cloud, 8)).values)
    assert not np.array_equal(
        got, field.forward(params, descriptors.extract_descriptors(
            cloud, 16)).values)


def test_eval_corr_writes_table(tmp_path, tiny_data, tiny_field):
    out = tmp_path / "corr.csv"
    rc = run("eval-corr", "--data", tiny_data,
             "--field-ckpt", tiny_field / "field.ckpt", "--out", out)
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "category,seed_a,seed_b,part_accuracy"
    assert len(rows) == 3  # one pair per category


def test_eval_corr_single_cloud_is_usage_error(tmp_path, tiny_field):
    run("gen-data", "--categories", "bottle_with_cap", "--instances", 1,
        "--points", 96, "--out", tmp_path / "one")
    rc = run("eval-corr", "--data", tmp_path / "one" / "dataset.jsonl",
             "--field-ckpt", tiny_field / "field.ckpt",
             "--out", tmp_path / "corr.csv")
    assert rc == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# export-ply


def test_export_ply_pca_colors(tmp_path, tiny_field):
    out = tmp_path / "cloud.ply"
    rc = run("export-ply", "--field-ckpt", tiny_field / "field.ckpt",
             "--category", "box_with_lid", "--instance-seed", 3, "--out", out,
             "--config", json_file(tmp_path, {"points": 128}))
    assert rc == 0
    cloud = geometry.load_cloud_ply(out)
    assert cloud.n_points == 128
    assert cloud.category == "box_with_lid"


def test_export_ply_unread_config_key_rejected(tmp_path, tiny_field):
    rc = run("export-ply", "--field-ckpt", tiny_field / "field.ckpt",
             "--out", tmp_path / "x.ply",
             "--config", json_file(tmp_path, {"mode": "pca"}))
    assert rc == cli.EXIT_USAGE


def test_export_ply_query_heatmap(tmp_path, tiny_field):
    out = tmp_path / "heat.ply"
    rc = run("export-ply", "--field-ckpt", tiny_field / "field.ckpt",
             "--category", "pot_with_handle", "--instance-seed", 1,
             "--query", "handle", "--out", out,
             "--config", json_file(tmp_path, {"points": 128}))
    assert rc == 0
    assert out.read_bytes().startswith(b"ply\n")


def test_export_ply_unknown_query_is_data_error(tmp_path, tiny_field):
    rc = run("export-ply", "--field-ckpt", tiny_field / "field.ckpt",
             "--category", "pot_with_handle", "--instance-seed", 1,
             "--query", "wing", "--out", tmp_path / "x.ply",
             "--config", json_file(tmp_path, {"points": 128}))
    assert rc == cli.EXIT_DATA


def _export_with_broken_ckpt(tmp_path, tiny_field, ckpt_tail=b"",
                             codebooks=None):
    ckpt_dir = tmp_path / "ckpt"
    ckpt_dir.mkdir()
    (ckpt_dir / "field.ckpt").write_bytes(
        (tiny_field / "field.ckpt").read_bytes() + ckpt_tail)
    (ckpt_dir / "codebooks.jsonl").write_text(
        codebooks if codebooks is not None
        else (tiny_field / "codebooks.jsonl").read_text())
    return run("export-ply", "--field-ckpt", ckpt_dir / "field.ckpt",
               "--out", tmp_path / "x.ply",
               "--config", json_file(tmp_path, {"points": 128}))


def test_export_ply_checkpoint_trailing_bytes_is_data_error(tmp_path,
                                                            tiny_field):
    rc = _export_with_broken_ckpt(tmp_path, tiny_field, ckpt_tail=b"\0" * 8)
    assert rc == cli.EXIT_DATA


def test_export_ply_corrupt_codebook_line_is_data_error(tmp_path, tiny_field):
    rc = _export_with_broken_ckpt(tmp_path, tiny_field,
                                  codebooks="{not json\n")
    assert rc == cli.EXIT_DATA


def test_export_ply_codebook_missing_key_is_data_error(tmp_path, tiny_field):
    rc = _export_with_broken_ckpt(tmp_path, tiny_field,
                                  codebooks='{"category": "box_with_lid"}\n')
    assert rc == cli.EXIT_DATA


def json_file(tmp_path, payload):
    path = tmp_path / "extra_cfg.json"
    path.write_text(json.dumps(payload))
    return path
