"""Command-line surface: dataset generation, training, evaluation, and
PLY export.

Every command except eval-seg and eval-corr takes an optional --config
JSON file whose keys must all be ones the command reads (any other key
is a usage error); explicit flags win over config values.  The commands
that draw random numbers (gen-data, train-field, train-policy, rollout)
take a --seed that fans out to per-module seeds through the documented
derive_seed(seed, *tags) scheme, so each command is reproducible in
isolation.  Settings a checkpoint was trained with (the field's
descriptor k, the policy's noise schedule) come from the checkpoint and
are not options of the commands that load it.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 numerical
failure.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import codebook as cb
from . import descriptors, diffusion, downstream, env, field, geometry
from .errors import FormatError, InvalidArgumentError, NotFoundError, NumericalError
from .losses import LossConfig
from .rng import derive_seed

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _load_config(path, known_keys):
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read config {path}: {exc}") from exc
    unknown = set(cfg) - set(known_keys)
    if unknown:
        raise InvalidArgumentError(
            f"unknown config keys: {sorted(unknown)}; known: {sorted(known_keys)}")
    return cfg


def _merge(cfg: dict, args, keys):
    """Flag overrides config overrides default (argparse default=None)."""
    out = {}
    for key, default in keys.items():
        flag = getattr(args, key, None)
        out[key] = flag if flag is not None else cfg.get(key, default)
    return out


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, options: dict, files):
    manifest = {
        "command": command,
        "options": options,
        "files": {name: _sha256(out_dir / name) for name in files},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                      sort_keys=True) + "\n")


def _build_codebooks(dim: int, seed: int) -> dict:
    return cb.build_codebooks(geometry.PART_VOCAB, dim,
                              derive_seed(seed, "codebook"))


# ---------------------------------------------------------------------------
# commands

GEN_KEYS = {"categories": None, "instances": 10, "points": 1024, "seed": 0}


def cmd_gen_data(args):
    cfg = _load_config(args.config, GEN_KEYS)
    opt = _merge(cfg, args, GEN_KEYS)
    if not opt["categories"]:
        raise InvalidArgumentError("--categories is required")
    categories = opt["categories"].split(",") if isinstance(opt["categories"], str) \
        else list(opt["categories"])
    for cat in categories:
        if cat not in geometry.CATEGORIES:
            raise InvalidArgumentError(
                f"--categories: unknown category {cat!r}; "
                f"choose from {list(geometry.CATEGORIES)}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    clouds = []
    for cat in categories:
        for i in range(int(opt["instances"])):
            inst_seed = derive_seed(int(opt["seed"]), "gen-data", cat, i)
            clouds.append(geometry.generate_object(cat, inst_seed,
                                                   int(opt["points"])))
    geometry.save_dataset(out_dir / "dataset.jsonl", clouds)
    _write_manifest(out_dir, "gen-data", opt, ["dataset.jsonl"])
    print(f"wrote {len(clouds)} clouds to {out_dir / 'dataset.jsonl'}")


TRAIN_FIELD_KEYS = {
    "steps": 16000, "learning_rate": 3e-3, "points_per_part": 32,
    "instances_per_batch": 4, "hidden": 128, "depth": 3, "n_dim": 32,
    "k_neighbors": descriptors.DEFAULT_K_NEIGHBORS, "tau_geo": 0.1,
    "tau_sem": 0.5, "enable_geo": True, "enable_sem": True, "seed": 0,
}


def cmd_train_field(args):
    cfg = _load_config(args.config, TRAIN_FIELD_KEYS)
    opt = _merge(cfg, args, TRAIN_FIELD_KEYS)
    clouds = geometry.load_dataset(args.data)
    loss_cfg = LossConfig(opt["tau_geo"], opt["tau_sem"],
                          bool(opt["enable_geo"]), bool(opt["enable_sem"]))
    train_cfg = field.TrainConfig(
        steps=int(opt["steps"]), learning_rate=float(opt["learning_rate"]),
        points_per_part=int(opt["points_per_part"]),
        instances_per_batch=int(opt["instances_per_batch"]), loss=loss_cfg,
        seed=derive_seed(int(opt["seed"]), "train-field"),
        hidden=int(opt["hidden"]), depth=int(opt["depth"]),
        n_dim=int(opt["n_dim"]), k_neighbors=int(opt["k_neighbors"]))
    codebooks = _build_codebooks(train_cfg.n_dim, int(opt["seed"]))
    params, history = field.train_field(clouds, codebooks, train_cfg)
    final = history[-1]["total"]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    field.save_field_checkpoint(out_dir / "field.ckpt", params)
    cb.save_codebooks(out_dir / "codebooks.jsonl", codebooks)
    field.write_training_log(out_dir / "train_log.csv", history)
    _write_manifest(out_dir, "train-field", opt,
                    ["field.ckpt", "codebooks.jsonl", "train_log.csv"])
    print(f"final loss {final:.6f} after {len(history)} steps -> {out_dir}")
    if not np.isfinite(final):
        raise NumericalError("final loss is not finite")


DEMOS_KEYS = {
    "tasks": None, "demos_per_task": 30, "seed": 0,
    "pose_yaw": 3.141592653589793, "pose_translation": 0.08,
}

TRAIN_POLICY_KEYS = {
    "steps": 3000, "learning_rate": 1e-3, "batch_size": 32,
    "cond_dim": 32, "hidden": 128, "temperature": 0.1,
    "schedule_steps": 50, "schedule_kind": "linear",
    "gamma_lo": 1e-4, "gamma_hi": 0.02, "seed": 0,
}


def _load_demo_spec(path):
    spec = {**DEMOS_KEYS, **_load_config(path, DEMOS_KEYS)}
    if not spec["tasks"]:
        raise InvalidArgumentError(
            "demos config must list tasks: [[category, part], ...]")
    pose = env.PoseRanges(float(spec["pose_yaw"]),
                          float(spec["pose_translation"]))
    return ([tuple(t) for t in spec["tasks"]],
            int(spec["demos_per_task"]), int(spec["seed"]), pose)


def build_demo_episodes(task_specs, demos_per_task, seed, pose):
    """Scripted-expert demonstrations plus the instance seeds used, so
    the OS split can reuse them under new poses."""
    episodes = []
    instance_seeds = {}
    for category, part in task_specs:
        seeds_here = []
        for d in range(demos_per_task):
            task_seed = derive_seed(seed, "demo", category, part, d)
            task = env.make_task(category, part, task_seed, pose)
            episodes.append(env.scripted_expert(task))
            seeds_here.append(task.instance_seed)
        instance_seeds[(category, part)] = seeds_here
    return episodes, instance_seeds


def _pipeline_from(field_ckpt):
    """FieldPipeline from a checkpoint path, or the raw-descriptor
    baseline when field_ckpt is None."""
    if field_ckpt is None:
        return env.FieldPipeline(env.raw_descriptor_codebooks())
    ckpt_dir = Path(field_ckpt).parent
    params = field.load_field_checkpoint(field_ckpt)
    codebooks = cb.load_codebooks(ckpt_dir / "codebooks.jsonl")
    return env.FieldPipeline(codebooks, params)


def cmd_train_policy(args):
    cfg = _load_config(args.config, TRAIN_POLICY_KEYS)
    opt = _merge(cfg, args, TRAIN_POLICY_KEYS)
    task_specs, demos_per_task, demo_seed, pose = _load_demo_spec(args.demos)
    pipeline = _pipeline_from(args.field_ckpt)
    episodes, _ = build_demo_episodes(task_specs, demos_per_task, demo_seed, pose)
    for ep in episodes:
        pipeline.attach_observations(ep)
    schedule = diffusion.make_schedule(
        int(opt["schedule_steps"]), opt["schedule_kind"],
        float(opt["gamma_lo"]), float(opt["gamma_hi"]))
    pcfg = diffusion.PolicyTrainConfig(
        steps=int(opt["steps"]), learning_rate=float(opt["learning_rate"]),
        batch_size=int(opt["batch_size"]), cond_dim=int(opt["cond_dim"]),
        hidden=int(opt["hidden"]), temperature=float(opt["temperature"]),
        seed=derive_seed(int(opt["seed"]), "train-policy"))
    params, history = diffusion.train_policy(episodes, schedule, pcfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    diffusion.save_policy_checkpoint(out_dir / "policy.ckpt", params, schedule)
    with open(out_dir / "policy_log.csv", "w", newline="") as f:
        f.write("step,mse\n")
        for row in history:
            f.write(f"{row['step']},{row['mse']!r}\n")
    _write_manifest(out_dir, "train-policy", opt,
                    ["policy.ckpt", "policy_log.csv"])
    print(f"final policy mse {history[-1]['mse']:.6f} -> {out_dir}")


def cmd_eval_seg(args):
    clouds = geometry.load_dataset(args.data)
    pipeline = _pipeline_from(args.field_ckpt)
    baseline = _pipeline_from(None)
    rows = []
    for cloud in clouds:
        k = len(set(cloud.part_names))
        m_field = downstream.match_miou(
            downstream.agglomerative_cluster(pipeline.field_for(cloud), target_k=k),
            cloud.labels)
        m_raw = downstream.match_miou(
            downstream.agglomerative_cluster(baseline.field_for(cloud), target_k=k),
            cloud.labels)
        rows.append((cloud.category, cloud.seed, m_field, m_raw))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as f:
        f.write("category,seed,miou_field,miou_raw\n")
        for cat, seed, mf, mr in rows:
            f.write(f"{cat},{seed},{mf!r},{mr!r}\n")
    print("category             miou_field  miou_raw")
    for cat in sorted({r[0] for r in rows}):
        mf = np.mean([r[2] for r in rows if r[0] == cat])
        mr = np.mean([r[3] for r in rows if r[0] == cat])
        print(f"{cat:<20} {mf:10.3f} {mr:9.3f}")


def cmd_eval_corr(args):
    clouds = geometry.load_dataset(args.data)
    pipeline = _pipeline_from(args.field_ckpt)
    by_cat = {}
    for c in clouds:
        by_cat.setdefault(c.category, []).append(c)
    rows = []
    for cat, group in sorted(by_cat.items()):
        for a, b in zip(group[::2], group[1::2]):
            corr = downstream.nn_correspondence(pipeline.field_for(a),
                                                pipeline.field_for(b))
            acc = downstream.correspondence_part_accuracy(corr, a.labels, b.labels)
            rows.append((cat, a.seed, b.seed, acc))
    if not rows:
        raise InvalidArgumentError("need at least two clouds per category")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as f:
        f.write("category,seed_a,seed_b,part_accuracy\n")
        for cat, sa, sb, acc in rows:
            f.write(f"{cat},{sa},{sb},{acc!r}\n")
    for cat, sa, sb, acc in rows:
        print(f"{cat}: {sa} -> {sb}: part accuracy {acc:.3f}")


ROLLOUT_KEYS = {"episodes_per_split": 10, "splits": "OS,OI,OC",
                "mode": "ddim_deterministic", "seed": 0}


def cmd_rollout(args):
    cfg = _load_config(args.config, ROLLOUT_KEYS)
    opt = _merge(cfg, args, ROLLOUT_KEYS)
    task_specs, demos_per_task, demo_seed, pose = _load_demo_spec(args.demos)
    policy, schedule = diffusion.load_policy_checkpoint(args.policy)
    pipeline = _pipeline_from(args.field_ckpt)
    if policy.feat_dim != pipeline.dim:
        raise InvalidArgumentError(
            f"the policy reads {policy.feat_dim}-dim features but the "
            f"pipeline gives {pipeline.dim}; pass the --field-ckpt it was "
            f"trained with (or none for the raw-descriptor baseline)")
    _, instance_seeds = build_demo_episodes(task_specs, demos_per_task,
                                            demo_seed, pose)
    split_names = opt["splits"].split(",") if isinstance(opt["splits"], str) \
        else list(opt["splits"])
    splits = {
        name: env.make_split_tasks(
            name, task_specs, int(opt["episodes_per_split"]),
            derive_seed(int(opt["seed"]), "rollout-split", name),
            train_instance_seeds=instance_seeds, pose_ranges=pose)
        for name in split_names}
    table = env.evaluate_splits(policy, pipeline, schedule, splits,
                                opt["mode"], seed=int(opt["seed"]))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    env.write_split_table(out, table)
    for name in sorted(table):
        mean, stderr, n = table[name]
        print(f"{name}: {mean * 100:.1f}% +- {stderr * 100:.1f}% ({n} rollouts)")


EXPORT_KEYS = {"category": "box_with_lid", "instance_seed": 0, "points": 1024,
               "query": None}


def cmd_export_ply(args):
    cfg = _load_config(args.config, EXPORT_KEYS)
    opt = _merge(cfg, args, EXPORT_KEYS)
    cloud = geometry.generate_object(opt["category"], int(opt["instance_seed"]),
                                     int(opt["points"]))
    pipeline = _pipeline_from(args.field_ckpt)
    ff = pipeline.field_for(cloud)
    if opt["query"]:
        sims = cb.query_similarity(ff, pipeline.codebooks[cloud.category],
                                   opt["query"])
        # diverging blue-white-red ramp over [-1, 1]
        t = (np.clip(sims, -1.0, 1.0) + 1.0) / 2.0
        colors = np.stack([t, 1.0 - np.abs(2 * t - 1.0), 1.0 - t], axis=1)
    else:
        colors = downstream.pca_colorize(ff)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    geometry.save_cloud_ply(out, cloud, colors)
    print(f"wrote {out}")


# ---------------------------------------------------------------------------

def _add_common(p, seed=True):
    p.add_argument("--config", help="JSON config file; flags override it")
    if seed:
        p.add_argument("--seed", type=int, help="global seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partfield",
        description="Part-aware feature fields and a reaching policy on "
                    "procedural part-labeled point clouds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a JSON-lines cloud dataset")
    p.add_argument("--categories", help="comma-separated category names")
    p.add_argument("--instances", type=int)
    p.add_argument("--points", type=int)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-field", help="train the refinement network")
    p.add_argument("--data", required=True, help="dataset.jsonl path")
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--n-dim", dest="n_dim", type=int)
    p.add_argument("--enable-geo", dest="enable_geo", type=int, choices=(0, 1))
    p.add_argument("--enable-sem", dest="enable_sem", type=int, choices=(0, 1))
    _add_common(p)
    p.set_defaults(func=cmd_train_field)

    p = sub.add_parser("train-policy", help="train the action denoiser on "
                                            "scripted demonstrations")
    p.add_argument("--demos", required=True, help="demo spec JSON")
    p.add_argument("--field-ckpt", dest="field_ckpt",
                   help="field checkpoint; omit for the raw-descriptor baseline")
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_train_policy)

    p = sub.add_parser("eval-seg", help="clustering segmentation mIoU table")
    p.add_argument("--data", required=True)
    p.add_argument("--field-ckpt", dest="field_ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_seg)

    p = sub.add_parser("eval-corr", help="nearest-neighbor correspondence "
                                         "part accuracy")
    p.add_argument("--data", required=True)
    p.add_argument("--field-ckpt", dest="field_ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_corr)

    p = sub.add_parser("rollout", help="evaluate a policy across splits")
    p.add_argument("--policy", required=True)
    p.add_argument("--field-ckpt", dest="field_ckpt")
    p.add_argument("--demos", required=True, help="demo spec JSON (defines "
                   "tasks and the OS instance seeds)")
    p.add_argument("--splits")
    p.add_argument("--episodes-per-split", dest="episodes_per_split", type=int)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("export-ply", help="export a colorized cloud")
    p.add_argument("--field-ckpt", dest="field_ckpt")
    p.add_argument("--category")
    p.add_argument("--instance-seed", dest="instance_seed", type=int)
    p.add_argument("--query", help="part name for a similarity heatmap; "
                   "omit for PCA colors")
    p.add_argument("--out", required=True)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_export_ply)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, NotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    sys.exit(main())
