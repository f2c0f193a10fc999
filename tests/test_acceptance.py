"""Acceptance suite: nine end-to-end criteria with frozen tolerances.

Each test prints one summary line with the measured values next to the
thresholds. Criteria 4-7 share one fixed-seed field training run
(session-scoped fixtures); criterion 6 additionally trains the
geometric-only ablation; criterion 8 trains policies on top of the same
field. Budgets: field training <= 5 min, the policy comparison <= 15
min, on a single CPU.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import partfield as pf
from partfield import cli, diffusion, env
from partfield.descriptors import extract_descriptors
from partfield.downstream import (agglomerative_cluster,
                                  correspondence_part_accuracy, match_miou,
                                  nn_correspondence)
from partfield.field import (FeatureField, TrainConfig, backward, forward,
                             init_refine_net, part_similarity_stats,
                             train_field)
from partfield.losses import (LabeledFeatureBatch, LossConfig, geometric_loss,
                              loss_gradients, semantic_loss)
from partfield.rng import derive_seed

# frozen recipe: everything downstream of the field depends on these
FIELD_SEED = 1
FIELD_STEPS = 16_000
N_DIM = 32
LOSS_CFG = LossConfig(tau_geo=0.1, tau_sem=0.5)
TRAIN_INSTANCES = 40
HELD_OUT_INSTANCES = 8
CLOUD_POINTS = 1024

# criterion 8 recipe
POLICY_TASKS = [("bottle_with_cap", "cap"), ("pot_with_handle", "handle")]
DEMOS_PER_TASK = 30
POLICY_STEPS = 3000
POLICY_TEMPERATURE = 0.05
POLICY_SEEDS = 5
ROLLOUTS_PER_SPLIT = 10


def report(num, name, ok, detail):
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _unit_rows(rng, n, d):
    f = rng.standard_normal((n, d))
    return f / np.linalg.norm(f, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# criterion 1: vectorized losses match naive loop oracles


def _geo_loop(f, labels, tau):
    total = 0.0
    n = len(f)
    for i in range(n):
        pos = [j for j in range(n) if j != i and labels[j] == labels[i]]
        if not pos:
            continue
        denom = sum(math.exp(f[i] @ f[k] / tau) for k in range(n) if k != i)
        for j in pos:
            total += -math.log(math.exp(f[i] @ f[j] / tau) / denom) / len(pos)
    return total


def _sem_loop(f, labels, vectors, tau):
    total = 0.0
    for i in range(len(f)):
        denom = sum(math.exp(f[i] @ v / tau) for v in vectors)
        total += -math.log(math.exp(f[i] @ vectors[labels[i]] / tau) / denom)
    return total


def test_criterion_1_loss_oracle_equivalence():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 33))
        m = int(rng.integers(2, 5))
        d = int(rng.integers(4, 9))
        f = _unit_rows(rng, n, d)
        labels = rng.integers(0, m, size=n)
        tau = float(rng.uniform(0.05, 1.0))
        books = pf.build_codebook([f"p{i}" for i in range(m)], d,
                                  int(rng.integers(1 << 20)))
        batch = LabeledFeatureBatch(f, labels)
        worst = max(worst,
                    abs(geometric_loss(batch, tau)[0]
                        - _geo_loop(f, labels, tau)),
                    abs(semantic_loss(batch, books, tau)[0]
                        - _sem_loop(f, labels, books.vectors, tau)))
    elapsed = time.perf_counter() - t0
    report(1, "loss-oracle equivalence",
           worst <= 1e-12 and elapsed < 10.0,
           f"max |diff|={worst:.2e} (<=1e-12), runtime {elapsed:.1f}s (<10s)")


# ---------------------------------------------------------------------------
# criterion 2: analytic gradients match central finite differences


def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(22)
    h = 1e-5
    t0 = time.perf_counter()
    worst = 0.0

    # d(L_geo + L_sem)/d(features); perturbed rows are evaluated through the
    # loop oracles, which skip the unit-norm validation
    for _ in range(5):
        n, d, m = 8, 6, 3
        f = _unit_rows(rng, n, d)
        labels = rng.integers(0, m, size=n)
        books = pf.build_codebook(["a", "b", "c"], d, int(rng.integers(1000)))
        cfg = LossConfig(float(rng.uniform(0.1, 0.6)),
                         float(rng.uniform(0.1, 0.6)))
        grad = loss_gradients(LabeledFeatureBatch(f, labels), books, cfg)[2]

        def loose_total(fx):
            return (_geo_loop(fx, labels, cfg.tau_geo)
                    + _sem_loop(fx, labels, books.vectors, cfg.tau_sem))

        for i in range(n):
            for j in range(d):
                fp = f.copy(); fp[i, j] += h
                fm = f.copy(); fm[i, j] -= h
                fd = (loose_total(fp) - loose_total(fm)) / (2 * h)
                denom = max(abs(fd), abs(grad[i, j]), 1e-8)
                worst = max(worst, abs(grad[i, j] - fd) / denom)

    # full chain: loss -> row normalization -> network parameters
    params = init_refine_net(d_in=6, hidden=8, depth=2, n=5, seed=7)
    desc = rng.standard_normal((4, 6))
    labels = np.array([0, 0, 1, 1])
    books = pf.build_codebooks({"cat": ["a", "b"]}, 5, 0)["cat"]
    cfg = LossConfig(0.3, 0.4)

    def run(p):
        f = forward(p, desc)
        l_geo, l_sem, _ = loss_gradients(LabeledFeatureBatch(f.values, labels),
                                         books, cfg)
        return l_geo + l_sem

    f = forward(params, desc)
    grads = backward(params, desc,
                     loss_gradients(LabeledFeatureBatch(f.values, labels),
                                    books, cfg)[2])
    for li in range(len(params.weights)):
        for arr_i in (0, 1):
            flat = params.weights[li][arr_i].reshape(-1)
            for pos in range(flat.size):
                p2 = params.copy()
                p2.weights[li][arr_i].reshape(-1)[pos] += h
                lp = run(p2)
                p2.weights[li][arr_i].reshape(-1)[pos] -= 2 * h
                lm = run(p2)
                fd = (lp - lm) / (2 * h)
                got = grads[li][arr_i].reshape(-1)[pos]
                denom = max(abs(fd), abs(got), 1e-8)
                worst = max(worst, abs(got - fd) / denom)
    elapsed = time.perf_counter() - t0
    report(2, "gradient correctness",
           worst <= 1e-4 and elapsed < 30.0,
           f"max rel err={worst:.2e} (<=1e-4), runtime {elapsed:.1f}s (<30s)")


# ---------------------------------------------------------------------------
# criterion 3: sampler algebra


def test_criterion_3_sampler_algebra():
    rng = np.random.default_rng(33)
    worst_exact = 0.0
    worst_chain = 0.0
    for _ in range(50):
        K = int(rng.integers(1, 80))
        kind = "linear" if rng.integers(2) else "cosine"
        lo = float(rng.uniform(1e-5, 5e-3))
        hi = float(rng.uniform(lo + 1e-4, 0.05))
        s = diffusion.make_schedule(K, kind, lo, hi)
        a0 = rng.standard_normal((3, 4))
        ak = rng.standard_normal((3, 4))
        # final step returns the prediction exactly
        worst_exact = max(worst_exact, float(np.abs(
            diffusion.ddim_step(ak, a0, 1, s) - a0).max()))
        # noiseless path: sqrt(beta_bar^{k-1}) * a0 at every k
        for k in range(1, K + 1):
            out = diffusion.ddim_step(np.sqrt(s.beta_bar[k]) * a0, a0, k, s)
            worst_exact = max(worst_exact, float(np.abs(
                out - np.sqrt(s.beta_bar[k - 1]) * a0).max()))
        # forward to the last step, denoise all the way back
        a = diffusion.forward_noise(a0, K, 0.0, s)
        for k in range(K, 0, -1):
            a = diffusion.ddim_step(a, a0, k, s)
        worst_chain = max(worst_chain, float(np.abs(a - a0).max()))
    report(3, "sampler algebra",
           worst_exact <= 1e-12 and worst_chain <= 1e-9,
           f"identity err={worst_exact:.2e} (<=1e-12), "
           f"chain err={worst_chain:.2e} (<=1e-9)")


# ---------------------------------------------------------------------------
# shared field training (criteria 4-8)


@pytest.fixture(scope="session")
def codebooks():
    return pf.build_codebooks(pf.PART_VOCAB, N_DIM,
                              derive_seed(FIELD_SEED, "codebook"))


@pytest.fixture(scope="session")
def train_clouds():
    clouds = [pf.generate_object(c, derive_seed(FIELD_SEED, "train", c, i),
                                 CLOUD_POINTS)
              for c in pf.SEEN_CATEGORIES for i in range(TRAIN_INSTANCES)]
    descs = [extract_descriptors(c, 16) for c in clouds]
    return clouds, descs


@pytest.fixture(scope="session")
def held_out():
    out = {}
    for c in pf.SEEN_CATEGORIES:
        clouds = [pf.generate_object(c, derive_seed(99, "heldout", c, j),
                                     CLOUD_POINTS)
                  for j in range(HELD_OUT_INSTANCES)]
        out[c] = [(cl, extract_descriptors(cl, 16)) for cl in clouds]
    return out


def _train(train_clouds, codebooks, loss_cfg):
    clouds, descs = train_clouds
    config = TrainConfig(steps=FIELD_STEPS, learning_rate=3e-3,
                         points_per_part=32, hidden=128, depth=3,
                         loss=loss_cfg, seed=FIELD_SEED)
    t0 = time.perf_counter()
    params, _ = train_field(clouds, codebooks, config, descriptors=descs)
    return params, time.perf_counter() - t0


@pytest.fixture(scope="session")
def trained_field(train_clouds, codebooks):
    return _train(train_clouds, codebooks, LOSS_CFG)


@pytest.fixture(scope="session")
def geo_only_field(train_clouds, codebooks):
    params, _ = _train(train_clouds, codebooks,
                       LossConfig(LOSS_CFG.tau_geo, LOSS_CFG.tau_sem,
                                  enable_sem=False))
    return params


def _raw_field(desc):
    norms = np.linalg.norm(desc, axis=1, keepdims=True)
    return FeatureField(desc / np.where(norms < 1e-12, 1.0, norms))


def test_criterion_4_field_quality(trained_field, held_out):
    params, train_time = trained_field
    intra, inter = [], []
    for group in held_out.values():
        for cloud, desc in group:
            stats = part_similarity_stats(forward(params, desc), cloud.labels)
            intra.append(stats.intra)
            inter.append(stats.inter)
    mi, me = float(np.mean(intra)), float(np.mean(inter))
    report(4, "field quality",
           mi >= 0.9 and me <= 0.5 and train_time <= 300.0,
           f"intra={mi:.3f} (>=0.9), inter={me:.3f} (<=0.5), "
           f"train {train_time:.0f}s (<=300s)")


def test_criterion_5_segmentation(trained_field, held_out):
    params, _ = trained_field
    field_miou, raw_miou = [], []
    for group in held_out.values():
        for cloud, desc in group:
            k = len(cloud.part_names)
            field_miou.append(match_miou(
                agglomerative_cluster(forward(params, desc), target_k=k),
                cloud.labels))
            raw_miou.append(match_miou(
                agglomerative_cluster(_raw_field(desc), target_k=k),
                cloud.labels))
    mf, mr = float(np.mean(field_miou)), float(np.mean(raw_miou))
    report(5, "segmentation",
           mf >= 0.80 and mf - mr >= 0.15,
           f"mIoU={mf:.3f} (>=0.80), raw={mr:.3f}, margin={mf - mr:.3f} (>=0.15)")


def _retrieval_accuracy(params, held_out, codebooks):
    accs, chance = [], []
    for cat, group in held_out.items():
        books = codebooks[cat]
        for cloud, desc in group:
            f = forward(params, desc)
            want = np.array([books.index(cloud.part_names[l])
                             for l in cloud.labels])
            got = np.argmax(f.values @ books.vectors.T, axis=1)
            accs.append(float((got == want).mean()))
            chance.append(1.0 / len(cloud.part_names))
    return float(np.mean(accs)), float(np.mean(chance))


def test_criterion_6_semantic_ablation(trained_field, geo_only_field,
                                       held_out, codebooks):
    acc_full, _ = _retrieval_accuracy(trained_field[0], held_out, codebooks)
    acc_ablated, chance = _retrieval_accuracy(geo_only_field, held_out,
                                              codebooks)
    gap = abs(acc_ablated - chance)
    report(6, "semantic ablation",
           acc_full >= 0.85 and gap <= 0.15,
           f"retrieval={acc_full:.3f} (>=0.85); ablated={acc_ablated:.3f} "
           f"vs chance={chance:.3f}, |diff|={gap:.3f} (<=0.15)")


def test_criterion_7_correspondence(trained_field, held_out):
    params, _ = trained_field
    accs, raw_accs = [], []
    for group in held_out.values():
        for a, b in zip(group[::2], group[1::2]):
            (cloud_a, desc_a), (cloud_b, desc_b) = a, b
            fa, fb = forward(params, desc_a), forward(params, desc_b)
            accs.append(correspondence_part_accuracy(
                nn_correspondence(fa, fb), cloud_a.labels, cloud_b.labels))
            raw_accs.append(correspondence_part_accuracy(
                nn_correspondence(_raw_field(desc_a), _raw_field(desc_b)),
                cloud_a.labels, cloud_b.labels))
    ma, mr = float(np.mean(accs)), float(np.mean(raw_accs))
    report(7, "correspondence",
           ma >= 0.85 and ma > mr,
           f"agreement={ma:.3f} (>=0.85), raw={mr:.3f} (must be exceeded)")


# ---------------------------------------------------------------------------
# criterion 8: part-aware conditioning helps the policy generalize


def _policy_success(pipeline, episodes, instance_seeds, seed):
    schedule = diffusion.make_schedule(50, "linear", 1e-4, 0.02)
    config = diffusion.PolicyTrainConfig(
        steps=POLICY_STEPS, temperature=POLICY_TEMPERATURE,
        seed=derive_seed(seed, "policy"))
    params, _ = diffusion.train_policy(episodes, schedule, config)
    rates = {}
    for split in ("OS", "OI"):
        tasks = env.make_split_tasks(
            split, POLICY_TASKS, ROLLOUTS_PER_SPLIT,
            derive_seed(seed, "split", split),
            train_instance_seeds=instance_seeds)
        wins = [env.rollout(params, pipeline, t, schedule,
                            seed=derive_seed(seed, "rollout", i)).success
                for i, t in enumerate(tasks)]
        rates[split] = float(np.mean(wins))
    return rates


def test_criterion_8_policy(trained_field, codebooks):
    t0 = time.perf_counter()
    episodes, instance_seeds = cli.build_demo_episodes(
        POLICY_TASKS, DEMOS_PER_TASK, 0, env.PoseRanges())
    field_pipe = env.FieldPipeline(codebooks, trained_field[0])
    raw_pipe = env.FieldPipeline(env.raw_descriptor_codebooks(seed=0))
    results = {"field": {"OS": [], "OI": []}, "raw": {"OS": [], "OI": []}}
    for name, pipe in (("field", field_pipe), ("raw", raw_pipe)):
        eps = [pipe.attach_observations(ep) for ep in episodes]
        for seed in range(POLICY_SEEDS):
            rates = _policy_success(pipe, eps, instance_seeds, seed)
            for split in ("OS", "OI"):
                results[name][split].append(rates[split])
    os_rate = float(np.mean(results["field"]["OS"]))
    oi_field = float(np.mean(results["field"]["OI"]))
    oi_raw = float(np.mean(results["raw"]["OI"]))
    elapsed = time.perf_counter() - t0
    report(8, "policy",
           os_rate >= 0.80 and oi_field - oi_raw >= 0.10 and elapsed <= 900.0,
           f"OS={os_rate:.2f} (>=0.80), OI field={oi_field:.2f} vs "
           f"raw={oi_raw:.2f}, margin={oi_field - oi_raw:.2f} (>=0.10), "
           f"runtime {elapsed:.0f}s (<=900s)")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reruns of every CLI command


def _hash_outputs(root: Path):
    hashes = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            hashes[str(p.relative_to(root))] = hashlib.sha256(
                p.read_bytes()).hexdigest()
    assert hashes, f"no outputs under {root}"
    return hashes


def test_criterion_9_determinism(tmp_path):
    small_field = {"steps": 20, "points_per_part": 8, "instances_per_batch": 2,
                   "hidden": 16, "depth": 2, "n_dim": 8, "k_neighbors": 8}
    small_policy = {"steps": 25, "batch_size": 4, "cond_dim": 8, "hidden": 16,
                    "schedule_steps": 4}
    small_rollout = {"episodes_per_split": 1, "splits": "OS,OI"}
    mismatches = []
    for run in ("run1", "run2"):
        root = tmp_path / run
        d = root / "cfg"
        d.mkdir(parents=True)
        (d / "field.json").write_text(json.dumps(small_field))
        (d / "policy.json").write_text(json.dumps(small_policy))
        (d / "rollout.json").write_text(json.dumps(small_rollout))
        (d / "demos.json").write_text(json.dumps(
            {"tasks": [["bottle_with_cap", "cap"]], "demos_per_task": 2}))
        commands = [
            ["gen-data", "--categories", "bottle_with_cap,pot_with_handle",
             "--instances", "2", "--points", "160", "--seed", "5",
             "--out", root / "data"],
            ["train-field", "--data", root / "data" / "dataset.jsonl",
             "--config", d / "field.json", "--out", root / "field"],
            ["train-policy", "--demos", d / "demos.json",
             "--config", d / "policy.json",
             "--field-ckpt", root / "field" / "field.ckpt",
             "--out", root / "policy"],
            ["eval-seg", "--data", root / "data" / "dataset.jsonl",
             "--field-ckpt", root / "field" / "field.ckpt",
             "--out", root / "eval" / "seg.csv"],
            ["eval-corr", "--data", root / "data" / "dataset.jsonl",
             "--field-ckpt", root / "field" / "field.ckpt",
             "--out", root / "eval" / "corr.csv"],
            ["rollout", "--policy", root / "policy" / "policy.ckpt",
             "--field-ckpt", root / "field" / "field.ckpt",
             "--demos", d / "demos.json", "--config", d / "rollout.json",
             "--out", root / "eval" / "rollout.csv"],
            ["export-ply", "--field-ckpt", root / "field" / "field.ckpt",
             "--category", "box_with_lid", "--instance-seed", "3",
             "--query", "lid", "--out", root / "eval" / "cloud.ply"],
        ]
        for argv in commands:
            assert cli.main([str(a) for a in argv]) == 0, argv
    h1 = _hash_outputs(tmp_path / "run1")
    h2 = _hash_outputs(tmp_path / "run2")
    mismatches = [k for k in h1 if h1.get(k) != h2.get(k)]
    report(9, "determinism",
           set(h1) == set(h2) and not mismatches,
           f"{len(h1)} artifacts hashed across 7 commands; "
           f"mismatches={mismatches or 'none'}")
