"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line so a full run reads as a short
scorecard. The numbered criteria:

  A1 gradient fidelity        analytic vs finite differences
  A2 distribution sanity      posterior sums, KL sign, invariances
  A3 convergence              accuracy and few-shot mAP on a separable world
  A4 open-set rejection       background reject rate, unknown recall
  A5 evaluator oracle         bit-equal AP vs brute-force PR curve
  A6 schedule correctness     stage-1 loss identity and switch arithmetic
  A7 determinism              byte-identical artifact re-runs
  A8 ablation harness         loss/depth variants runnable from config
"""

import itertools
import json
import time

import numpy as np
import pytest

from protodetect.cli import main, run_protocol
from protodetect.config import RunConfig
from protodetect.gradcheck import check_term, random_instance, run_suite
from protodetect.inference import FEWSHOT, OPENSET
from protodetect.numeric import make_rng
from protodetect.prototypes import BACKGROUND_ID, PrototypeBank, posteriors_batch
from protodetect.simulator import IGNORE, generate_world, iou, label_proposals
from protodetect.trainer import heldout_accuracy, train

from helpers import (alignment_value, boxes, kl_value, make_detections,
                     make_scene, matching_value)
from test_evaluation import ap, oracle_ap


def report(name, ok, detail=""):
    print(f"{name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name} failed: {detail}"


# --- A1 ---------------------------------------------------------------------

def test_a1_gradient_fidelity():
    t0 = time.time()
    results = run_suite(seeds=range(20))
    elapsed = time.time() - t0
    worst = max(results.values())
    corrupted = min(check_term(random_instance(0), corrupt=True).values())
    ok = worst <= 1e-4 and elapsed < 30.0 and corrupted > 1e-4
    report("A1 gradient fidelity", ok,
           f"max rel err {worst:.2e}, {elapsed:.1f}s, corrupt hook {corrupted:.2e}")


# --- A2 ---------------------------------------------------------------------

def test_a2_distribution_sanity():
    rng = make_rng(0)
    worst_sum = 0.0
    worst_kl = 0.0
    for _ in range(1000):
        bank = PrototypeBank([(c, rng.normal(size=3)) for c in range(4)])
        q = rng.normal(size=3)
        p = posteriors_batch(q[None, :], bank)[0]
        worst_sum = max(worst_sum, abs(float(np.sum(p)) - 1.0))
        from protodetect.embedder import LinearClassifier
        clf = LinearClassifier(rng.normal(size=(4, 3)), rng.normal(size=4))
        value = kl_value(q[None, :], bank, clf)
        worst_kl = min(worst_kl, value)

    drift = 0.0
    for seed in range(20):
        r = make_rng(seed)
        bank = PrototypeBank([(c, r.normal(size=3)) for c in range(1, 4)])
        Q = r.normal(size=(6, 3))
        labels = [1, 2, 3, 1, 2, 3]
        v0 = matching_value(Q, labels, bank)
        c = r.normal(size=3)
        shifted = PrototypeBank([(cid, bank.get(cid) + c) for cid in bank.ids])
        v1 = matching_value(Q + c, labels, shifted)
        drift = max(drift, abs(v0 - v1))
        # alignment: scaling embeddings by alpha and tau by alpha^2
        # leaves every logit unchanged
        a0 = alignment_value(Q, labels, bank, tau=10.0)
        alpha = 3.0
        scaled = PrototypeBank([(cid, alpha * bank.get(cid)) for cid in bank.ids])
        a1 = alignment_value(alpha * Q, labels, scaled, tau=10.0 * alpha * alpha)
        drift = max(drift, abs(a0 - a1))

    ok = worst_sum <= 1e-12 and worst_kl >= -1e-12 and drift <= 1e-9
    report("A2 distribution sanity", ok,
           f"sum err {worst_sum:.1e}, min KL {worst_kl:.1e}, drift {drift:.1e}")


# --- A3 / A4 / A6 shared run ------------------------------------------------

A3_DOC = {
    "world": {"c_seen": 5, "c_unseen": 2, "d": 64, "delta": 10.0,
              "sigma_f": 1.0, "shots": 5, "box_jitter": 0.0,
              "n_train_scenes": 20, "n_test_scenes": 20, "seed": 7},
    "train": {"lr": 1e-4, "weight_decay": 1e-4, "stage1_steps": 500,
              "stage2_steps": 200, "shots": 5, "queries_per_support": 4,
              "tau": 10.0, "seed": 7},
}


@pytest.fixture(scope="module")
def a3_run():
    cfg = RunConfig.from_dict(json.loads(json.dumps(A3_DOC)))
    world = generate_world(cfg.world)
    t0 = time.time()
    result = train(world, cfg.train)
    elapsed = time.time() - t0
    return cfg, world, result, elapsed


def test_a3_separable_world_convergence(a3_run):
    cfg, world, result, elapsed = a3_run
    acc = heldout_accuracy(result.net, result.bank, world.test)
    _, rep = run_protocol(world, result.net, FEWSHOT,
                          result.bank.get(BACKGROUND_ID))
    map50 = float(np.mean([rep.cells[(c, 0.5)]["ap"] for c in world.support_seen]))
    ok = acc >= 0.95 and map50 >= 0.90 and elapsed < 120.0
    report("A3 convergence", ok,
           f"accuracy {acc:.4f}, mAP@0.50 {map50:.4f}, train {elapsed:.1f}s")


def test_a4_open_set_rejection(a3_run):
    cfg, world, result, _ = a3_run
    unknown_id = world.unknown_id

    # background reject rate with the open-set bank in place
    from protodetect.inference import assemble_protocol
    p0 = result.bank.get(BACKGROUND_ID)
    bank, _, _ = assemble_protocol(OPENSET, world, result.net, p0)
    n_bg = n_rej = 0
    seen_total = seen_correct = 0
    for scene in world.test.scenes:
        for feat, y in zip(scene.features, label_proposals(scene).tolist()):
            if y == IGNORE:
                continue
            emb, _ = result.net.forward_batch(feat[None, :])
            cid = bank.ids[int(np.argmax(posteriors_batch(emb, bank)[0]))]
            if y == 0:
                n_bg += 1
                n_rej += cid == BACKGROUND_ID
            elif y in world.support_seen:
                seen_total += 1
                seen_correct += cid == y
    reject_rate = n_rej / n_bg

    # unknown recall at IoU 0.50 from the open-set report
    _, rep = run_protocol(world, result.net, OPENSET, p0)
    unknown_recall = rep.cells[(unknown_id, 0.5)]["ar"]

    # seen-class accuracy degradation versus the closed few-shot bank (A3)
    acc_a3 = heldout_accuracy(result.net, result.bank, world.test)
    acc_openset = seen_correct / seen_total
    ok = (reject_rate >= 0.90 and unknown_recall >= 0.60
          and acc_openset >= acc_a3 - 0.05)
    report("A4 open-set rejection", ok,
           f"bg reject {reject_rate:.3f}, unknown recall {unknown_recall:.3f}, "
           f"seen acc {acc_openset:.3f} vs {acc_a3:.3f}")


def test_a6_schedule_correctness(a3_run):
    _, _, result, _ = a3_run
    stage1 = [r for r in result.log if r["stage"] == 1]
    stage2 = [r for r in result.log if r["stage"] == 2]
    ok = len(stage1) == 500 and len(stage2) == 200
    ok = ok and all(r["l_total"] == r["l_match"] for r in stage1)
    switch = stage2[0]
    ok = ok and switch["l_total"] == switch["l_match"] + switch["l_kl"] + switch["l_align"]
    ok = ok and switch["l_total"] != switch["l_match"]
    report("A6 schedule correctness", ok,
           f"switch step {switch['step']}: l_total - l_match = "
           f"{switch['l_total'] - switch['l_match']:.4e}")


# --- A5 ---------------------------------------------------------------------

def test_a5_evaluator_oracle_equivalence():
    from protodetect.evaluation import IOU_THRESHOLDS, evaluate
    from test_evaluation import oracle_greedy_match

    mismatches = 0
    checked = 0
    # abstract instances: every TP/FP flag sequence with <= 3 detections
    for n in range(0, 4):
        for flags in itertools.product([True, False], repeat=n):
            for n_gt in range(1, 4):
                if sum(flags) > n_gt:
                    continue
                checked += 1
                if ap(list(flags), n_gt) != oracle_ap(list(flags), n_gt):
                    mismatches += 1

    # geometric instances: <= 3 detections and <= 3 GT drawn from a box
    # palette with varied overlap, run through the full evaluator
    palette = [(0, 0, 10, 10), (5, 0, 15, 10),
               (0, 5, 10, 15), (20, 20, 30, 30)]
    gt_sets = [list(c) for k in range(1, 4)
               for c in itertools.combinations(palette, k)]
    det_sets = [list(c) for k in range(0, 4)
                for c in itertools.product(palette, repeat=k)]
    for gts in gt_sets:
        for det_boxes in det_sets:
            checked += 1
            dets = [(b, 0.9 - 0.1 * i) for i, b in enumerate(det_boxes)]
            scene = make_scene(gt=[(b, 1) for b in gts])
            rep = evaluate([make_detections([(b, 1, score) for b, score in dets])],
                           [scene], [1], "fewshot")
            for t in IOU_THRESHOLDS:
                flags = oracle_greedy_match(dets, gts, t)
                if rep.cells[(1, t)]["ap"] != oracle_ap(flags, len(gts)):
                    mismatches += 1
    hand_iou = iou(boxes([(0, 0, 2, 2)]), boxes([(1, 1, 3, 3)]))[0, 0] == pytest.approx(1.0 / 7.0)
    hand_ap = ap([True, False], 2) == 51.0 / 101.0
    ok = mismatches == 0 and hand_iou and hand_ap
    report("A5 evaluator oracle", ok,
           f"{checked} instances bit-equal, hand cases "
           f"{'ok' if hand_iou and hand_ap else 'bad'}")


# --- A7 ---------------------------------------------------------------------

def test_a7_determinism(tmp_path):
    cfg_doc = {"world": {"c_seen": 3, "c_unseen": 2, "d": 8, "delta": 6.0,
                         "sigma_f": 0.5, "n_train_scenes": 4,
                         "n_test_scenes": 4, "seed": 5},
               "train": {"stage1_steps": 6, "stage2_steps": 3,
                         "hidden_dim": 16, "emb_dim": 8, "seed": 1}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(cfg_doc))
    artifacts = []
    for run in ("r1", "r2"):
        d = tmp_path / run
        d.mkdir()
        assert main(["gen-data", "--config", str(cfg),
                     "--out", str(d / "data.json")]) == 0
        assert main(["train", "--config", str(cfg),
                     "--dataset", str(d / "data.json"),
                     "--out", str(d / "ckpt.json")]) == 0
        assert main(["eval", "--config", str(cfg),
                     "--dataset", str(d / "data.json"),
                     "--checkpoint", str(d / "ckpt.json"),
                     "--mode", "fewshot",
                     "--out-prefix", str(d / "report")]) == 0
        artifacts.append(d)
    names = ["data.json", "ckpt.json", "ckpt.json.log.jsonl",
             "report.json", "report.csv", "report.detections.json"]
    diffs = [n for n in names
             if (artifacts[0] / n).read_bytes() != (artifacts[1] / n).read_bytes()]
    report("A7 determinism", not diffs,
           f"{len(names)} artifacts byte-identical" if not diffs
           else f"differs: {diffs}")


# --- A8 ---------------------------------------------------------------------

def test_a8_ablation_harness():
    base = {"world": {"c_seen": 3, "c_unseen": 2, "d": 8, "delta": 6.0,
                      "sigma_f": 0.5, "n_train_scenes": 4,
                      "n_test_scenes": 4, "seed": 5},
            "train": {"stage1_steps": 4, "stage2_steps": 4,
                      "hidden_dim": 16, "emb_dim": 8, "seed": 1}}
    variants = []
    for lam_kl, lam_align in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]:
        variants.append({"lambda_kl": lam_kl, "lambda_align": lam_align})
    for depth in (2, 3, 4):
        variants.append({"mlp_depth": depth})

    complete = 0
    for extra in variants:
        doc = json.loads(json.dumps(base))
        doc["train"].update(extra)
        cfg = RunConfig.from_dict(doc)
        world = generate_world(cfg.world)
        result = train(world, cfg.train)
        _, rep = run_protocol(world, result.net, FEWSHOT,
                              result.bank.get(BACKGROUND_ID))
        from protodetect.evaluation import IOU_THRESHOLDS
        cells_ok = all((c, t) in rep.cells
                       for c in world.support_seen for t in IOU_THRESHOLDS)
        if cells_ok and np.isfinite(rep.mAP) and np.isfinite(rep.mAR):
            complete += 1
    ok = complete == len(variants)
    report("A8 ablation harness", ok,
           f"{complete}/{len(variants)} variants produced complete reports")
