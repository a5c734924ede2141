import json

import numpy as np
import pytest

from protodetect.embedder import checkpoint_dict, flatten
from protodetect.numeric import make_rng
from protodetect.prototypes import SupportSet
from protodetect.simulator import WorldConfig, augment_feature, generate_world
from protodetect.trainer import (FULL_SPLIT, PARTIAL_SPLIT, AdamW,
                                 TrainConfig, clip_global_norm, make_episode,
                                 train)


def small_world(seed=5, **kw):
    defaults = dict(c_seen=3, c_unseen=2, d=8, delta=6.0, sigma_f=0.5,
                    n_train_scenes=4, n_test_scenes=4, seed=seed)
    defaults.update(kw)
    return generate_world(WorldConfig(**defaults))


def small_train_cfg(**kw):
    defaults = dict(stage1_steps=5, stage2_steps=3, hidden_dim=16, emb_dim=8,
                    seed=1)
    defaults.update(kw)
    return TrainConfig(**defaults)


def random_support(seed=0, C=3, shots=5, d=8):
    rng = make_rng(seed)
    return SupportSet({c: rng.normal(size=(shots, d)) for c in range(1, C + 1)})


# --- episodes ---------------------------------------------------------------

def test_episode_no_augment_copies_support():
    cfg = small_train_cfg(augment=False, queries_per_support=1)
    support = random_support()
    proto_support, feats, labels = make_episode(make_rng(0), support, cfg)
    assert proto_support is support
    expected = np.concatenate([support.by_class[c] for c in support.class_ids])
    assert np.allclose(feats, expected, atol=1e-15)


def test_episode_query_count():
    cfg = small_train_cfg(queries_per_support=4)
    support = random_support(C=3, shots=5)
    _, feats, labels = make_episode(make_rng(0), support, cfg)
    assert len(feats) == 3 * 5 * 4 == 60
    assert sorted(set(labels)) == [1, 2, 3]


def test_episode_partial_split():
    cfg = small_train_cfg(support_query_split=PARTIAL_SPLIT, augment=False)
    support = random_support(shots=5)
    proto_support, feats, labels = make_episode(make_rng(0), support, cfg)
    assert all(proto_support.shots(c) == 3 for c in proto_support.class_ids)
    assert len(feats) == 3 * 2  # 2 held-out vectors per class


def test_episode_partial_split_requires_five_shots():
    cfg = small_train_cfg(support_query_split=PARTIAL_SPLIT)
    with pytest.raises(ValueError, match="split requires 5 shots"):
        make_episode(make_rng(0), random_support(shots=4), cfg)


def test_episode_keeps_class_major_order_with_one_augment_call():
    cfg = small_train_cfg(queries_per_support=3)
    support = random_support(C=3, shots=5)
    _, feats, labels = make_episode(make_rng(11), support, cfg, sigma_f=0.7)
    rows = np.repeat(np.concatenate([support.by_class[c] for c in (1, 2, 3)]),
                     3, axis=0)
    expected = augment_feature(make_rng(11), rows, cfg.augment_strength, 0.7)
    assert np.array_equal(feats, expected)
    assert labels.tolist() == [1] * 15 + [2] * 15 + [3] * 15


def test_episode_deterministic():
    cfg = small_train_cfg()
    support = random_support()
    _, f1, l1 = make_episode(make_rng(7), support, cfg)
    _, f2, l2 = make_episode(make_rng(7), support, cfg)
    assert np.array_equal(f1, f2) and np.array_equal(l1, l2)


# --- AdamW ------------------------------------------------------------------

def test_adamw_zero_grads_no_decay_keeps_params():
    cfg = small_train_cfg(weight_decay=0.0)
    p = np.array([1.0, -2.0])
    opt = AdamW(p, cfg)
    opt.step(p, np.zeros(2))
    assert np.array_equal(p, [1.0, -2.0])


def test_adamw_zero_grads_pure_decay_shrink():
    cfg = small_train_cfg(lr=0.1, weight_decay=0.5)
    p = np.array([2.0, -4.0])
    opt = AdamW(p, cfg)
    opt.step(p, np.zeros(2))
    assert np.allclose(p, np.array([2.0, -4.0]) * (1.0 - 0.1 * 0.5), atol=1e-15)


def test_adamw_first_step_hand_computation():
    cfg = small_train_cfg(lr=1e-3, weight_decay=0.0)
    theta0 = 0.7
    g = 0.31
    p = np.array([theta0])
    opt = AdamW(p, cfg)
    opt.step(p, np.array([g]))
    # scalar hand computation of one bias-corrected Adam step
    m = (1 - cfg.beta1) * g / (1 - cfg.beta1)
    v = (1 - cfg.beta2) * g * g / (1 - cfg.beta2)
    expected = theta0 - cfg.lr * m / (np.sqrt(v) + cfg.eps)
    assert p[0] == pytest.approx(expected, rel=1e-12)


def test_adamw_matches_per_entry_reference_over_steps():
    # scalar-loop reference of decoupled AdamW, several steps with decay
    cfg = small_train_cfg(lr=1e-2, weight_decay=0.1)
    rng = make_rng(3)
    p = rng.normal(size=7)
    ref = [float(x) for x in p]
    m_ref, v_ref = [0.0] * 7, [0.0] * 7
    opt = AdamW(p, cfg)
    for t in range(1, 6):
        g = rng.normal(size=7)
        opt.step(p, g)
        for i in range(7):
            m_ref[i] = cfg.beta1 * m_ref[i] + (1 - cfg.beta1) * g[i]
            v_ref[i] = cfg.beta2 * v_ref[i] + (1 - cfg.beta2) * g[i] * g[i]
            ref[i] -= cfg.lr * cfg.weight_decay * ref[i]
            ref[i] -= cfg.lr * (m_ref[i] / (1 - cfg.beta1 ** t)) / (
                np.sqrt(v_ref[i] / (1 - cfg.beta2 ** t)) + cfg.eps)
    assert np.allclose(p, ref, rtol=1e-13, atol=0.0)


def test_adamw_rejects_non_finite_grads():
    cfg = small_train_cfg()
    p = np.zeros(2)
    opt = AdamW(p, cfg)
    with pytest.raises(FloatingPointError):
        opt.step(p, np.array([np.nan, 0.0]))


def test_clip_global_norm():
    g = np.array([3.0, 0.0, 0.0, 4.0])
    norm = clip_global_norm(g, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.sqrt(np.sum(g * g)) == pytest.approx(1.0)
    g2 = np.array([0.1])
    assert clip_global_norm(g2, 1.0) == pytest.approx(0.1)
    assert g2[0] == 0.1


# --- training loop ----------------------------------------------------------

def test_stage1_log_total_equals_match():
    world = small_world()
    res = train(world, small_train_cfg(stage1_steps=6, stage2_steps=0))
    assert len(res.log) == 6
    for rec in res.log:
        assert rec["stage"] == 1
        assert rec["l_total"] == rec["l_match"]


def test_stage_switch_recorded():
    world = small_world()
    res = train(world, small_train_cfg(stage1_steps=4, stage2_steps=3))
    stages = [r["stage"] for r in res.log]
    assert stages == [1] * 4 + [2] * 3
    for rec in res.log[4:]:
        assert rec["l_total"] == rec["l_match"] + rec["l_kl"] + rec["l_align"]


def test_zero_lr_is_rejected_and_tiny_lr_keeps_params_close():
    world = small_world()
    with pytest.raises(ValueError):
        train(world, small_train_cfg(lr=0.0))
    cfg = small_train_cfg(lr=1e-300, weight_decay=0.0, stage1_steps=3,
                          stage2_steps=0)
    res = train(world, cfg)
    from protodetect.embedder import default_net_and_classifier
    support = SupportSet(world.support_seen)
    _, _, theta0 = default_net_and_classifier(
        cfg.seed, support.feature_dim, cfg.hidden_dim, cfg.emb_dim,
        len(support.class_ids), cfg.mlp_depth)
    assert np.allclose(flatten(res.net.layers, (res.clf.W, res.clf.b)), theta0,
                       atol=1e-290)


def test_training_deterministic_bit_identical():
    world = small_world()
    r1 = train(world, small_train_cfg())
    r2 = train(small_world(), small_train_cfg())
    assert checkpoint_dict(r1.net, r1.clf) == checkpoint_dict(r2.net, r2.clf)
    assert r1.log == r2.log


def test_training_log_serializes(tmp_path):
    world = small_world()
    res = train(world, small_train_cfg())
    path = tmp_path / "log.jsonl"
    res.write_log(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 8
    recs = [json.loads(l) for l in lines]
    assert [r["step"] for r in recs] == list(range(8))


def test_final_bank_includes_background():
    world = small_world()
    res = train(world, small_train_cfg())
    assert res.bank.has(0)
    assert sorted(res.bank.ids) == [0, 1, 2, 3]


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_configurable_depth_trains(depth):
    world = small_world()
    res = train(world, small_train_cfg(mlp_depth=depth, stage1_steps=2,
                                       stage2_steps=1))
    assert res.net.depth == depth
