import json

import numpy as np
import pytest

from protodetect.cli import main
from protodetect.embedder import flatten
from protodetect.numeric import make_rng
from protodetect.prototypes import SupportSet
from protodetect.losses import episode_loss
from protodetect.simulator import Scene, WorldConfig, augment_feature, generate_world
from protodetect import trainer
from protodetect.trainer import (AdamW, TrainConfig, background_prototype,
                                 clip_global_norm, make_episode, train)


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
    feats, labels = make_episode(make_rng(0), support, cfg)
    expected = np.concatenate([support.by_class[c] for c in support.class_ids])
    assert np.allclose(feats, expected, atol=1e-15)


def test_episode_query_count():
    cfg = small_train_cfg(queries_per_support=4)
    support = random_support(C=3, shots=5)
    feats, labels = make_episode(make_rng(0), support, cfg)
    assert len(feats) == 3 * 5 * 4 == 60
    assert sorted(set(labels)) == [1, 2, 3]


def test_episode_keeps_class_major_order_with_one_augment_call():
    cfg = small_train_cfg(queries_per_support=3)
    support = random_support(C=3, shots=5)
    feats, labels = make_episode(make_rng(11), support, cfg, sigma_f=0.7)
    rows = np.repeat(np.concatenate([support.by_class[c] for c in (1, 2, 3)]),
                     3, axis=0)
    expected = augment_feature(make_rng(11), rows, cfg.augment_strength, 0.7)
    assert np.array_equal(feats, expected)
    assert labels.tolist() == [1] * 15 + [2] * 15 + [3] * 15


def test_episode_deterministic():
    cfg = small_train_cfg()
    support = random_support()
    f1, l1 = make_episode(make_rng(7), support, cfg)
    f2, l2 = make_episode(make_rng(7), support, cfg)
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


def test_adamw_float32_step_stays_float32():
    # every pass of a float32 step runs in float32: bit-equal to the
    # formula on float32 arrays with Python-float constants, which keep
    # the arrays' dtype on any numpy version (a numpy float64 scalar
    # would not, under NEP 50)
    cfg = small_train_cfg(lr=1e-2, weight_decay=0.1)
    rng = make_rng(4)
    p = rng.normal(size=257).astype(np.float32)
    ref, m, v = p.copy(), np.zeros_like(p), np.zeros_like(p)
    opt = AdamW(p, cfg)
    for t in range(1, 7):
        g = rng.normal(size=257).astype(np.float32)
        opt.step(p, g)
        bc1, sqrt_bc2 = 1.0 - cfg.beta1 ** t, (1.0 - cfg.beta2 ** t) ** 0.5
        m = m * cfg.beta1 + g * (1.0 - cfg.beta1)
        v = v * cfg.beta2 + (g * g) * (1.0 - cfg.beta2)
        ref = ref * (1.0 - cfg.lr * cfg.weight_decay)
        ref = ref - m / (np.sqrt(v) + cfg.eps * sqrt_bc2) * (cfg.lr * sqrt_bc2 / bc1)
        assert ref.dtype == m.dtype == v.dtype == np.float32
        assert np.array_equal(p, ref) and np.array_equal(opt.m, m) and np.array_equal(opt.v, v)


def test_clip_global_norm():
    g = np.array([3.0, 0.0, 0.0, 4.0])
    norm = clip_global_norm(g, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.sqrt(np.sum(g * g)) == pytest.approx(1.0)
    g2 = np.array([0.1])
    assert clip_global_norm(g2, 1.0) == pytest.approx(0.1)
    assert g2[0] == 0.1


# --- training loop ----------------------------------------------------------

def non_finite_gradient_loss(monkeypatch, value):
    """Patch the loop's loss: the real bundle, finite loss, with one
    gradient entry set to `value`. Returns the list that receives
    (net, clf, their parameters before the update) at every call."""
    calls = []

    def loss(net, clf, *args, **kw):
        bundle = episode_loss(net, clf, *args, **kw)
        calls.append((net, clf, flatten(net.layers, (clf.W, clf.b))))
        bundle.grads[0] = value
        return bundle

    monkeypatch.setattr(trainer, "episode_loss", loss)
    return calls


# the clip scales no gradient whose norm is not finite, so nothing warns
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_train_rejects_a_non_finite_gradient(monkeypatch, value):
    # the clip norm is not finite, so the loop stops before the update
    calls = non_finite_gradient_loss(monkeypatch, value)
    with pytest.raises(FloatingPointError, match="non-finite gradient"):
        train(small_world(), small_train_cfg())
    (net, clf, before), = calls
    assert np.array_equal(flatten(net.layers, (clf.W, clf.b)), before)


def test_cli_train_exits_3_on_a_non_finite_gradient(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"world": {"d": 8, "n_train_scenes": 4, "n_test_scenes": 2},
                               "train": {"hidden_dim": 16, "emb_dim": 8}}))
    data = str(tmp_path / "data.bin")
    assert main(["gen-data", "--config", str(cfg), "--out", data]) == 0
    non_finite_gradient_loss(monkeypatch, np.nan)
    out = tmp_path / "ckpt.npz"
    assert main(["train", "--config", str(cfg), "--dataset", data, "--out", str(out)]) == 3
    assert "non-finite gradient" in capsys.readouterr().err
    assert not out.exists()


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


def test_stage1_forces_zero_weights(monkeypatch):
    # the schedule lives in the loop: stage 1 passes weights (0, 0)
    # whatever the config's, stage 2 the config's, and tau throughout
    weights = []

    def spy(net, clf, support, feats, labels, lambdas, tau, **kw):
        weights.append((lambdas, tau))
        return episode_loss(net, clf, support, feats, labels, lambdas, tau, **kw)

    monkeypatch.setattr(trainer, "episode_loss", spy)
    train(small_world(), small_train_cfg(stage1_steps=3, stage2_steps=2, lambda_kl=5.0,
                                         lambda_align=2.0, tau=3.0))
    assert weights == [((0.0, 0.0), 3.0)] * 3 + [((5.0, 2.0), 3.0)] * 2


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
    assert np.array_equal(flatten(r1.net.layers, (r1.clf.W, r1.clf.b)),
                          flatten(r2.net.layers, (r2.clf.W, r2.clf.b)))
    assert np.array_equal(r1.bank.get(0), r2.bank.get(0))
    assert r1.log == r2.log


def test_training_binds_float32_parameters():
    res = train(small_world(), small_train_cfg())
    arrays = [a for pair in (*res.net.layers, (res.clf.W, res.clf.b)) for a in pair]
    assert all(a.dtype == np.float32 for a in arrays)
    assert all(a.base is arrays[0].base for a in arrays)
    # the gradient audit's instances stay float64
    from protodetect.gradcheck import random_instance
    assert random_instance(0).theta.dtype == np.float64


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
    pools = [trainer.scene_background_features(s) for s in world.train_scenes]
    assert np.array_equal(res.bank.get(0), background_prototype(res.net, pools))


def test_world_without_background_pool_is_refused_before_training(monkeypatch):
    # every proposal is a GT box (zero jitter), so no scene has a pool
    world = small_world(objects_per_scene=3, proposals_per_scene=3)

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(trainer, "episode_loss", no_step)
    with pytest.raises(ValueError, match="no background pool in training scenes"):
        train(world, small_train_cfg())


def test_steps_draw_only_non_empty_pools(monkeypatch):
    # scenes 0 and 2 keep only their GT-aligned proposals (zero jitter),
    # so they have no pool; every step must still get one of the others'
    world = small_world()
    for i in (0, 2):
        s = world.train_scenes[i]
        n = len(s.gt)
        world.train_scenes[i] = Scene(s.proposals[:n], s.features[:n], s.gt, s.labels)
    pools = [trainer.scene_background_features(s) for s in world.train_scenes]
    assert [len(p) > 0 for p in pools] == [False, True, False, True]
    seen = []

    def spy(*args, bg_features, **kwargs):
        seen.append(bg_features)
        return episode_loss(*args, bg_features=bg_features, **kwargs)

    monkeypatch.setattr(trainer, "episode_loss", spy)
    train(world, small_train_cfg(stage1_steps=10, stage2_steps=10))
    assert len(seen) == 20
    assert all(any(np.array_equal(p, pools[i]) for i in (1, 3)) for p in seen)


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_configurable_depth_trains(depth):
    world = small_world()
    res = train(world, small_train_cfg(mlp_depth=depth, stage1_steps=2,
                                       stage2_steps=1))
    assert len(res.net.layers) == depth
