import json
import sys
import tracemalloc

import numpy as np
import pytest

from protodetect.cli import main
from protodetect.embedder import EmbeddingNet
from protodetect.inference import MODES, assemble_protocol, detect_scenes
from protodetect.numeric import make_rng
from protodetect.prototypes import BACKGROUND_ID, SupportSet, nearest_prototype
from protodetect.losses import episode_loss
from protodetect.simulator import WorldConfig, augment_feature, generate_world
from protodetect import simulator, trainer
from protodetect.trainer import (BETA1, BETA2, EPS, AdamW, TrainConfig,
                                 background_prototype, clip_global_norm, heldout_accuracy,
                                 make_episode, query_copies, train)


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

def episode_queries(rng, support, cfg, sigma_f=1.0):
    """One step's augmented queries and their labels, from copies built
    as `train` builds them."""
    copies, labels = query_copies(support, cfg.queries_per_support)
    return make_episode(rng, copies, cfg, sigma_f), labels


def test_episode_no_augment_copies_support():
    cfg = small_train_cfg(augment_strength=0.0, queries_per_support=1)
    support = random_support()
    feats, labels = episode_queries(make_rng(0), support, cfg)
    expected = np.concatenate([support.by_class[c] for c in support.class_ids])
    assert np.array_equal(feats, expected)


def test_episode_query_count():
    cfg = small_train_cfg(queries_per_support=4)
    support = random_support(C=3, shots=5)
    feats, labels = episode_queries(make_rng(0), support, cfg)
    assert len(feats) == 3 * 5 * 4 == 60
    assert sorted(set(labels)) == [1, 2, 3]


def test_episode_keeps_class_major_order_with_one_augment_call():
    cfg = small_train_cfg(queries_per_support=3)
    support = random_support(C=3, shots=5)
    feats, labels = episode_queries(make_rng(11), support, cfg, sigma_f=0.7)
    rows = np.repeat(np.concatenate([support.by_class[c] for c in (1, 2, 3)]),
                     3, axis=0)
    expected = augment_feature(make_rng(11), rows, cfg.augment_strength, 0.7)
    assert np.array_equal(feats, expected)
    assert labels.tolist() == [1] * 15 + [2] * 15 + [3] * 15


def test_episode_deterministic():
    cfg = small_train_cfg()
    support = random_support()
    f1, l1 = episode_queries(make_rng(7), support, cfg)
    f2, l2 = episode_queries(make_rng(7), support, cfg)
    assert np.array_equal(f1, f2) and np.array_equal(l1, l2)


def test_steps_augment_the_same_copies(monkeypatch):
    # the support copies and their labels are built once per run: every
    # step augments the one array, and the copies stay as built
    seen = []

    def spy(rng, copies, cfg, sigma_f=1.0):
        seen.append((copies, copies.copy()))
        return make_episode(rng, copies, cfg, sigma_f)

    monkeypatch.setattr(trainer, "make_episode", spy)
    world = small_world()
    cfg = small_train_cfg()
    train(world, cfg)
    expected, _ = query_copies(SupportSet(world.support_seen), cfg.queries_per_support)
    assert len(seen) == cfg.stage1_steps + cfg.stage2_steps
    assert all(copies is seen[0][0] for copies, _ in seen)
    assert all(np.array_equal(after, expected) for _, after in seen)
    assert np.array_equal(seen[0][0], expected)


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
    m = (1 - BETA1) * g / (1 - BETA1)
    v = (1 - BETA2) * g * g / (1 - BETA2)
    expected = theta0 - cfg.lr * m / (np.sqrt(v) + EPS)
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
            m_ref[i] = BETA1 * m_ref[i] + (1 - BETA1) * g[i]
            v_ref[i] = BETA2 * v_ref[i] + (1 - BETA2) * g[i] * g[i]
            ref[i] -= cfg.lr * cfg.weight_decay * ref[i]
            ref[i] -= cfg.lr * (m_ref[i] / (1 - BETA1 ** t)) / (
                np.sqrt(v_ref[i] / (1 - BETA2 ** t)) + EPS)
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
        bc1, sqrt_bc2 = 1.0 - BETA1 ** t, (1.0 - BETA2 ** t) ** 0.5
        m = m * BETA1 + g * (1.0 - BETA1)
        v = v * BETA2 + (g * g) * (1.0 - BETA2)
        ref = ref * (1.0 - cfg.lr * cfg.weight_decay)
        ref = ref - m / (np.sqrt(v) + EPS * sqrt_bc2) * (cfg.lr * sqrt_bc2 / bc1)
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
    (theta, a copy of theta before the update) at every call, theta the
    parameter vector every W and b of the net and classifier views."""
    calls = []

    def loss(net, clf, *args, **kw):
        bundle = episode_loss(net, clf, *args, **kw)
        theta = net.layers[0][0].base
        calls.append((theta, theta.copy()))
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
    (theta, before), = calls
    assert np.array_equal(theta, before)


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

    def spy(net, clf, episode, feats, lambdas, tau, **kw):
        weights.append((lambdas, tau))
        return episode_loss(net, clf, episode, feats, lambdas, tau, **kw)

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
    assert np.allclose(res.theta, theta0, atol=1e-290)


def test_training_deterministic_bit_identical():
    world = small_world()
    r1 = train(world, small_train_cfg())
    r2 = train(small_world(), small_train_cfg())
    assert np.array_equal(r1.theta, r2.theta)
    assert np.array_equal(r1.bank.get(0), r2.bank.get(0))
    assert r1.log == r2.log


def test_training_binds_float32_parameters():
    res = train(small_world(), small_train_cfg())
    arrays = [a for pair in (*res.net.layers, (res.clf.W, res.clf.b)) for a in pair]
    assert all(a.dtype == np.float32 for a in arrays)
    assert all(a.base is res.theta for a in arrays)
    # the gradient audit's instances stay float64
    from protodetect.gradcheck import random_instance
    assert random_instance(0).theta.dtype == np.float64


def test_features_cast_at_rest_equal_cast_at_use(monkeypatch):
    # a dataset stores features in float32, rounded once by gen-data:
    # every reader of split features (the training pools, p0, held-out
    # scoring, detection) takes them in the float32 net's dtype, so a
    # world holding a float64 block F and one holding F rounded to
    # float32 give the same bits. This fails once a reader computes in
    # float64 on split features
    base = small_world()
    rng = make_rng(3)
    F = [s.features + rng.normal(size=s.features.shape) * 1e-3
         for s in (base.train, base.test)]
    assert F[0].dtype == np.float64 and not np.array_equal(F[0], F[0].astype(np.float32))

    def holding(train_features, test_features):
        splits = [simulator.Split(s.proposals, f, s.gt, s.labels)
                  for s, f in zip((base.train, base.test), (train_features, test_features))]
        return simulator.World(base.config, base.class_means, *splits, base.seen, base.unseen)

    worlds = [holding(*F), holding(*(f.astype(np.float32) for f in F))]
    results = [train(w, small_train_cfg()) for w in worlds]
    assert results[0].theta.tobytes() == results[1].theta.tobytes()
    assert results[0].bank.P.tobytes() == results[1].bank.P.tobytes()
    assert json.dumps(results[0].log) == json.dumps(results[1].log)
    net, bank = results[0].net, results[0].bank
    # the accuracy is a count, so the embeddings it is taken from are
    # compared too
    embedded = []
    monkeypatch.setattr(trainer, "nearest_prototype", lambda emb, b: (
        embedded.append(emb.tobytes()) or nearest_prototype(emb, b)))
    accs = [heldout_accuracy(net, bank, w.test) for w in worlds]
    assert accs[0] is not None and accs[0] == accs[1]
    assert len(embedded) == 2 and embedded[0] == embedded[1]
    p0 = bank.get(BACKGROUND_ID)
    for mode in MODES:
        mode_bank = assemble_protocol(mode, worlds[0], net, p0)[0]
        dets = [detect_scenes(w.test, net, mode_bank) for w in worlds]
        assert sum(map(len, dets[0])) > 0
        for a, b in zip(*dets):
            for name in ("boxes", "class_ids", "scores"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), mode


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
    assert sorted(res.bank.ids) == [0, 1, 2, 3]
    pools = [trainer.scene_background_features(s) for s in world.train.scenes]
    assert np.array_equal(res.bank.get(0), background_prototype(res.net, pools))


def test_train_and_heldout_accuracy_take_one_iou_per_split(monkeypatch):
    # wherever protodetect refers to simulator.iou, as the benchmark's
    # tracer wraps it
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return original(*args)

    original = simulator.iou
    for name, module in list(sys.modules.items()):
        if name.startswith("protodetect.") and module.__dict__.get("iou") is original:
            monkeypatch.setattr(module, "iou", counted)
    world = small_world()
    res = train(world, small_train_cfg())
    assert calls == [len(world.train.proposals)]
    del calls[:]
    assert trainer.heldout_accuracy(res.net, res.bank, world.test) is not None
    assert calls == [len(world.test.proposals)]


def test_world_without_background_pool_is_refused_before_training(monkeypatch):
    # every proposal is a GT box (zero jitter), so no scene has a pool
    world = small_world(objects_per_scene=3, proposals_per_scene=3)

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(trainer, "episode_loss", no_step)
    with pytest.raises(ValueError, match="no background pool in training scenes"):
        train(world, small_train_cfg())


def test_a_step_embeds_each_row_once(monkeypatch):
    # one forward and one backward pass per step, over [support; queries;
    # pool]: the pool rows are p0's segment and the background queries
    # at once, so none is embedded twice
    passes, forwards, backward_rows = [], [], []
    forward_batch, backward_batch = EmbeddingNet.forward_batch, EmbeddingNet.backward_batch

    def forward(self, X, work=None):
        forwards.append(np.array(X))
        return forward_batch(self, X, work)

    def backward(self, cache, dQ, out, work):
        backward_rows.append(len(dQ))
        return backward_batch(self, cache, dQ, out, work)

    def loss(net, clf, episode, feats, lambdas, tau, bg_features, **kw):
        before = len(forwards)
        bundle = episode_loss(net, clf, episode, feats, lambdas, tau,
                              bg_features=bg_features, **kw)
        passes.append((forwards[before:], feats, bg_features))
        return bundle

    monkeypatch.setattr(EmbeddingNet, "forward_batch", forward)
    monkeypatch.setattr(EmbeddingNet, "backward_batch", backward)
    monkeypatch.setattr(trainer, "episode_loss", loss)
    cfg = small_train_cfg()
    world = small_world()
    train(world, cfg)
    sup = SupportSet(world.support_seen).rows()[0]
    assert len(passes) == len(backward_rows) == cfg.stage1_steps + cfg.stage2_steps
    for (step_forwards, feats, bg), n_back in zip(passes, backward_rows):
        (X,) = step_forwards
        assert len(X) == n_back == len(sup) + len(feats) + len(bg)
        assert np.array_equal(X, np.concatenate([sup, feats, bg]).astype(X.dtype))


def test_a_step_allocates_no_large_array(monkeypatch):
    # A3 sizes (d=64, hidden 512, emb 128, 25 support rows, 100 queries):
    # the episode's buffers hold every array of a step's size, so from
    # its augmentation to the returned gradient no step after the first
    # allocates as much as its (N, hidden) float32 activations, in all
    # its arrays together; and every step returns the one gradient vector
    world = generate_world(WorldConfig(c_seen=5, c_unseen=2, d=64, delta=10.0, shots=5,
                                       n_train_scenes=20, n_test_scenes=2, seed=7))
    cfg = TrainConfig(stage1_steps=4, stage2_steps=3, seed=7)
    steps, start = [], []
    make, loss = trainer.make_episode, trainer.episode_loss

    def make_spy(*args, **kw):
        tracemalloc.reset_peak()
        start.append(tracemalloc.get_traced_memory()[0])
        return make(*args, **kw)

    def loss_spy(net, clf, episode, feats, *args, bg_features, **kw):
        bundle = loss(net, clf, episode, feats, *args, bg_features=bg_features, **kw)
        rows = episode.n_sup + len(feats) + len(bg_features)
        steps.append((tracemalloc.get_traced_memory()[1] - start[-1],
                      rows * cfg.hidden_dim * 4, bundle.grads))
        return bundle

    monkeypatch.setattr(trainer, "make_episode", make_spy)
    monkeypatch.setattr(trainer, "episode_loss", loss_spy)
    tracemalloc.start()
    try:
        train(world, cfg)
    finally:
        tracemalloc.stop()
    assert len(steps) == 7
    for allocated, activations, grads in steps[1:]:
        assert 0 < allocated < activations
        assert grads is steps[0][2]


def test_steps_draw_only_non_empty_pools(monkeypatch):
    # every proposal of scenes 0 and 2 is one of their GT boxes (zero
    # jitter), so they have no pool; every step must still get one of
    # the others'
    world = small_world()
    split = world.train
    P, k = split.proposals.shape[1], split.gt.shape[1]
    for i in (0, 2):
        split.proposals[i] = split.gt[i, np.arange(P) % k]
    pools = [trainer.scene_background_features(s) for s in split.scenes]
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
