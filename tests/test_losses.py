import math

import numpy as np
import pytest

from protodetect.embedder import LinearClassifier
from protodetect.gradcheck import check_term, random_instance
from protodetect.losses import (LossConfig, QueryBatch, alignment_loss,
                                episode_loss, kl_loss, matching_loss)
from protodetect.numeric import make_rng
from protodetect.prototypes import PrototypeBank, SupportSet


def two_proto_bank(D):
    """Prototypes a squared distance D apart along the first axis."""
    return PrototypeBank([(1, [0.0, 0.0]), (2, [math.sqrt(D), 0.0])])


def test_matching_query_at_own_prototype():
    D = 3.7
    bank = two_proto_bank(D)
    batch = QueryBatch(np.array([[0.0, 0.0]]), [1])
    value, _, _ = matching_loss(batch, bank)
    assert value == pytest.approx(math.log(1.0 + math.exp(-D)), rel=1e-12)


def test_matching_singleton_bank_is_zero():
    bank = PrototypeBank([(1, [5.0, -1.0])])
    batch = QueryBatch(make_rng(0).normal(size=(4, 2)), [1, 1, 1, 1])
    value, _, _ = matching_loss(batch, bank)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_matching_midpoint_is_log2():
    bank = PrototypeBank([(1, [1.0, 0.0]), (2, [-1.0, 0.0])])
    batch = QueryBatch(np.array([[0.0, 0.0]]), [2])
    value, _, _ = matching_loss(batch, bank)
    assert value == pytest.approx(math.log(2.0), rel=1e-12)


def test_matching_missing_prototype_errors():
    bank = PrototypeBank([(1, [0.0, 0.0])])
    batch = QueryBatch(np.zeros((1, 2)), [9])
    with pytest.raises(ValueError, match="label 9"):
        matching_loss(batch, bank)


def test_matching_translation_invariance():
    rng = make_rng(1)
    bank = PrototypeBank([(c, rng.normal(size=3)) for c in range(1, 4)])
    Q = rng.normal(size=(6, 3))
    labels = [1, 2, 3, 1, 2, 3]
    v0, _, _ = matching_loss(QueryBatch(Q, labels), bank)
    c = rng.normal(size=3)
    shifted = PrototypeBank([(cid, bank.get(cid) + c) for cid in bank.ids])
    v1, _, _ = matching_loss(QueryBatch(Q + c, labels), shifted)
    assert abs(v0 - v1) <= 1e-9


def test_kl_zero_when_classifier_reproduces_energies():
    rng = make_rng(2)
    bank = PrototypeBank([(c, rng.normal(size=2)) for c in range(3)])
    Q = rng.normal(size=(5, 2))
    # logits -|q-p|^2 = 2 q.p - |p|^2 - |q|^2; the |q|^2 shift cancels in
    # the softmax, so W = 2P, b = -|p|^2 reproduces the posteriors
    clf = LinearClassifier(2.0 * bank.P, -np.sum(bank.P ** 2, axis=1))
    value, *_ = kl_loss(QueryBatch(Q, [0] * 5), bank, clf)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_kl_uniform_proto_hand_case():
    # both prototypes equidistant -> P_proto uniform; clf logits [ln 2, 0]
    bank = PrototypeBank([(1, [1.0, 0.0]), (2, [-1.0, 0.0])])
    Q = np.array([[0.0, 3.0]])
    clf = LinearClassifier(np.zeros((2, 2)), np.array([math.log(2.0), 0.0]))
    value, *_ = kl_loss(QueryBatch(Q, [1]), bank, clf)
    # KL(U || [2/3, 1/3]) = 0.5 ln(0.5/(2/3)) + 0.5 ln(0.5/(1/3))
    expected = 0.5 * math.log(0.75) + 0.5 * math.log(1.5)
    assert value == pytest.approx(expected, rel=1e-12)


def test_kl_nonnegative_on_random_instances():
    rng = make_rng(3)
    for _ in range(200):
        bank = PrototypeBank([(c, rng.normal(size=3)) for c in range(3)])
        clf = LinearClassifier(rng.normal(size=(3, 3)), rng.normal(size=3))
        Q = rng.normal(size=(4, 3))
        value, *_ = kl_loss(QueryBatch(Q, [0] * 4), bank, clf)
        assert value >= -1e-12


def test_kl_width_mismatch_errors():
    bank = PrototypeBank([(0, [0.0]), (1, [1.0])])
    clf = LinearClassifier(np.zeros((3, 1)), np.zeros(3))
    with pytest.raises(ValueError):
        kl_loss(QueryBatch(np.zeros((1, 1)), [0]), bank, clf)


def test_alignment_identical_prototypes_uniform():
    bank = PrototypeBank([(1, [1.0, 1.0]), (2, [1.0, 1.0]), (3, [1.0, 1.0])])
    batch = QueryBatch(make_rng(4).normal(size=(2, 2)), [1, 3])
    value, _, _ = alignment_loss(batch, bank, tau=2.0)
    assert value == pytest.approx(2 * math.log(3.0), rel=1e-12)


def test_alignment_hand_case():
    # s_true = a/tau, s_other = 0 -> loss = log(1 + exp(-a/tau))
    a, tau = 1.7, 10.0
    bank = PrototypeBank([(1, [1.0, 0.0]), (2, [0.0, 0.0])])
    batch = QueryBatch(np.array([[a, 0.0]]), [1])
    value, _, _ = alignment_loss(batch, bank, tau)
    assert value == pytest.approx(math.log(1.0 + math.exp(-a / tau)), rel=1e-12)


def test_alignment_large_tau_limit():
    rng = make_rng(5)
    bank = PrototypeBank([(c, rng.normal(size=3)) for c in range(1, 5)])
    batch = QueryBatch(rng.normal(size=(3, 3)), [1, 2, 3])
    value, _, _ = alignment_loss(batch, bank, tau=1e12)
    assert value == pytest.approx(3 * math.log(4.0), rel=1e-6)


def test_alignment_rejects_bad_tau():
    bank = PrototypeBank([(1, [0.0])])
    batch = QueryBatch(np.zeros((1, 1)), [1])
    with pytest.raises(ValueError):
        alignment_loss(batch, bank, tau=0.0)


def test_alignment_monotone_in_true_similarity():
    bank = PrototypeBank([(1, [1.0, 0.0]), (2, [0.0, 1.0])])
    prev = None
    for scale in [0.0, 0.5, 1.0, 2.0]:
        batch = QueryBatch(np.array([[scale, 0.3]]), [1])
        value, _, _ = alignment_loss(batch, bank, tau=1.0)
        if prev is not None:
            assert value < prev
        prev = value


def test_alignment_tau_scale_consistency():
    # scaling all embeddings by alpha and tau by alpha^2 leaves s unchanged
    rng = make_rng(6)
    bank = PrototypeBank([(c, rng.normal(size=4)) for c in range(1, 4)])
    Q = rng.normal(size=(5, 4))
    labels = [1, 2, 3, 1, 2]
    v0, _, _ = alignment_loss(QueryBatch(Q, labels), bank, tau=10.0)
    alpha = 3.0
    scaled = PrototypeBank([(c, alpha * bank.get(c)) for c in bank.ids])
    v1, _, _ = alignment_loss(QueryBatch(alpha * Q, labels), scaled,
                              tau=10.0 * alpha * alpha)
    assert abs(v0 - v1) <= 1e-9


def _clf_size(inst):
    """Entries of the parameter vector that belong to the classifier (its tail)."""
    return inst.clf.W.size + inst.clf.b.size


def test_stage1_total_equals_match():
    inst = random_instance(7, cfg=LossConfig.for_stage(1))
    bundle = episode_loss(inst.net, inst.clf, inst.support,
                          inst.query_features, inst.query_labels, inst.cfg,
                          bg_features=inst.bg_features)
    assert bundle.l_total == bundle.l_match
    # stage-1 grads must not touch the classifier (the vector's tail)
    assert np.all(bundle.grads[-_clf_size(inst):] == 0)


def test_stage2_unit_weights_sum():
    inst = random_instance(8)
    bundle = episode_loss(inst.net, inst.clf, inst.support,
                          inst.query_features, inst.query_labels, inst.cfg,
                          bg_features=inst.bg_features)
    assert bundle.l_total == bundle.l_match + bundle.l_kl + bundle.l_align
    assert abs(bundle.raw["l_total"] -
               (bundle.raw["l_match"] + bundle.raw["l_kl"] + bundle.raw["l_align"])) <= 1e-12


def test_bundle_reports_raw_and_normalized():
    inst = random_instance(9)
    bundle = episode_loss(inst.net, inst.clf, inst.support,
                          inst.query_features, inst.query_labels, inst.cfg,
                          bg_features=inst.bg_features)
    n = bundle.n_queries
    assert bundle.l_match == pytest.approx(bundle.raw["l_match"] / n, rel=1e-12)


def _episode(inst, cfg=None, **kw):
    kw.setdefault("bg_features", inst.bg_features)
    return episode_loss(inst.net, inst.clf, inst.support, inst.query_features,
                        inst.query_labels, cfg or inst.cfg, **kw)


def test_losses_nonnegative():
    bundle = _episode(random_instance(10), grads=False)
    assert bundle.l_match >= 0 and bundle.l_kl >= -1e-12 and bundle.l_align >= 0


@pytest.mark.parametrize("variant", [
    {"cfg": LossConfig.for_stage(1)},
    {},
    {"cfg": LossConfig.for_stage(2, 1.0, 1.0, tau=10.0, kl_stop_teacher=True)},
    {"cfg": LossConfig.for_stage(2, 1.0, 1.0, tau=10.0,
                                 align_include_background=False)},
    {"bg_features": None, "frozen_p0": np.linspace(-1.0, 1.0, 6)},
    {"cfg": LossConfig.for_stage(2, 0.5, 2.0, tau=3.0, normalize=False)},
], ids=["stage1", "stage2", "stop_teacher", "align_no_background", "frozen_p0",
        "unnormalized"])
def test_value_only_path_equals_gradient_path(variant, monkeypatch):
    inst = random_instance(12)
    full = _episode(inst, **variant)

    def no_backward(*args):
        raise AssertionError("value-only path ran a backward pass")

    monkeypatch.setattr(inst.net, "backward_batch", no_backward)
    values = _episode(inst, **variant, grads=False)
    assert values.grads is None and full.grads is not None
    for name in ("l_match", "l_kl", "l_align", "l_total"):
        assert getattr(values, name) == getattr(full, name)
    assert values.raw == full.raw
    assert values.bank.ids == full.bank.ids
    assert np.array_equal(values.bank.P, full.bank.P)


def test_value_only_path_keeps_input_checks():
    inst = random_instance(13)
    inst.query_labels = inst.query_labels.copy()
    inst.query_labels[0] = 9
    with pytest.raises(ValueError, match="label 9"):
        _episode(inst, grads=False)
    inst.query_labels[:] = 1     # every label has a prototype without p0
    with pytest.raises(ValueError, match="classifier width"):
        _episode(inst, bg_features=None, grads=False)
    batch = QueryBatch(np.zeros((1, 1)), [1])
    with pytest.raises(ValueError, match="tau"):
        alignment_loss(batch, PrototypeBank([(1, [0.0])]), tau=0.0, grads=False)


@pytest.mark.parametrize("term", ["match", "kl", "align", "total"])
def test_gradients_match_finite_differences(term):
    worst = max(check_term(random_instance(seed), (term,))[term]
                for seed in range(5))
    assert worst <= 1e-4


def test_gradients_without_background_in_alignment():
    cfg = LossConfig.for_stage(2, 1.0, 1.0, tau=10.0,
                               align_include_background=False)
    worst = max(check_term(random_instance(seed, cfg=cfg), ("total",))["total"]
                for seed in range(3))
    assert worst <= 1e-4


def test_gradients_with_stop_teacher_and_deeper_nets():
    # the stop-gradient KL is checked against a teacher held at the
    # unperturbed parameters; depth 3 and 4 add hidden-to-hidden layers
    stop = LossConfig.for_stage(2, 1.0, 1.0, tau=2.0, kl_stop_teacher=True)
    worst = max(max(check_term(random_instance(seed, depth=depth, cfg=cfg)).values())
                for seed in range(3) for depth, cfg in ((2, stop), (3, None), (4, stop)))
    assert worst <= 1e-4
    corrupted = check_term(random_instance(0, depth=3, cfg=stop), corrupt=True)
    assert all(err > 1e-4 for err in corrupted.values())


def _segment_case(seed, case):
    """Instances whose stacked forward has uneven or missing segments."""
    inst = random_instance(seed)
    rng = make_rng(1000 + seed)
    d = inst.query_features.shape[1]
    if case == "unequal_shots":
        inst.support = SupportSet({c: rng.normal(size=(n, d))
                                   for c, n in ((1, 1), (2, 3), (3, 5))})
    elif case == "one_pool_row":
        inst.bg_features = rng.normal(size=(1, d))
    else:  # frozen_p0: no pool rows at all
        inst.bg_features = None
        inst.frozen_p0 = rng.normal(size=inst.net.out_dim)
    return inst


@pytest.mark.parametrize("case", ["unequal_shots", "one_pool_row", "frozen_p0"])
def test_fused_segments_match_finite_differences(case):
    worst = max(max(check_term(_segment_case(seed, case)).values())
                for seed in range(3))
    assert worst <= 1e-4


def test_one_sweep_matches_per_term_sweeps():
    inst = random_instance(14)
    together = check_term(inst)
    assert list(together) == ["match", "kl", "align", "total"]
    for term, err in together.items():
        assert check_term(inst, (term,)) == {term: err}


def test_corrupted_gradient_is_flagged_for_every_term():
    errors = check_term(random_instance(0), corrupt=True)
    assert set(errors) == {"match", "kl", "align", "total"}
    assert all(err > 1e-4 for err in errors.values())


def test_stop_teacher_freezes_prototype_branch_only():
    # stop-gradient drops the prototype branch: net grads change,
    # classifier grads are untouched
    inst = random_instance(11)
    frozen_cfg = LossConfig.for_stage(2, 1.0, 1.0, tau=10.0, kl_stop_teacher=True)

    def kl_grads(cfg):
        return episode_loss(inst.net, inst.clf, inst.support,
                            inst.query_features, inst.query_labels, cfg,
                            bg_features=inst.bg_features,
                            grad_weights=(0.0, 1.0, 0.0)).grads

    g_full = kl_grads(inst.cfg)
    g_frozen = kl_grads(frozen_cfg)
    n_clf = _clf_size(inst)
    assert np.array_equal(g_full[-n_clf:], g_frozen[-n_clf:])
    assert not np.allclose(g_full[:-n_clf], g_frozen[:-n_clf])


def test_stage1_forces_zero_weights():
    cfg = LossConfig(lambda_kl=5.0, lambda_align=2.0, stage=1)
    assert cfg.lambda_kl == 0.0 and cfg.lambda_align == 0.0


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(tau=-1.0)
    with pytest.raises(ValueError):
        LossConfig(stage=3)
    with pytest.raises(ValueError):
        LossConfig(lambda_kl=-0.1, stage=2)
