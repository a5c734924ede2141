import tracemalloc

import numpy as np
import pytest

from protodetect.embedder import EmbeddingNet, default_net_and_classifier
from protodetect.numeric import make_rng
from protodetect.prototypes import (PrototypeBank, SupportSet,
                                    background_pool, build_prototypes,
                                    compose_unknown_prototype, nearest_prototype,
                                    posteriors_batch, segment_means)
from protodetect.simulator import Scene, label_proposals
from protodetect.trainer import background_prototype, scene_background_features

from helpers import make_scene, scalar_iou


def random_net(seed=0, d=6, hidden=8, e=4):
    return default_net_and_classifier(seed, d, hidden, e, 1)[0]


def embed(net, v):
    return net.forward_batch(np.asarray(v)[None, :])[0][0]


def posteriors(q, bank):
    return posteriors_batch(np.asarray(q)[None, :], bank)[0]


def background_of(net, proposals, gt_boxes):
    scene = make_scene(gt=[(b, 1) for b in gt_boxes], proposals=proposals)
    return background_prototype(net, [scene_background_features(scene)])


def test_single_shot_prototype_is_embedding():
    net = random_net()
    v = make_rng(1).normal(size=6)
    bank = build_prototypes(net, SupportSet({1: v[None, :]}))
    q = embed(net, v)
    assert np.allclose(bank.get(1), q, atol=1e-15)


def test_identical_support_gives_same_prototype():
    net = random_net()
    v = make_rng(2).normal(size=6)
    bank = build_prototypes(net, SupportSet({1: np.tile(v, (5, 1))}))
    q = embed(net, v)
    assert np.allclose(bank.get(1), q, atol=1e-12)


def test_prototype_matches_scalar_averaging_oracle():
    net = random_net(3)
    feats = make_rng(4).normal(size=(5, 6))
    bank = build_prototypes(net, SupportSet({2: feats}))
    # scalar-loop oracle over individual forward passes
    acc = np.zeros(4)
    for v in feats:
        acc += embed(net, v)
    assert np.allclose(bank.get(2), acc / 5, atol=1e-12)


def test_prototype_linearity_in_embeddings():
    net = random_net(5)
    feats = make_rng(6).normal(size=(4, 6))
    bank = build_prototypes(net, SupportSet({1: feats}))
    scaled = EmbeddingNet([(net.layers[0][0], net.layers[0][1]),
                           (2.0 * net.layers[1][0], 2.0 * net.layers[1][1])])
    bank2 = build_prototypes(scaled, SupportSet({1: feats}))
    assert np.allclose(bank2.get(1), 2.0 * bank.get(1), atol=1e-12)


def test_empty_class_rejected():
    with pytest.raises(ValueError):
        SupportSet({1: np.zeros((0, 6))})


def test_background_prototype_single_qualifier():
    net = random_net()
    gt = [(0, 0, 10, 10)]
    far = ((50, 50, 60, 60), make_rng(7).normal(size=6))
    p0 = background_of(net, [far], gt)
    assert np.allclose(p0, embed(net, far[1]), atol=1e-15)


def test_background_excludes_overlapping_proposal():
    net = random_net()
    gt = [(0, 0, 10, 10)]
    on_gt = ((0, 0, 10, 10), np.ones(6))          # IoU = 1, excluded
    far = ((50, 50, 60, 60), make_rng(8).normal(size=6))
    p0 = background_of(net, [on_gt, far], gt)
    assert np.allclose(p0, embed(net, far[1]), atol=1e-15)


def test_background_mixed_pool_matches_filter_oracle():
    net = random_net(9)
    rng = make_rng(10)
    gt = [(10, 10, 30, 30)]
    proposals = []
    for _ in range(20):
        x = rng.uniform(0, 80)
        proposals.append(((x, x, x + 15, x + 15), rng.normal(size=6)))
    pool = [f for b, f in proposals if max(scalar_iou(b, g) for g in gt) < 0.3]
    assert pool  # oracle needs a nonempty pool for this seed
    expected = np.mean([embed(net, f) for f in pool], axis=0)
    p0 = background_of(net, proposals, gt)
    assert np.allclose(p0, expected, atol=1e-12)


def test_background_pool_rows_equal_scalar_iou_filter():
    rng = make_rng(11)
    corner = rng.uniform(0, 40, size=(30, 2))
    props = np.concatenate([corner, corner + rng.uniform(1, 15, size=(30, 2))], axis=1)
    gt = np.array([[10.0, 10.0, 25.0, 25.0], [30.0, 5.0, 45.0, 20.0]])
    feats = rng.normal(size=(30, 3))
    keep = [max(scalar_iou(b, g) for g in gt.tolist()) < 0.3 for b in props.tolist()]
    assert 0 < sum(keep) < 30
    scene = Scene(props, feats, gt, np.array([1, 2]))
    assert np.array_equal(background_pool(feats, label_proposals(scene)), feats[keep])
    # without GT boxes every proposal is background
    bare = Scene(props, feats, np.empty((0, 4)), np.empty(0, dtype=np.int64))
    assert np.array_equal(background_pool(feats, label_proposals(bare)), feats)


def test_background_empty_pool_errors():
    # no qualifying proposal: an empty pool, and no pool gives no p0
    # (train refuses such a world before its first step)
    scene = make_scene(gt=[((0, 0, 10, 10), 1)], proposals=[((0, 0, 10, 10), np.ones(6))])
    assert scene_background_features(scene).shape == (0, 6)
    with pytest.raises(ValueError):
        background_prototype(random_net(), [])


def test_compose_unknown_single_class():
    bank = PrototypeBank([(1, [1.0, 2.0])])
    assert np.array_equal(compose_unknown_prototype(bank), [1.0, 2.0])


def test_compose_unknown_symmetric_cancellation():
    bank = PrototypeBank([(1, [1.0, -2.0]), (2, [-1.0, 2.0])])
    unk = compose_unknown_prototype(bank)
    assert np.allclose(unk, 0.0, atol=1e-15)


def test_compose_unknown_with_background_matches_mean_oracle():
    rng = make_rng(11)
    entries = [(c, rng.normal(size=3)) for c in range(6)]  # ids 0..5
    bank = PrototypeBank(entries)
    unk = compose_unknown_prototype(bank)
    assert np.allclose(unk, np.mean([p for _, p in entries], axis=0), atol=1e-12)


def test_posteriors_equidistant_pair():
    bank = PrototypeBank([(1, [1.0, 0.0]), (2, [-1.0, 0.0])])
    p = posteriors(np.array([0.0, 5.0]), bank)
    assert np.allclose(p, [0.5, 0.5], atol=1e-15)


def test_posteriors_argmax_at_own_prototype():
    rng = make_rng(12)
    bank = PrototypeBank([(c, rng.normal(size=4)) for c in range(1, 5)])
    for c in range(1, 5):
        p = posteriors(bank.get(c), bank)
        assert bank.ids[int(np.argmax(p))] == c


def test_posteriors_hand_softmax():
    # prototypes at squared distances 0, 1, 4 from the query
    bank = PrototypeBank([(1, [0.0]), (2, [1.0]), (3, [2.0])])
    p = posteriors(np.array([0.0]), bank)
    z = np.array([-0.0, -1.0, -4.0])
    expected = np.exp(z) / np.exp(z).sum()
    assert np.allclose(p, expected, atol=1e-14)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e308])
def test_posteriors_reject_non_finite_embeddings(bad):
    # 1e308 is finite, but its logit 2 q.p against prototype 2 is not
    bank = PrototypeBank([(1, [0.0, 1.0]), (2, [1.0, 0.0])])
    with pytest.raises(FloatingPointError, match="non-finite"):
        posteriors_batch(np.array([[0.0, 0.0], [bad, 0.0]]), bank)


def test_posteriors_sum_to_one_and_translation_equivariance():
    rng = make_rng(13)
    bank = PrototypeBank([(c, rng.normal(size=5)) for c in range(4)])
    q = rng.normal(size=5)
    p = posteriors(q, bank)
    assert abs(p.sum() - 1.0) <= 1e-12
    c = rng.normal(size=5)
    shifted = PrototypeBank([(cid, bank.get(cid) + c) for cid in bank.ids])
    assert np.allclose(posteriors(q + c, shifted), p, atol=1e-12)


def test_nearest_tie_breaks_to_lowest_id():
    # the decision is the argmax of the posterior row, first maximum wins:
    # row 0 is equidistant from ids 2 and 5, rows 1 and 2 are not
    bank = PrototypeBank([(5, [-1.0, 0.0]), (2, [1.0, 0.0]), (0, [0.0, 9.0])])
    Q = np.array([[0.0, 0.0], [-0.5, 0.0], [0.5, 1.0]])
    P = posteriors_batch(Q, bank)
    assert P[0, 1] == P[0, 2]
    ids, scores = nearest_prototype(Q, bank)
    assert ids.tolist() == [2, 5, 2]
    assert np.array_equal(scores, P[[0, 1, 2], [1, 2, 1]])


def test_nearest_of_no_rows_is_empty():
    bank = PrototypeBank([(0, [0.0, 0.0]), (1, [1.0, 0.0])])
    ids, scores = nearest_prototype(np.empty((0, 2), dtype=np.float32), bank)
    assert ids.shape == scores.shape == (0,)
    assert ids.dtype == np.int64 and scores.dtype == np.float64


def test_bank_rejects_duplicates():
    with pytest.raises(ValueError):
        PrototypeBank([(1, [0.0]), (1, [1.0])])


def test_stacked_segment_means_equal_each_slice():
    E = make_rng(4).normal(size=(5, 13, 6))
    counts = [3, 1, 5, 4]
    stacked = segment_means(E, counts)
    for k in range(5):
        for mean, mean_k in zip(stacked, segment_means(E[k], counts)):
            assert np.array_equal(mean[k], mean_k)
    bank = PrototypeBank(zip(range(4), stacked))
    assert bank.P.shape == (5, 4, 6)
    assert np.array_equal(bank.P[2], PrototypeBank(zip(range(4), segment_means(E[2], counts))).P)


def test_posteriors_batch_forms_no_difference_tensor():
    # an (N, K, e) float64 difference tensor of 4000 queries, 7 prototypes
    # and 128 dims alone would take 28.7 MB; the (N, K) logits take 224 kB
    rng = make_rng(9)
    Q = rng.normal(size=(4000, 128))
    bank = PrototypeBank([(c, rng.normal(size=128)) for c in range(7)])
    tracemalloc.start()
    try:
        posteriors_batch(Q, bank)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
