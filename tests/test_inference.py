from types import SimpleNamespace

import numpy as np
import pytest

from protodetect.embedder import EmbeddingNet
from protodetect.inference import (FEWSHOT, MODES, OPENSET, ZS_MPS, ZS_MPU, ZS_UO,
                                   assemble_protocol, detect_scene)
from protodetect.numeric import make_rng
from protodetect.prototypes import BACKGROUND_ID, PrototypeBank, SupportSet, build_prototypes

from helpers import make_scene


def identity_net(d):
    return EmbeddingNet([(np.eye(d), np.zeros(d)), (np.eye(d), np.zeros(d))])


def identity_detect(scene, bank):
    """detect_scene on the identity net's embedding of the scene."""
    return detect_scene(scene, identity_net(scene.features.shape[1]).embed(scene.features),
                        bank)


def simple_bank():
    return PrototypeBank([(0, [0.0, 0.0]), (1, [4.0, 0.0]), (2, [0.0, 4.0])])


def classify(q, bank):
    """(class id, score) that detect_scene gives one proposal embedded at
    q (entries >= 0, so the identity net passes it through), or
    (BACKGROUND_ID, None) when it rejects the proposal."""
    q = np.asarray(q, dtype=np.float64)
    scene = make_scene(proposals=[((0, 0, 1, 1), q)])
    dets = identity_detect(scene, bank)
    return (dets.class_ids[0], dets.scores[0]) if len(dets) else (BACKGROUND_ID, None)


def test_classify_at_background_rejects():
    assert classify([0.0, 0.0], simple_bank()) == (BACKGROUND_ID, None)


def test_classify_at_class_prototype():
    cid, score = classify([4.0, 0.0], simple_bank())
    assert cid == 1
    assert 0 < score <= 1


def test_classify_tie_rejects_via_lowest_id():
    bank = PrototypeBank([(0, [0.0, 0.0]), (1, [4.0, 0.0])])
    assert classify([2.0, 0.0], bank) == (BACKGROUND_ID, None)


def test_classify_requires_background():
    # detect_scene rejects what lands on p0, so every bank it is given,
    # which assemble_protocol builds, holds p0 under BACKGROUND_ID
    p0 = np.full(4, 3.0)
    for mode in MODES:
        bank, _, _ = assemble_protocol(mode, support_world(), identity_net(4), p0)
        assert np.array_equal(bank.get(BACKGROUND_ID), p0), mode


def test_classify_decision_depends_only_on_distance_order():
    rng = make_rng(0)
    bank = PrototypeBank([(c, rng.uniform(0, 2, size=3)) for c in range(4)])
    # monotone transform of distances: scale all embeddings
    scaled = PrototypeBank([(c, 3.0 * bank.get(c)) for c in bank.ids])
    for _ in range(50):
        q = rng.uniform(0, 2, size=3)
        assert classify(q, bank)[0] == classify(3.0 * q, scaled)[0]


def test_detect_scene_is_nearest_prototype_scored_by_posterior():
    # scalar-loop oracle: nearest prototype by squared distance (first
    # minimum, so the lowest id on ties), score its energy posterior
    rng = make_rng(3)
    bank = PrototypeBank([(c, rng.uniform(0, 3, size=4)) for c in range(5)])
    proposals = [((i, i, i + 1, i + 1), rng.uniform(0, 3, size=4))
                 for i in range(40)]
    dets = identity_detect(make_scene(proposals=proposals), bank)
    expected = []
    for box, q in proposals:
        d = [sum((q[i] - p[i]) ** 2 for i in range(4)) for p in bank.P]
        best = min(range(len(d)), key=lambda j: (d[j], j))
        if bank.ids[best] != BACKGROUND_ID:
            z = np.exp(-(np.array(d) - min(d)))
            expected.append((box, bank.ids[best], z[best] / z.sum()))
    assert 0 < len(expected) < len(proposals)
    assert list(zip(map(tuple, dets.boxes.tolist()), dets.class_ids.tolist())) == \
        [e[:2] for e in expected]
    assert np.allclose(dets.scores, [e[2] for e in expected], rtol=1e-12, atol=0)


def test_detect_empty_scene():
    dets = identity_detect(make_scene(d=2), simple_bank())
    assert len(dets) == 0 and dets.boxes.shape == (0, 4)
    assert dets.class_ids.shape == dets.scores.shape == (0,)


def test_detect_scene_classifies_and_rejects():
    scene = make_scene(proposals=[
        ((0, 0, 1, 1), np.array([4.0, 0.1])),   # class 1
        ((2, 2, 3, 3), np.array([0.1, 0.0])),   # background
        ((4, 4, 5, 5), np.array([0.0, 3.9])),   # class 2
    ])
    dets = identity_detect(scene, simple_bank())
    assert dets.class_ids.tolist() == [1, 2]
    assert dets.boxes.tolist() == [[0, 0, 1, 1], [4, 4, 5, 5]]
    assert all(0 < s <= 1 for s in dets.scores)
    assert len(dets) <= len(scene.proposals)


def toy_world(seen, unseen=None):
    """The parts of a World that assemble_protocol reads: the support
    sets ({class_id: (shots, d) rows}; no unseen classes is {}) and the
    unknown id."""
    return SimpleNamespace(support_seen=seen, support_unseen=unseen or {}, unknown_id=99)


def support_world(d=4):
    rng = make_rng(1)
    seen = {c: rng.normal(size=(3, d)) for c in range(1, 6)}
    unseen = {c: rng.normal(size=(3, d)) for c in range(6, 9)}
    return toy_world(seen, unseen)


def test_protocol_uo_bank():
    bank, eval_ids, unknown_id = assemble_protocol(ZS_UO, support_world(), identity_net(4),
                                                   np.zeros(4))
    assert sorted(bank.ids) == [0, 6, 7, 8]
    assert eval_ids == [6, 7, 8]
    assert unknown_id is None


def test_protocol_mpu_mps():
    world, net = support_world(), identity_net(4)
    bank, eval_u, _ = assemble_protocol(ZS_MPU, world, net, np.zeros(4))
    assert sorted(bank.ids) == [0, 1, 2, 3, 4, 5, 6, 7, 8]
    assert eval_u == [6, 7, 8]
    _, eval_s, unknown_id = assemble_protocol(ZS_MPS, world, net, np.zeros(4))
    assert eval_s == [1, 2, 3, 4, 5]
    assert set(eval_s) & set(eval_u) == set()
    assert unknown_id is None


def test_protocol_fewshot():
    bank, eval_ids, unknown_id = assemble_protocol(FEWSHOT, support_world(), identity_net(4),
                                                   np.zeros(4))
    assert sorted(bank.ids) == [0, 1, 2, 3, 4, 5]
    assert eval_ids == [1, 2, 3, 4, 5]
    assert unknown_id is None


def test_protocol_openset_counts():
    # 15 seen classes -> bank has 15 + background + unknown entries; the
    # unknown is scored by evaluate, not listed among the scored ids
    rng = make_rng(2)
    world = toy_world({c: rng.normal(size=(2, 4)) for c in range(1, 16)},
                      {16: rng.normal(size=(2, 4))})
    bank, eval_ids, unknown_id = assemble_protocol(OPENSET, world, identity_net(4),
                                                   np.zeros(4))
    assert len(bank) == 17
    assert 99 in bank.ids and 0 in bank.ids and 16 not in bank.ids
    assert eval_ids == list(range(1, 16))
    assert unknown_id == 99


def test_protocol_openset_unknown_includes_background():
    # the unknown prototype is the mean of the class prototypes and p0
    world, net = support_world(), identity_net(4)
    p0 = np.full(4, 10.0)
    bank, _, _ = assemble_protocol(OPENSET, world, net, p0)
    class_P = build_prototypes(net, SupportSet(world.support_seen)).P
    assert np.allclose(bank.get(99), np.vstack([class_P, p0]).mean(axis=0), atol=1e-12)
    assert not np.allclose(bank.get(99), class_P.mean(axis=0))


@pytest.mark.parametrize("mode", MODES)
def test_protocol_needs_unseen_support_unless_fewshot(mode):
    # every mode but fewshot banks the unseen classes or is open, so it
    # needs them
    world = toy_world(support_world().support_seen)
    if mode == FEWSHOT:
        assemble_protocol(mode, world, identity_net(4), np.zeros(4))
    else:
        with pytest.raises(ValueError, match=f"^mode {mode} requires unseen support classes$"):
            assemble_protocol(mode, world, identity_net(4), np.zeros(4))


def test_protocol_spec_rejects_unknown_mode():
    # the mode names a row of PROTOCOLS
    with pytest.raises(KeyError):
        assemble_protocol("bogus", support_world(), identity_net(4), np.zeros(4))
