import numpy as np
import pytest

from protodetect.embedder import EmbeddingNet
from protodetect.inference import (FEWSHOT, OPENSET, REJECT, ZS_MPS, ZS_MPU,
                                   ZS_UO, ProtocolSpec, assemble_protocol,
                                   classify_proposal, detect_scene)
from protodetect.numeric import make_rng
from protodetect.prototypes import PrototypeBank, SupportSet
from protodetect.simulator import Box, Scene


def identity_net(d):
    return EmbeddingNet([(np.eye(d), np.zeros(d)), (np.eye(d), np.zeros(d))])


def simple_bank():
    return PrototypeBank([(0, [0.0, 0.0]), (1, [4.0, 0.0]), (2, [0.0, 4.0])])


def test_classify_at_background_rejects():
    cid, score = classify_proposal(np.array([0.0, 0.0]), simple_bank())
    assert cid == REJECT
    assert 0 < score <= 1


def test_classify_at_class_prototype():
    cid, score = classify_proposal(np.array([4.0, 0.0]), simple_bank())
    assert cid == 1
    assert 0 < score <= 1


def test_classify_tie_rejects_via_lowest_id():
    bank = PrototypeBank([(0, [0.0, 0.0]), (1, [4.0, 0.0])])
    cid, _ = classify_proposal(np.array([2.0, 0.0]), bank)
    assert cid == REJECT


def test_classify_requires_background():
    bank = PrototypeBank([(1, [0.0, 0.0])])
    with pytest.raises(ValueError):
        classify_proposal(np.zeros(2), bank)


def test_classify_decision_depends_only_on_distance_order():
    rng = make_rng(0)
    bank = PrototypeBank([(c, rng.normal(size=3)) for c in range(4)])
    for _ in range(50):
        q = rng.normal(size=3)
        cid, _ = classify_proposal(q, bank)
        # monotone transform of distances: scale all embeddings
        scaled = PrototypeBank([(c, 3.0 * bank.get(c)) for c in bank.ids])
        cid2, _ = classify_proposal(3.0 * q, scaled)
        assert cid == cid2


def test_detect_empty_scene():
    net = identity_net(2)
    assert detect_scene(Scene(gt=[], proposals=[]), net, simple_bank()) == []


def test_detect_scene_classifies_and_rejects():
    net = identity_net(2)
    scene = Scene(gt=[], proposals=[
        (Box(0, 0, 1, 1), np.array([4.0, 0.1])),   # class 1
        (Box(2, 2, 3, 3), np.array([0.1, 0.0])),   # background
        (Box(4, 4, 5, 5), np.array([0.0, 3.9])),   # class 2
    ])
    dets = detect_scene(scene, net, simple_bank())
    assert [d.class_id for d in dets] == [1, 2]
    assert all(0 < d.score <= 1 for d in dets)
    assert len(dets) <= len(scene.proposals)


def support_sets(d=4):
    rng = make_rng(1)
    seen = SupportSet({c: rng.normal(size=(3, d)) for c in range(1, 6)})
    unseen = SupportSet({c: rng.normal(size=(3, d)) for c in range(6, 9)})
    return seen, unseen


def test_protocol_uo_bank():
    seen, unseen = support_sets()
    net = identity_net(4)
    bank, eval_ids = assemble_protocol(ProtocolSpec(mode=ZS_UO), seen, unseen,
                                       net, np.zeros(4))
    assert sorted(bank.ids) == [0, 6, 7, 8]
    assert eval_ids == [6, 7, 8]


def test_protocol_mpu_mps():
    seen, unseen = support_sets()
    net = identity_net(4)
    bank, eval_u = assemble_protocol(ProtocolSpec(mode=ZS_MPU), seen, unseen,
                                     net, np.zeros(4))
    assert sorted(bank.ids) == [0, 1, 2, 3, 4, 5, 6, 7, 8]
    assert eval_u == [6, 7, 8]
    _, eval_s = assemble_protocol(ProtocolSpec(mode=ZS_MPS), seen, unseen,
                                  net, np.zeros(4))
    assert eval_s == [1, 2, 3, 4, 5]
    assert set(eval_s) & set(eval_u) == set()


def test_protocol_fewshot():
    seen, unseen = support_sets()
    net = identity_net(4)
    bank, eval_ids = assemble_protocol(ProtocolSpec(mode=FEWSHOT), seen, unseen,
                                       net, np.zeros(4))
    assert sorted(bank.ids) == [0, 1, 2, 3, 4, 5]
    assert eval_ids == [1, 2, 3, 4, 5]


def test_protocol_openset_counts():
    # 15 seen classes -> bank has 15 + background + unknown entries
    rng = make_rng(2)
    seen = SupportSet({c: rng.normal(size=(2, 4)) for c in range(1, 16)})
    net = identity_net(4)
    bank, eval_ids = assemble_protocol(
        ProtocolSpec(mode=OPENSET, unknown_id=99), seen, None, net, np.zeros(4))
    assert len(bank) == 17
    assert bank.has(99) and bank.has(0)
    assert eval_ids == list(range(1, 16)) + [99]


def test_protocol_openset_unknown_composition_flag():
    seen, _ = support_sets()
    net = identity_net(4)
    p0 = np.full(4, 10.0)
    bank_bg, _ = assemble_protocol(
        ProtocolSpec(mode=OPENSET, unknown_id=99, unknown_includes_background=True),
        seen, None, net, p0)
    bank_nobg, _ = assemble_protocol(
        ProtocolSpec(mode=OPENSET, unknown_id=99, unknown_includes_background=False),
        seen, None, net, p0)
    assert not np.allclose(bank_bg.get(99), bank_nobg.get(99))
    from protodetect.prototypes import build_prototypes
    class_bank = build_prototypes(net, seen)
    assert np.allclose(bank_nobg.get(99), class_bank.P.mean(axis=0), atol=1e-12)


def test_protocol_missing_support_errors():
    seen, _ = support_sets()
    net = identity_net(4)
    with pytest.raises(ValueError):
        assemble_protocol(ProtocolSpec(mode=ZS_UO), seen, None, net, np.zeros(4))


def test_protocol_spec_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ProtocolSpec(mode="bogus")
