"""Shared by the tests: the scalar IoU oracle, builders of columnar
scenes and detections from per-box tuples, the value of each loss term
for queries and a bank, the per-entry finite-difference sweep that the
stacked gradient audit must equal, stacks of perturbed parameter
vectors, and a bit-equality check of two worlds."""

import numpy as np

from protodetect.embedder import layout, model_views
from protodetect.gradcheck import TERMS, _grad_weights, _max_rel_err, _term_value
from protodetect.inference import Detections
from protodetect.losses import (alignment_loss, episode_loss, kl_loss, matching_loss,
                                proto_posteriors)
from protodetect.numeric import make_rng, proto_logits
from protodetect.simulator import Scene


def scalar_iou(a, b):
    """IoU of two (x1, y1, x2, y2) boxes, one scalar operation at a time."""
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def boxes(rows):
    """(n, 4) float64 array of box rows."""
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def make_scene(gt=(), proposals=(), d=1):
    """Scene from [(box, class_id)] and [(box, feature)] pairs; d is the
    feature width of a scene without proposals."""
    feats = [np.asarray(f, dtype=np.float64) for _, f in proposals]
    return Scene(proposals=boxes([b for b, _ in proposals]),
                 features=np.stack(feats) if feats else np.empty((0, d)),
                 gt=boxes([b for b, _ in gt]),
                 labels=np.array([c for _, c in gt], dtype=np.int64))


def make_detections(triples):
    """Detections from [(box, class_id, score)]."""
    return Detections(boxes([b for b, _, _ in triples]),
                      np.array([c for _, c, _ in triples], dtype=np.int64),
                      np.array([s for _, _, s in triples], dtype=np.float64))


def label_rows(bank, labels):
    """The bank row of each label."""
    return np.array([bank.index_of(c) for c in labels], dtype=np.int64)


def matching_value(Q, labels, bank):
    """The matching loss of queries Q (rows) with these labels against bank."""
    post = proto_posteriors(proto_logits(Q, bank.P)[1])
    return matching_loss(post, label_rows(bank, labels))[0]


def kl_value(Q, bank, clf):
    """The KL term of queries Q against bank and classifier."""
    Q = np.asarray(Q, dtype=np.float64)
    return kl_loss(Q, clf, proto_posteriors(proto_logits(Q, bank.P)[1]))[0]


def alignment_value(Q, labels, bank, tau):
    """The alignment loss of queries Q with these labels against bank."""
    return alignment_loss(proto_logits(Q, bank.P)[0], label_rows(bank, labels), tau)[0]


def per_entry_check_term(inst, terms=TERMS, h=1e-6):
    """The gradient audit of `gradcheck.check_term`, one value call per
    probe: entry i of inst.theta is written to orig + h, then orig - h,
    then restored, and each probe is a value-only `episode_loss` call on
    the instance's own net and classifier. {term: max relative error}."""
    episode = inst.episode()

    def loss(**kw):
        return episode_loss(inst.net, inst.clf, episode, inst.query_features,
                            inst.lambdas, inst.tau, bg_features=inst.bg_features, **kw)

    # each call overwrites the episode's gradient vector
    analytic = {t: loss(grad_weights=_grad_weights(t, inst.lambdas)).grads.copy()
                for t in terms}

    def values():
        bundle = loss(grads=False)
        return np.array([_term_value(bundle, t) for t in terms])

    theta = inst.theta
    numeric = np.zeros((len(terms), theta.size))
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        f_plus = values()
        theta[i] = orig - h
        f_minus = values()
        theta[i] = orig
        numeric[:, i] = (f_plus - f_minus) / (2.0 * h)
    return {t: _max_rel_err(analytic[t], numeric[j]) for j, t in enumerate(terms)}


def probe_stack(inst, n=5, seed=0):
    """n randomly perturbed copies of inst.theta as rows of one stack:
    (stacked (net, clf) viewing the stack, [(net, clf) of each row])."""
    stack = inst.theta + make_rng(seed).normal(scale=0.1, size=(n, inst.theta.size))
    shapes = layout(inst.net, inst.clf)
    return model_views(stack, shapes), [model_views(row, shapes) for row in stack]


def assert_worlds_equal(a, b):
    """Same config and bit-equal arrays, scene by scene."""
    assert a.config == b.config
    assert np.array_equal(a.class_means, b.class_means)
    for sa, sb in zip(a.train.scenes + a.test.scenes, b.train.scenes + b.test.scenes):
        for name in ("proposals", "features", "gt", "labels"):
            x, y = getattr(sa, name), getattr(sb, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert len(a.train.scenes) == len(b.train.scenes)
    assert len(a.test.scenes) == len(b.test.scenes)
    for sa, sb in ((a.support_seen, b.support_seen), (a.support_unseen, b.support_unseen)):
        assert sorted(sa) == sorted(sb)
        assert all(np.array_equal(sa[c], sb[c]) for c in sa)

