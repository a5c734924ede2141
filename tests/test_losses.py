import errno
import math
import mmap

import numpy as np
import pytest

from protodetect import losses
from protodetect.embedder import EmbeddingNet, LinearClassifier
from protodetect.gradcheck import check_term, random_instance
from protodetect.losses import Episode, alignment_loss, episode_loss, mapped_empty
from protodetect.numeric import log_softmax, make_rng, proto_logits
from protodetect.prototypes import PrototypeBank, SupportSet

from helpers import alignment_value, kl_value, matching_value, probe_stack


def two_proto_bank(D):
    """Prototypes a squared distance D apart along the first axis."""
    return PrototypeBank([(1, [0.0, 0.0]), (2, [math.sqrt(D), 0.0])])


def test_matching_query_at_own_prototype():
    D = 3.7
    bank = two_proto_bank(D)
    value = matching_value([[0.0, 0.0]], [1], bank)
    assert value == pytest.approx(math.log(1.0 + math.exp(-D)), rel=1e-12)


def test_matching_singleton_bank_is_zero():
    bank = PrototypeBank([(1, [5.0, -1.0])])
    value = matching_value(make_rng(0).normal(size=(4, 2)), [1, 1, 1, 1], bank)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_matching_midpoint_is_log2():
    bank = PrototypeBank([(1, [1.0, 0.0]), (2, [-1.0, 0.0])])
    value = matching_value([[0.0, 0.0]], [2], bank)
    assert value == pytest.approx(math.log(2.0), rel=1e-12)


def test_matching_missing_prototype_errors():
    # the episode maps every label to its prototype row once, when built
    inst = random_instance(0, lambdas=(0.0, 0.0))
    inst.query_labels = inst.query_labels.copy()
    inst.query_labels[-1] = 9
    with pytest.raises(ValueError, match="label 9"):
        inst.episode()


def test_matching_translation_invariance():
    rng = make_rng(1)
    bank = PrototypeBank([(c, rng.normal(size=3)) for c in range(1, 4)])
    Q = rng.normal(size=(6, 3))
    labels = [1, 2, 3, 1, 2, 3]
    v0 = matching_value(Q, labels, bank)
    c = rng.normal(size=3)
    shifted = PrototypeBank([(cid, bank.get(cid) + c) for cid in bank.ids])
    v1 = matching_value(Q + c, labels, shifted)
    assert abs(v0 - v1) <= 1e-9


def test_kl_zero_when_classifier_reproduces_energies():
    rng = make_rng(2)
    bank = PrototypeBank([(c, rng.normal(size=2)) for c in range(3)])
    Q = rng.normal(size=(5, 2))
    # logits -|q-p|^2 = 2 q.p - |p|^2 - |q|^2; the |q|^2 shift cancels in
    # the softmax, so W = 2P, b = -|p|^2 reproduces the posteriors
    clf = LinearClassifier(2.0 * bank.P, -np.sum(bank.P ** 2, axis=1))
    value = kl_value(Q, bank, clf)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_kl_uniform_proto_hand_case():
    # both prototypes equidistant -> P_proto uniform; clf logits [ln 2, 0]
    bank = PrototypeBank([(1, [1.0, 0.0]), (2, [-1.0, 0.0])])
    Q = np.array([[0.0, 3.0]])
    clf = LinearClassifier(np.zeros((2, 2)), np.array([math.log(2.0), 0.0]))
    value = kl_value(Q, bank, clf)
    # KL(U || [2/3, 1/3]) = 0.5 ln(0.5/(2/3)) + 0.5 ln(0.5/(1/3))
    expected = 0.5 * math.log(0.75) + 0.5 * math.log(1.5)
    assert value == pytest.approx(expected, rel=1e-12)


def test_kl_nonnegative_on_random_instances():
    rng = make_rng(3)
    for _ in range(200):
        bank = PrototypeBank([(c, rng.normal(size=3)) for c in range(3)])
        clf = LinearClassifier(rng.normal(size=(3, 3)), rng.normal(size=3))
        Q = rng.normal(size=(4, 3))
        value = kl_value(Q, bank, clf)
        assert value >= -1e-12


def test_kl_width_mismatch_errors():
    bank = PrototypeBank([(0, [0.0]), (1, [1.0])])
    clf = LinearClassifier(np.zeros((3, 1)), np.zeros(3))
    with pytest.raises(ValueError):
        kl_value(np.zeros((1, 1)), bank, clf)


def test_alignment_identical_prototypes_uniform():
    bank = PrototypeBank([(1, [1.0, 1.0]), (2, [1.0, 1.0]), (3, [1.0, 1.0])])
    value = alignment_value(make_rng(4).normal(size=(2, 2)), [1, 3], bank, tau=2.0)
    assert value == pytest.approx(2 * math.log(3.0), rel=1e-12)


def test_alignment_hand_case():
    # s_true = a/tau, s_other = 0 -> loss = log(1 + exp(-a/tau))
    a, tau = 1.7, 10.0
    bank = PrototypeBank([(1, [1.0, 0.0]), (2, [0.0, 0.0])])
    value = alignment_value([[a, 0.0]], [1], bank, tau)
    assert value == pytest.approx(math.log(1.0 + math.exp(-a / tau)), rel=1e-12)


def test_alignment_large_tau_limit():
    rng = make_rng(5)
    bank = PrototypeBank([(c, rng.normal(size=3)) for c in range(1, 5)])
    value = alignment_value(rng.normal(size=(3, 3)), [1, 2, 3], bank, tau=1e12)
    assert value == pytest.approx(3 * math.log(4.0), rel=1e-6)


def test_alignment_rejects_bad_tau():
    bank = PrototypeBank([(1, [0.0])])
    with pytest.raises(ValueError):
        alignment_value(np.zeros((1, 1)), [1], bank, tau=0.0)


@pytest.mark.parametrize("stack", [(), (3,)], ids=["matrix", "stack"])
def test_alignment_value_keeps_its_product(stack):
    # alignment reads the S of proto_logits, the product Q @ P^T it once
    # took itself; its value is bit-equal to that formula's
    rng = make_rng(21)
    Q, P = rng.normal(size=(*stack, 40, 16)), rng.normal(size=(*stack, 6, 16))
    y_idx, tau = rng.integers(6, size=40), 10.0
    logp = log_softmax((Q @ P.swapaxes(-1, -2)) / tau, axis=-1)
    expected = -np.sum(np.ascontiguousarray(logp[..., np.arange(40), y_idx]), axis=-1)
    value, _ = alignment_loss(proto_logits(Q, P)[0], y_idx, tau, grads=False)
    assert np.array_equal(value, expected)


def test_alignment_monotone_in_true_similarity():
    bank = PrototypeBank([(1, [1.0, 0.0]), (2, [0.0, 1.0])])
    prev = None
    for scale in [0.0, 0.5, 1.0, 2.0]:
        value = alignment_value([[scale, 0.3]], [1], bank, tau=1.0)
        if prev is not None:
            assert value < prev
        prev = value


def test_alignment_tau_scale_consistency():
    # scaling all embeddings by alpha and tau by alpha^2 leaves s unchanged
    rng = make_rng(6)
    bank = PrototypeBank([(c, rng.normal(size=4)) for c in range(1, 4)])
    Q = rng.normal(size=(5, 4))
    labels = [1, 2, 3, 1, 2]
    v0 = alignment_value(Q, labels, bank, tau=10.0)
    alpha = 3.0
    scaled = PrototypeBank([(c, alpha * bank.get(c)) for c in bank.ids])
    v1 = alignment_value(alpha * Q, labels, scaled, tau=10.0 * alpha * alpha)
    assert abs(v0 - v1) <= 1e-9


def _clf_size(inst):
    """Entries of the parameter vector that belong to the classifier (its tail)."""
    return inst.clf.W.size + inst.clf.b.size


def test_stage1_total_equals_match():
    inst = random_instance(7, lambdas=(0.0, 0.0))
    bundle = _episode(inst)
    assert bundle.l_total == bundle.l_match
    # stage-1 grads must not touch the classifier (the vector's tail)
    assert np.all(bundle.grads[-_clf_size(inst):] == 0)


def _raw_sums(inst, bundle):
    """(match, kl, align): each term's sum over the loss head's queries,
    the instance's queries and then its pool rows labelled background,
    against the episode's prototypes, from the per-term functions."""
    Q, _ = inst.net.forward_batch(np.concatenate([inst.query_features, inst.bg_features]))
    labels = np.concatenate([inst.query_labels, np.zeros(len(inst.bg_features), np.int64)])
    bank = PrototypeBank(zip(inst.episode().ids, bundle.P))
    return (matching_value(Q, labels, bank),
            kl_value(Q, bank, inst.clf),
            alignment_value(Q, labels, bank, inst.tau))


def _n_queries(inst):
    """Queries in the loss head: the instance's own, then its pool rows."""
    return len(inst.query_labels) + len(inst.bg_features)


def test_stage2_unit_weights_sum():
    inst = random_instance(8)
    bundle = _episode(inst)
    assert bundle.l_total == bundle.l_match + bundle.l_kl + bundle.l_align
    # the raw sums, n x the per-query means, add up the same way
    n = _n_queries(inst)
    assert n * bundle.l_total == pytest.approx(sum(_raw_sums(inst, bundle)), rel=1e-12)


def test_bundle_reports_raw_and_normalized():
    inst = random_instance(9)
    bundle = _episode(inst)
    n = _n_queries(inst)
    for mean, raw in zip((bundle.l_match, bundle.l_kl, bundle.l_align),
                         _raw_sums(inst, bundle)):
        assert n * mean == pytest.approx(raw, rel=1e-12)


def _episode(inst, net=None, clf=None, episode=None, **kw):
    """episode_loss on the instance's net, classifier and a new episode
    of it, or on those given."""
    kw.setdefault("bg_features", inst.bg_features)
    return episode_loss(net or inst.net, clf or inst.clf, episode or inst.episode(),
                        inst.query_features, inst.lambdas, inst.tau, **kw)


def test_losses_nonnegative():
    bundle = _episode(random_instance(10), grads=False)
    assert bundle.l_match >= 0 and bundle.l_kl >= -1e-12 and bundle.l_align >= 0


@pytest.mark.parametrize("variant", [
    {"lambdas": (0.0, 0.0)},
    {},
    {"lambdas": (0.5, 2.0), "tau": 3.0},
], ids=["stage1", "stage2", "weighted"])
def test_value_only_path_equals_gradient_path(variant, monkeypatch):
    inst = random_instance(12, **variant)
    full = _episode(inst)

    def no_backward(*args):
        raise AssertionError("value-only path ran a backward pass")

    monkeypatch.setattr(inst.net, "backward_batch", no_backward)
    values = _episode(inst, grads=False)
    assert values.grads is None and full.grads is not None
    for name in ("l_match", "l_kl", "l_align", "l_total"):
        assert getattr(values, name) == getattr(full, name)
    assert np.array_equal(values.P, full.P)


@pytest.mark.parametrize("variant", ["stage1", "stage2", "all_background", "weighted"])
def test_stacked_value_path_equals_each_slice(variant):
    # 40 queries: the stacked gather of the true-class log-posteriors is
    # not C-ordered, and summed in place it would not equal the 2-D sums
    inst = random_instance(12, n_queries=40)
    if variant == "stage1":
        inst.lambdas = (0.0, 0.0)
    elif variant == "all_background":   # every query labelled with p0
        inst.query_labels = np.zeros_like(inst.query_labels)
    elif variant == "weighted":
        inst.lambdas, inst.tau = (0.5, 2.0), 3.0
    (net, clf), rows = probe_stack(inst)
    episode = inst.episode()

    def values(net, clf):
        return _episode(inst, net, clf, episode, grads=False)

    stacked = values(net, clf)
    assert stacked.P.shape == (5, 4, 6)
    for k, (net_k, clf_k) in enumerate(rows):
        single = values(net_k, clf_k)
        for name in ("l_match", "l_kl", "l_align", "l_total"):
            assert getattr(stacked, name).shape == (5,)
            assert getattr(stacked, name)[k] == getattr(single, name), name
        assert np.array_equal(stacked.P[k], single.P)


def test_gradient_path_rejects_stacked_parameters():
    inst = random_instance(3)
    (net, clf), _ = probe_stack(inst)
    for pair in ((net, clf), (inst.net, clf)):
        with pytest.raises(ValueError, match="unstacked"):
            _episode(inst, *pair)


def test_value_only_path_keeps_input_checks():
    # the classifier, the pool and the queries are checked at every
    # call, on both paths; tau by the alignment term
    inst = random_instance(13)
    d = inst.query_features.shape[1]
    episode = inst.episode()
    wide = LinearClassifier(np.zeros((inst.clf.n_classes + 1, inst.net.out_dim)),
                            np.zeros(inst.clf.n_classes + 1))
    for grads in (False, True):
        with pytest.raises(ValueError, match="classifier width"):
            _episode(inst, clf=wide, episode=episode, grads=grads)
        for pool in (None, np.empty((0, d)), np.zeros((4, d + 1))):
            with pytest.raises(ValueError, match="background pool"):
                _episode(inst, episode=episode, bg_features=pool, grads=grads)
        with pytest.raises(ValueError, match="the episode holds 4"):
            _episode(inst, episode=episode, bg_features=np.zeros((5, d)), grads=grads)
        with pytest.raises(ValueError, match="query features"):
            episode_loss(inst.net, inst.clf, episode, inst.query_features[1:], inst.lambdas,
                         inst.tau, bg_features=inst.bg_features, grads=grads)
    with pytest.raises(ValueError, match="tau"):
        alignment_loss(np.zeros((1, 1)), np.zeros(1, dtype=np.int64), tau=0.0, grads=False)


@pytest.mark.parametrize("weights,grad_terms", [
    (None, ["match", "kl", "align"]),
    ((1.0, 0.0, 0.0), ["match"]),
    ((0.0, 1.0, 0.0), ["kl"]),
    ((0.0, 0.0, 1.0), ["align"]),
], ids=["config", "match", "kl", "align"])
def test_zero_weight_terms_skip_gradient_algebra(weights, grad_terms, monkeypatch):
    # every term's value is computed, its gradient only where its weight
    # is nonzero, and one proto_logits call serves all three terms:
    # alignment reads its S, matching and KL the posteriors of its Z
    calls, args_of = {}, {}
    for name, term in (("match", "matching_loss"), ("kl", "kl_loss"),
                       ("align", "alignment_loss")):
        def spy(*args, _fn=getattr(losses, term), _name=name, **kw):
            calls[_name], args_of[_name] = kw["grads"], args
            return _fn(*args, **kw)
        monkeypatch.setattr(losses, term, spy)
    kernel, posteriors = [], []
    logits, post_of = losses.proto_logits, losses.proto_posteriors
    monkeypatch.setattr(losses, "proto_logits",
                        lambda *a: kernel.append(logits(*a)) or kernel[-1])
    monkeypatch.setattr(losses, "proto_posteriors",
                        lambda Z: posteriors.append((Z, post_of(Z))) or posteriors[-1][1])
    bundle = _episode(random_instance(15), grad_weights=weights)
    assert sorted(t for t, g in calls.items() if g) == sorted(grad_terms)
    assert set(calls) == {"match", "kl", "align"}
    assert len(kernel) == 1 and len(posteriors) == 1
    (S, Z), (Z_read, post) = kernel[0], posteriors[0]
    assert Z_read is Z and args_of["align"][0] is S
    assert args_of["match"][0] is post and args_of["kl"][2] is post
    assert bundle.l_kl > 0 and bundle.l_align > 0


@pytest.mark.parametrize("term", ["match", "kl", "align", "total"])
def test_gradients_match_finite_differences(term):
    worst = max(check_term(random_instance(seed), (term,))[term]
                for seed in range(5))
    assert worst <= 1e-4


def test_gradients_with_stop_teacher_and_deeper_nets():
    # depth 3 and 4 add hidden-to-hidden layers
    worst = max(max(check_term(random_instance(seed, depth=depth)).values())
                for seed in range(3) for depth in (2, 3, 4))
    assert worst <= 1e-4
    corrupted = check_term(random_instance(0, depth=3), corrupt=True)
    assert all(err > 1e-4 for err in corrupted.values())


def _float32_copy(inst):
    """(net, clf) with inst's parameters cast to float32."""
    net = EmbeddingNet([(W.astype(np.float32), b.astype(np.float32))
                        for W, b in inst.net.layers])
    return net, LinearClassifier(inst.clf.W.astype(np.float32), inst.clf.b.astype(np.float32))


@pytest.mark.parametrize("shape", ["d8", "a3"])
def test_float32_gradients_agree_with_float64(shape):
    # float32 nets, float64 loss head: every term's gradient within 1e-5
    # of the largest float64 entry (float32 eps is about 1.2e-7)
    kw = {} if shape == "d8" else dict(d=64, hidden=512, e=128, n_classes=5,
                                       shots=5, n_queries=100, n_bg=8)
    for seed in range(4 if shape == "d8" else 2):
        inst = random_instance(seed, **kw)
        net32, clf32 = _float32_copy(inst)
        episode32 = Episode(net32, clf32, inst.support, inst.query_labels,
                            len(inst.bg_features))
        for weights in (None, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
            g64 = _episode(inst, grad_weights=weights).grads
            g32 = _episode(inst, net32, clf32, episode32, grad_weights=weights).grads
            assert g64.dtype == np.float64 and g32.dtype == np.float32
            assert np.max(np.abs(g32 - g64)) <= 1e-5 * np.max(np.abs(g64))


def _segment_case(seed, case):
    """Instances whose stacked forward has uneven or one-row segments."""
    inst = random_instance(seed)
    rng = make_rng(1000 + seed)
    d = inst.query_features.shape[1]
    if case == "unequal_shots":
        inst.support = SupportSet({c: rng.normal(size=(n, d))
                                   for c, n in ((1, 1), (2, 3), (3, 5))})
    else:  # one_pool_row
        inst.bg_features = rng.normal(size=(1, d))
    return inst


@pytest.mark.parametrize("case", ["unequal_shots", "one_pool_row"])
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


def test_mapped_arrays_are_writable_mappings_of_their_own():
    arrays = [mapped_empty((9, 7), np.float32), mapped_empty((9, 4), np.float64),
              mapped_empty((3, 5), bool), mapped_empty((0, 4), np.float64)]
    assert [(a.shape, a.dtype) for a in arrays] == [
        ((9, 7), np.float32), ((9, 4), np.float64), ((3, 5), np.bool_), ((0, 4), np.float64)]
    for a in arrays:
        a[...] = 1
        assert a.all() and isinstance(_buffer_owner(a), mmap.mmap)
    assert len({id(_buffer_owner(a)) for a in arrays}) == len(arrays)


def _buffer_owner(a):
    """The object that owns the memory of an array built on a buffer."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


def test_a_refused_mapping_is_a_memory_error(monkeypatch):
    def refuse(*args, **kw):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")
    monkeypatch.setattr(losses.mmap, "mmap", refuse)
    with pytest.raises(MemoryError):
        mapped_empty((4, 3), np.float32)
