"""Training losses with analytic gradients.

Three terms over the embedded queries Q of an episode and its
prototypes P (one row per bank entry):

* matching: NLL of the true class under the softmax over negative
  squared distances (energies) -|q - p_k|^2,
* kl: divergence from the prototype posterior to the linear
  classifier's posterior (prototype side is the first argument),
* alignment: NLL over temperature-scaled dot-product similarities
  to the prototypes.

All three read one inner-product matrix S = Q P^T, which
`numeric.proto_logits` computes once per episode with the prototype
logits Z = 2 S - |p|^2. Z exceeds the energies only by |q|^2, which
is constant along each row, so its softmax is the energy softmax.
Matching and KL read the posteriors that `proto_posteriors` takes
from Z (one log-softmax and one exp); alignment reads S / tau.
Each term returns its value and the hand-derived gradients of its
scores: the logits Z (matching, KL), the classifier logits (KL), the
similarities S / tau (alignment). With grads=False it computes the
same value by the same arithmetic and returns None in place of each
gradient.

`episode_loss` closes the loop: one forward pass embeds support rows,
background pool and queries together, and prototypes are segment means
of that output. It computes every term's value, for the log, takes the
score gradients of the terms whose weight is nonzero, weights and sums
them, and applies one chain rule into the queries, the prototypes and
the classifier. One backward pass carries the query and prototype
gradients (each support or pool row receiving dP / n of its segment)
into one vector in the parameter layout of `embedder.layout`. An
episode has one shape, the training one: a support set, a non-empty
background pool whose mean embedding is p0, and queries; every loss is
the per-query mean of its term's sum. The loss weights
(lambda_kl, lambda_align) and tau are plain arguments, the train
config's values: the trainer, which owns the two-stage schedule,
passes weights (0, 0) in stage 1, and the gradient audit passes its
instance's.

The net computes in the dtype of its parameters (float32 in training,
float64 in the gradient audit); its output is cast to float64, so
prototypes, logits, log-sum-exp and loss sums are float64 whatever
that dtype. The gradient vector has the parameters' dtype.

The value path (grads=False) also takes parameters with a leading
probe axis (`embedder.model_views` of a stack of vectors): each loss
value is then one float per probe, bit-equal to the unstacked call.
"""

from dataclasses import dataclass

import numpy as np

from .embedder import param_vector
from .numeric import log_softmax, proto_logits
from .prototypes import BACKGROUND_ID, PrototypeBank, segment_means


@dataclass
class LossBundle:
    l_match: float
    l_kl: float
    l_align: float
    l_total: float
    bank: PrototypeBank = None   # the episode's prototypes, background included
    grads: np.ndarray = None     # parameter-vector gradient; None on the value-only path


def _label_indices(labels, bank):
    """Bank row of each label (bank ids ascend); raises on the first
    label with no prototype."""
    ids = np.asarray(bank.ids)
    idx = np.minimum(np.searchsorted(ids, labels), len(ids) - 1)
    missing = ids[idx] != labels
    if missing.any():
        raise ValueError(f"label {int(labels[missing][0])} has no prototype in bank")
    return idx


def _query_sum(a):
    """Sum over the last (query) axis: a float, or one per probe."""
    # a stacked gather is not C-ordered; numpy would sum it in another order
    s = np.sum(np.ascontiguousarray(a), axis=-1)
    return float(s) if s.ndim == 0 else s


def proto_posteriors(Z):
    """(log P(prototype k | q), P(prototype k | q)) for each query row:
    the log-softmax of the prototype logits Z of `proto_logits`, which
    is that of -|q - p_k|^2, and its exp."""
    logp = log_softmax(Z, axis=-1)
    return logp, np.exp(logp)


def matching_loss(post, y_idx, grads=True):
    """NLL of each query's true prototype (column y_idx) under the
    posteriors post = proto_posteriors(Z); (value, G), G the gradient
    with respect to the logits Z."""
    logp, p = post
    rows = np.arange(logp.shape[-2])
    value = -_query_sum(logp[..., rows, y_idx])
    if not grads:
        return value, None
    G = p.copy()
    G[rows, y_idx] -= 1.0
    return value, G


def kl_loss(Q, clf, post, grads=True):
    """Sum of KL(P_proto || P_clf), P_proto given as post (a
    `proto_posteriors` pair); (value, dZ, dU), the gradients with
    respect to the prototype logits Z and the classifier logits.

    Probabilities never appear inside logs directly; everything is
    phrased through log-sum-exp, so classifier underflow is harmless.
    """
    logp_proto, p_proto = post
    if clf.n_classes != p_proto.shape[-1]:
        raise ValueError("classifier width must equal bank size")
    logp_clf = log_softmax(clf.logits_batch(Q), axis=-1)
    delta_log = logp_proto - logp_clf
    row_kl = np.sum(p_proto * delta_log, axis=-1)
    value = _query_sum(row_kl)
    if not grads:
        return value, None, None
    return value, p_proto * (delta_log - row_kl[:, None]), np.exp(logp_clf) - p_proto


def alignment_loss(S, y_idx, tau, grads=True):
    """InfoNCE-style NLL over similarities S / tau, S the inner products
    <q, p> of `proto_logits`, of each query's true prototype (column
    y_idx); (value, G_a), G_a the gradient with respect to the
    similarities."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    logp = log_softmax(S / tau, axis=-1)
    rows = np.arange(S.shape[-2])
    value = -_query_sum(logp[..., rows, y_idx])
    if not grads:
        return value, None
    G = np.exp(logp)
    G[rows, y_idx] -= 1.0
    return value, G


def _weighted_sum(shape, *terms):
    """Zeros of `shape` plus w * a for each (w, a) whose a is not None."""
    return sum((w * a for w, a in terms if a is not None), np.zeros(shape))


def episode_loss(net, clf, support, query_features, query_labels, lambdas, tau,
                 bg_features, grad_weights=None, grads=True):
    """Full training objective for one episode, with parameter gradients.

    One forward pass embeds the stacked rows [support; background pool;
    queries]. Class prototypes and p0 are the means of their segments of
    that output (`segment_means`); bg_features, the pool, must hold at
    least one row. The prototype gradient dP goes back to the rows it
    was averaged from, row j of class k receiving dP[k] / n_k, and one
    backward pass over every row yields all net gradients.

    lambdas = (lambda_kl, lambda_align) weigh the KL and alignment terms
    in l_total (the match term has weight 1); tau is the alignment
    temperature.

    grad_weights optionally overrides the (match, kl, align) weights
    used for the returned gradients only, (1, lambda_kl, lambda_align)
    by default; the gradient-check harness uses this to isolate a
    single term. A term whose weight is 0 adds no gradient algebra.

    bundle.grads is one vector in the parameter layout of
    `embedder.layout` (net layers, then classifier), in the dtype
    of the net's parameters. grads=False returns the loss values only
    (bundle.grads is None): the forward pass, the loss values and every
    input check are the same as with gradients, but no backward pass
    runs; only it takes stacked parameters.
    """
    if grads and (net.layers[0][0].ndim, clf.W.ndim) != (2, 2):
        raise ValueError("gradients need unstacked parameters")
    bg = np.asarray(bg_features, dtype=np.float64)
    if bg.ndim != 2 or not len(bg):
        raise ValueError("episode needs a non-empty background pool")
    X_sup, counts = support.rows()
    seg_ids = list(support.class_ids) + [BACKGROUND_ID]
    counts.append(len(bg))
    n_proto_rows = sum(counts)
    E, cache = net.forward_batch(np.concatenate(
        [X_sup, bg, np.asarray(query_features, dtype=np.float64)]))
    E = np.asarray(E, dtype=np.float64)     # the loss head runs in float64

    bank = PrototypeBank(zip(seg_ids, segment_means(E, counts)))
    Q, P = E[..., n_proto_rows:, :], bank.P
    labels = np.asarray(query_labels, dtype=np.int64)
    if Q.shape[-2] == 0:
        raise ValueError("empty query batch")
    if labels.shape != (Q.shape[-2],):
        raise ValueError("labels do not match queries")
    y_idx = _label_indices(labels, bank)

    lambda_kl, lambda_align = lambdas
    w_m, w_k, w_a = grad_weights if grad_weights is not None \
        else (1.0, lambda_kl, lambda_align)
    S, Z = proto_logits(Q, P)
    post = proto_posteriors(Z)
    m_val, G = matching_loss(post, y_idx, grads=grads and w_m != 0)
    k_val, dZ, dU = kl_loss(Q, clf, post, grads=grads and w_k != 0)
    a_val, G_a = alignment_loss(S, y_idx, tau, grads=grads and w_a != 0)

    scale = 1.0 / Q.shape[-2]
    lm, lk, la = m_val * scale, k_val * scale, a_val * scale
    bundle = LossBundle(l_match=lm, l_kl=lk, l_align=la,
                        l_total=lm + lambda_kl * lk + lambda_align * la, bank=bank)
    if not grads:
        return bundle

    # one chain rule: Gz is the gradient of the logits Z = 2 S - |p|^2,
    # M that of the inner products S = Q P^T, dU that of the classifier
    # logits. Z holds no |q|^2 term, so dQ is M P alone
    Gz = _weighted_sum(Z.shape, (w_m, G), (w_k, dZ))
    M = _weighted_sum(Gz.shape, (2.0, Gz), (w_a / tau, G_a))
    dQ = M @ P
    dP = M.T @ Q - 2.0 * Gz.sum(axis=0)[:, None] * P
    if dU is not None:
        dQ += w_k * (dU @ clf.W)
    dQ *= scale
    dP *= scale

    # each support / pool row receives its prototype's gradient over the
    # segment size; one backward pass over every row fills the net's views
    seg_rows = np.repeat([bank.index_of(c) for c in seg_ids], counts)
    seg_size = np.repeat(counts, counts).astype(np.float64)
    dE = np.concatenate([dP[seg_rows] / seg_size[:, None], dQ])
    bundle.grads, (*layer_grads, (dWc, dbc)) = param_vector(net, clf)
    net.backward_batch(cache, dE, layer_grads)
    dWc[...], dbc[...] = (0.0, 0.0) if dU is None else (
        (w_k * (dU.T @ Q)) * scale, (w_k * dU.sum(axis=0)) * scale)
    return bundle
