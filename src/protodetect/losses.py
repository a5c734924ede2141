"""Training losses with analytic gradients.

Three terms over the embedded queries Q of an episode and its
prototypes P (one row per bank entry):

* matching: NLL of the true class under the softmax over negative
  squared distances (energies),
* kl: divergence from the prototype posterior to the linear
  classifier's posterior (prototype side is the first argument),
* alignment: NLL over temperature-scaled dot-product similarities
  to the prototypes.

Matching and KL read the same prototype posteriors, which
`proto_posteriors` computes once per episode: one distance matrix, one
log-softmax and one exp. Each term returns its value and the
hand-derived gradients of its scores: the energies -|q - p_k|^2
(matching, KL), the classifier logits (KL), the similarities
<q, p>/tau (alignment). With grads=False it computes the same value by
the same arithmetic and returns None in place of each gradient.

`episode_loss` closes the loop: one forward pass embeds support rows,
background pool and queries together, and prototypes are segment means
of that output. It computes every term's value, for the log, takes the
score gradients of the terms whose weight is nonzero, weights and sums
them, and applies one chain rule into the queries, the prototypes and
the classifier. One backward pass carries the query and prototype
gradients (each support or pool row receiving dP / n of its segment)
into one vector in the parameter layout of `embedder.bind_params`. An
episode has one shape, the training one: a support set, a non-empty
background pool whose mean embedding is p0, and queries; every loss is
the per-query mean of its term's sum.

The net computes in the dtype of its parameters (float32 in training,
float64 in the gradient audit); its output is cast to float64, so
prototypes, distances, log-sum-exp and loss sums are float64 whatever
that dtype. The gradient vector has the parameters' dtype.

The value path (grads=False) also takes parameters with a leading
probe axis (`embedder.model_views` of a stack of vectors): each loss
value is then one float per probe, bit-equal to the unstacked call.
"""

from dataclasses import dataclass

import numpy as np

from .embedder import param_vector
from .numeric import log_softmax, sq_distances
from .prototypes import BACKGROUND_ID, PrototypeBank, segment_means


@dataclass
class LossConfig:
    lambda_kl: float = 0.0
    lambda_align: float = 0.0
    tau: float = 10.0
    stage: int = 1

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.stage not in (1, 2):
            raise ValueError("stage must be 1 or 2")
        if self.lambda_kl < 0 or self.lambda_align < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.stage == 1:
            self.lambda_kl = self.lambda_align = 0.0

    @classmethod
    def for_stage(cls, stage, lambda_kl=1.0, lambda_align=1.0, tau=10.0):
        if stage == 1:
            return cls(stage=1, tau=tau)
        return cls(stage=2, lambda_kl=lambda_kl, lambda_align=lambda_align, tau=tau)


@dataclass
class LossBundle:
    l_match: float
    l_kl: float
    l_align: float
    l_total: float
    n_queries: int
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


def proto_posteriors(Q, P):
    """(log P(prototype k | q), P(prototype k | q)) for each query row:
    the log-softmax of -|q - p_k|^2 and its exp."""
    logp = log_softmax(-sq_distances(Q, P), axis=-1)
    return logp, np.exp(logp)


def matching_loss(Q, P, y_idx, post, grads=True):
    """NLL of each query's true prototype (row y_idx of P) under the
    posteriors post = proto_posteriors(Q, P); (value, G), G the gradient
    with respect to the energies -|q - p_k|^2."""
    logp, p = post
    rows = np.arange(Q.shape[-2])
    value = -_query_sum(logp[..., rows, y_idx])
    if not grads:
        return value, None
    G = p.copy()
    G[rows, y_idx] -= 1.0
    return value, G


def kl_loss(Q, P, clf, post, grads=True):
    """Sum of KL(P_proto || P_clf), P_proto given as post (a
    `proto_posteriors` pair); (value, dZ, dU), the gradients with
    respect to the energies -|q - p_k|^2 and the classifier logits.

    Probabilities never appear inside logs directly; everything is
    phrased through log-sum-exp, so classifier underflow is harmless.
    """
    if clf.n_classes != P.shape[-2]:
        raise ValueError("classifier width must equal bank size")
    logp_proto, p_proto = post
    logp_clf = log_softmax(clf.logits_batch(Q), axis=-1)
    delta_log = logp_proto - logp_clf
    row_kl = np.sum(p_proto * delta_log, axis=-1)
    value = _query_sum(row_kl)
    if not grads:
        return value, None, None
    return value, p_proto * (delta_log - row_kl[:, None]), np.exp(logp_clf) - p_proto


def alignment_loss(Q, P, y_idx, tau, grads=True):
    """InfoNCE-style NLL over similarities s = <q, p>/tau of each
    query's true prototype (row y_idx of P); (value, G_a), G_a the
    gradient with respect to the similarities."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    logp = log_softmax((Q @ P.swapaxes(-1, -2)) / tau, axis=-1)
    rows = np.arange(Q.shape[-2])
    value = -_query_sum(logp[..., rows, y_idx])
    if not grads:
        return value, None
    G = np.exp(logp)
    G[rows, y_idx] -= 1.0
    return value, G


def _weighted_sum(shape, *terms):
    """Zeros of `shape` plus w * a for each (w, a) whose a is not None."""
    return sum((w * a for w, a in terms if a is not None), np.zeros(shape))


def episode_loss(net, clf, support, query_features, query_labels, cfg,
                 bg_features, grad_weights=None, grads=True):
    """Full training objective for one episode, with parameter gradients.

    One forward pass embeds the stacked rows [support; background pool;
    queries]. Class prototypes and p0 are the means of their segments of
    that output (`segment_means`); bg_features, the pool, must hold at
    least one row. The prototype gradient dP goes back to the rows it
    was averaged from, row j of class k receiving dP[k] / n_k, and one
    backward pass over every row yields all net gradients.

    grad_weights optionally overrides the (match, kl, align) weights
    used for the returned gradients only, (1, lambda_kl, lambda_align)
    by default; the gradient-check harness uses this to isolate a
    single term. A term whose weight is 0 adds no gradient algebra.

    bundle.grads is one vector in the parameter layout of
    `embedder.bind_params` (net layers, then classifier), in the dtype
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

    w_m, w_k, w_a = grad_weights if grad_weights is not None \
        else (1.0, cfg.lambda_kl, cfg.lambda_align)
    post = proto_posteriors(Q, P)
    m_val, G = matching_loss(Q, P, y_idx, post, grads=grads and w_m != 0)
    k_val, dZ, dU = kl_loss(Q, P, clf, post, grads=grads and w_k != 0)
    a_val, G_a = alignment_loss(Q, P, y_idx, cfg.tau, grads=grads and w_a != 0)

    n = Q.shape[-2]
    scale = 1.0 / n
    lm, lk, la = m_val * scale, k_val * scale, a_val * scale
    bundle = LossBundle(l_match=lm, l_kl=lk, l_align=la,
                        l_total=lm + cfg.lambda_kl * lk + cfg.lambda_align * la,
                        n_queries=n, bank=bank)
    if not grads:
        return bundle

    # one chain rule: Gd is the gradient of the energies -|q - p|^2, M
    # that of the dot products <q, p>, dU that of the classifier logits
    Gd = _weighted_sum(post[1].shape, (w_m, G), (w_k, dZ))
    M = _weighted_sum(Gd.shape, (2.0, Gd), (w_a / cfg.tau, G_a))
    dQ = M @ P - 2.0 * Q * Gd.sum(axis=1, keepdims=True)
    dP = M.T @ Q - 2.0 * Gd.sum(axis=0)[:, None] * P
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
