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
Matching and KL read the posteriors that `prototypes.proto_posteriors`
takes from Z (one log-softmax and one exp); alignment reads S / tau.
Each term returns its value and the hand-derived gradients of its
scores: the logits Z (matching, KL), the classifier logits (KL), the
similarities S / tau (alignment). With grads=False it computes the
same value by the same arithmetic and returns None in place of each
gradient.

`episode_loss` closes the loop. An `Episode`, built once per run from
the support set and the queries' labels, holds what every episode of
the run shares (the support rows, the label and segment maps, the
prototypes' id order) and the buffers of the gradient path; each call
brings the step's query features and background pool. One forward
pass embeds support rows, queries and background pool together, each
row once, and prototypes are segment means of that output. The pool
rows serve twice: their mean embedding is p0, and they are
background-labelled queries after the given ones. It computes every
term's value, for the log, takes the score gradients of the terms
whose weight is nonzero, weights and sums them, and applies one chain
rule into the queries, the prototypes and the classifier. One backward
pass carries the query and prototype gradients (each support or pool
row receiving dP / n of its segment, and a pool row its query gradient
too) into the episode's one vector in the parameter layout of
`embedder.layout`. On the gradient path the products write into the
episode's buffers; the arrays a call still allocates are the loss
head's, none as large as the net's activations. An episode has one
shape, the training one: a support set, class-labelled queries and a
non-empty background pool; every loss is the per-query mean of its
term's sum, over the given queries and the pool rows. The loss weights
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

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .embedder import Workspace, param_vector
from .numeric import log_softmax, proto_logits
from .prototypes import BACKGROUND_ID, proto_posteriors, segment_means


@dataclass
class LossBundle:
    l_match: float
    l_kl: float
    l_align: float
    l_total: float
    P: np.ndarray = None        # the prototypes, one row per id of episode.ids
    grads: np.ndarray = None    # parameter-vector gradient; None on the value-only path


def _query_sum(a):
    """Sum over the last (query) axis: a float, or one per probe."""
    # a stacked gather is not C-ordered; numpy would sum it in another order
    s = np.sum(np.ascontiguousarray(a), axis=-1)
    return float(s) if s.ndim == 0 else s


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
    logp_clf = log_softmax(clf.logits_batch(Q))
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
    logp = log_softmax(S / tau)
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


def mapped_empty(shape, dtype):
    """An uninitialised array in a private anonymous memory mapping of
    its own, unmapped when the last view of it goes; MemoryError if the
    host refuses the mapping.

    For run-long buffers that should not shape the malloc heap the rest
    of the process allocates from: `Episode` keeps its input rows and
    float64 row buffers here. Whether glibc trims the heap and later
    commands of the same process fault it in again depends on what a
    training run left there (the CHANGES.md entry that adds this function
    has the measurements).
    """
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    try:
        buf = mmap.mmap(-1, max(count * dtype.itemsize, 1), flags=mmap.MAP_PRIVATE)
    except OSError as e:
        raise MemoryError(f"cannot map {count * dtype.itemsize} bytes: {e}") from None
    return np.frombuffer(buf, dtype, count=count).reshape(shape)


class Episode:
    """What every episode of a run shares, built once, and the buffers of
    its gradient path.

    An episode's rows are [support; queries; pool]. The support rows
    and the queries' labels are fixed for a run, so what depends on them
    alone is built here, once per run (and once per audit instance):
    the support rows, written once into the input rows in the net's
    dtype; the prototypes' id order `ids` (the support's classes and
    BACKGROUND_ID, ascending); the prototype row of every query label
    and of every pool row; and the map from each support row to its
    prototype's row and segment size. Each step brings its queries'
    features and a pool of 1..max_pool rows, which `episode_loss` writes
    into the input rows after the support.

    The buffers are sized for the largest pool and sliced per step: the
    input rows, the net's `Workspace`, the float64 embeddings, their
    gradient and one scratch array of that shape, and the gradient
    vector with its views in the layout of (net, clf)
    (`embedder.param_vector`). So that vector is the same array at
    every call: `episode_loss` overwrites it. The input rows and the
    float64 buffers are `mapped_empty` arrays, outside the malloc heap.
    On the value path, stacked parameters allocate their own
    activations.
    """

    def __init__(self, net, clf, support, query_labels, max_pool):
        labels = np.asarray(query_labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError("query labels must be a vector")
        if max_pool < 1:
            raise ValueError("episode needs a non-empty background pool")
        X_sup, self.counts = support.rows()
        self.n_sup, self.n_queries, self.max_pool = len(X_sup), len(labels), max_pool
        self.ids = sorted([BACKGROUND_ID, *support.class_ids])
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate class id in bank")
        # the forward pass's segments are the classes in class_ids order,
        # then the pool: order[k] is the segment of ids[k]
        segment_ids = [*support.class_ids, BACKGROUND_ID]
        self.order = [segment_ids.index(i) for i in self.ids]
        self.bg_row = self.ids.index(BACKGROUND_ID)
        # ids ascend, so a label's row is its sorted position; the pool
        # rows after the queries are labelled background
        ids = np.asarray(self.ids)
        label_rows = np.minimum(np.searchsorted(ids, labels), len(ids) - 1)
        missing = ids[label_rows] != labels
        if missing.any():
            raise ValueError(f"label {int(labels[missing][0])} has no prototype in bank")
        self.y_idx = np.concatenate([label_rows, np.full(max_pool, self.bg_row)])
        self.sup_rows = np.repeat([self.ids.index(c) for c in support.class_ids],
                                  self.counts)
        self.seg_size = np.repeat(self.counts, self.counts).astype(np.float64)[:, None]

        rows = self.n_sup + self.n_queries + max_pool
        self.X = mapped_empty((rows, support.feature_dim), net.dtype)
        self.X[:self.n_sup] = X_sup
        self.work = Workspace(net, rows)
        self.E, self.dE, self.scratch = (mapped_empty((rows, net.out_dim), np.float64)
                                         for _ in range(3))
        self.grads, self.grad_views = param_vector(net, clf)

    def rows(self, query_features, bg_features):
        """The input rows [support; queries; pool] of one episode: the
        queries and the pool written into the buffer, in its dtype."""
        X_q, bg = np.asarray(query_features), np.asarray(bg_features)
        n_q, d = self.n_queries, self.X.shape[1]
        if X_q.shape != (n_q, d):
            raise ValueError(f"expected ({n_q}, {d}) query features, got {X_q.shape}")
        if bg.ndim != 2 or not len(bg) or bg.shape[1] != d:
            raise ValueError("episode needs a non-empty background pool")
        if len(bg) > self.max_pool:
            raise ValueError(f"pool of {len(bg)} rows; the episode holds {self.max_pool}")
        end = self.n_sup + n_q
        self.X[self.n_sup:end] = X_q
        self.X[end:end + len(bg)] = bg
        return self.X[:end + len(bg)]


def episode_loss(net, clf, episode, query_features, lambdas, tau, bg_features,
                 grad_weights=None, grads=True):
    """Full training objective for one episode, with parameter gradients.

    episode is the run's `Episode`: its support set and the queries'
    labels. One forward pass embeds the rows [support; queries;
    background pool], each row once. Class prototypes are the means of
    their support segments of that output and p0 the mean of the pool
    segment; bg_features, the pool, must hold at least one row and at
    most the episode's max_pool. The loss head's queries Q are every
    row after the support: the given queries with their labels, then
    the pool rows labelled BACKGROUND_ID. The prototype gradient dP
    goes back to the rows it was averaged from, row j of class k
    receiving dP[k] / n_k; a pool row's gradient is its p0 share plus
    its query gradient, summed in one row. One backward pass over every
    row yields all net gradients.

    lambdas = (lambda_kl, lambda_align) weigh the KL and alignment terms
    in l_total (the match term has weight 1); tau is the alignment
    temperature.

    grad_weights optionally overrides the (match, kl, align) weights
    used for the returned gradients only, (1, lambda_kl, lambda_align)
    by default; the gradient-check harness uses this to isolate a
    single term. A term whose weight is 0 adds no gradient algebra.

    bundle.P holds the prototypes, one row per id of episode.ids.
    bundle.grads is the episode's gradient vector, in the parameter
    layout of `embedder.layout` (net layers, then classifier) and the
    dtype of the net's parameters; the next call overwrites it. The
    net must be the one the episode was built for, or one of its dtype
    and shapes. grads=False returns the loss values only (bundle.grads
    is None): the forward pass, the loss values and every input check
    are the same as with gradients, but no backward pass runs; only it
    takes stacked parameters.
    """
    unstacked = (net.layers[0][0].ndim, clf.W.ndim) == (2, 2)
    if grads and not unstacked:
        raise ValueError("gradients need unstacked parameters")
    ep = episode
    X = ep.rows(query_features, bg_features)
    N = len(X)
    n_sup, n_bg = ep.n_sup, N - ep.n_sup - ep.n_queries
    E_net, cache = net.forward_batch(X, ep.work if unstacked else None)
    # the loss head runs in float64
    if unstacked:
        E = ep.E[:N]
        E[...] = E_net
    else:
        E = np.asarray(E_net, dtype=np.float64)

    # the prototypes in id order: class means of the support segments,
    # p0 the mean of the pool segment
    means = [*segment_means(E[..., :n_sup, :], ep.counts), E[..., -n_bg:, :].mean(axis=-2)]
    P = np.stack([means[k] for k in ep.order], axis=-2)
    Q = E[..., n_sup:, :]
    y_idx = ep.y_idx[:N - n_sup]

    lambda_kl, lambda_align = lambdas
    w_m, w_k, w_a = grad_weights if grad_weights is not None \
        else (1.0, lambda_kl, lambda_align)
    S, Z = proto_logits(Q, P)
    post = proto_posteriors(Z)
    m_val, G = matching_loss(post, y_idx, grads=grads and w_m != 0)
    # the classifier reads the net's own output, Q in the net's dtype
    k_val, dZ, dU = kl_loss(E_net[..., n_sup:, :], clf, post, grads=grads and w_k != 0)
    a_val, G_a = alignment_loss(S, y_idx, tau, grads=grads and w_a != 0)

    scale = 1.0 / Q.shape[-2]
    lm, lk, la = m_val * scale, k_val * scale, a_val * scale
    bundle = LossBundle(l_match=lm, l_kl=lk, l_align=la,
                        l_total=lm + lambda_kl * lk + lambda_align * la, P=P)
    if not grads:
        return bundle

    # one chain rule: Gz is the gradient of the logits Z = 2 S - |p|^2,
    # M that of the inner products S = Q P^T, dU that of the classifier
    # logits. Z holds no |q|^2 term, so dQ is M P alone
    Gz = _weighted_sum(Z.shape, (w_m, G), (w_k, dZ))
    M = _weighted_sum(Gz.shape, (2.0, Gz), (w_a / tau, G_a))
    dE = ep.dE[:N]
    dQ = np.matmul(M, P, out=dE[n_sup:])
    dP = M.T @ Q - 2.0 * Gz.sum(axis=0)[:, None] * P
    if dU is not None:
        dQ_clf = np.matmul(dU, clf.W, out=ep.scratch[:len(dU)])
        dQ_clf *= w_k
        dQ += dQ_clf
    dQ *= scale
    dP *= scale

    # each support row receives its prototype's gradient over the segment
    # size, each pool row p0's over the pool size on top of its query
    # gradient; one backward pass over every row fills the net's views
    np.divide(dP[ep.sup_rows], ep.seg_size, out=dE[:n_sup])
    dE[-n_bg:] += dP[ep.bg_row] / n_bg
    *layer_grads, (dWc, dbc) = ep.grad_views
    net.backward_batch(cache, dE, layer_grads, ep.work)
    dWc[...], dbc[...] = (0.0, 0.0) if dU is None else (
        (w_k * (dU.T @ Q)) * scale, (w_k * dU.sum(axis=0)) * scale)
    bundle.grads = ep.grads
    return bundle
