"""Training losses with analytic gradients.

Three terms over a query batch and a prototype bank:

* matching: NLL of the true class under the softmax over negative
  squared distances (energies),
* kl: divergence from the prototype posterior to the linear
  classifier's posterior (prototype side is the first argument),
* alignment: NLL over temperature-scaled dot-product similarities
  to the prototypes.

Gradients are derived by hand and flow into the query embeddings,
the prototypes, and the classifier. `episode_loss` closes the loop:
one forward pass embeds support rows, background pool and queries
together, prototypes are segment means of that output, and one
backward pass carries the query gradients and the prototype
gradients (each support or pool row receiving dP / n of its segment)
into the net. Its gradient is one vector in the parameter layout of
`embedder.flatten`.

Every loss takes `grads`: with grads=False it computes the same value
by the same arithmetic and skips the gradient algebra, returning None
in place of each gradient. Training and the gradient audit's probes
share this one implementation.
"""

from dataclasses import dataclass

import numpy as np

from .embedder import flatten
from .numeric import log_softmax, sq_distances
from .prototypes import BACKGROUND_ID, PrototypeBank, segment_means


@dataclass
class LossConfig:
    lambda_kl: float = 0.0
    lambda_align: float = 0.0
    tau: float = 10.0
    stage: int = 1
    kl_stop_teacher: bool = False       # freeze the prototype branch of the KL
    align_include_background: bool = True
    normalize: bool = True              # report/optimize per-query means

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.stage not in (1, 2):
            raise ValueError("stage must be 1 or 2")
        if self.lambda_kl < 0 or self.lambda_align < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.stage == 1:
            self.lambda_kl = 0.0
            self.lambda_align = 0.0

    @classmethod
    def for_stage(cls, stage, lambda_kl=1.0, lambda_align=1.0, **kw):
        if stage == 1:
            return cls(stage=1, **kw)
        return cls(stage=2, lambda_kl=lambda_kl, lambda_align=lambda_align, **kw)


class QueryBatch:
    """Embedded queries (N, e) with integer class labels (0 = background)."""

    def __init__(self, Q, labels):
        self.Q = np.asarray(Q, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.Q.ndim != 2 or self.Q.shape[0] == 0:
            raise ValueError("empty query batch")
        if self.labels.shape != (self.Q.shape[0],):
            raise ValueError("labels do not match queries")

    def __len__(self):
        return self.Q.shape[0]


@dataclass
class LossBundle:
    l_match: float
    l_kl: float
    l_align: float
    l_total: float
    raw: dict              # un-normalized sums of the same quantities
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


def proto_log_posteriors(Q, P):
    """log P(prototype k | q) for each query row: log-softmax of -|q - p_k|^2."""
    return log_softmax(-sq_distances(Q, P), axis=1)


def _matching_core(Q, y_idx, P, grads=True):
    logp = proto_log_posteriors(Q, P)
    n = Q.shape[0]
    value = -float(np.sum(logp[np.arange(n), y_idx]))
    if not grads:
        return value, None, None
    G = np.exp(logp)
    G[np.arange(n), y_idx] -= 1.0
    # dZ/dq = -2(q - p_k), dZ/dp_k = 2(q - p_k)
    dQ = -2.0 * Q * G.sum(axis=1, keepdims=True) + 2.0 * (G @ P)
    dP = 2.0 * (G.T @ Q - G.sum(axis=0)[:, None] * P)
    return value, dQ, dP


def _kl_core(Q, P, clf, stop_teacher, grads=True, teacher=None):
    if teacher is not None:
        logp_proto, stop_teacher = teacher, True
    else:
        logp_proto = proto_log_posteriors(Q, P)
    p_proto = np.exp(logp_proto)
    U = clf.logits_batch(Q)
    logp_clf = log_softmax(U, axis=1)
    delta_log = logp_proto - logp_clf
    row_kl = np.sum(p_proto * delta_log, axis=1)
    value = float(np.sum(row_kl))
    if not grads:
        return value, None, None, None, None

    dU = np.exp(logp_clf) - p_proto
    dWc = dU.T @ Q
    dbc = dU.sum(axis=0)
    dQ = dU @ clf.W
    dP = np.zeros_like(P)
    if not stop_teacher:
        dZ = p_proto * (delta_log - row_kl[:, None])
        dQ = dQ - 2.0 * Q * dZ.sum(axis=1, keepdims=True) + 2.0 * (dZ @ P)
        dP = 2.0 * (dZ.T @ Q - dZ.sum(axis=0)[:, None] * P)
    return value, dQ, dP, dWc, dbc


def _align_core(Q, y_idx, P, tau, grads=True):
    S = (Q @ P.T) / tau
    logp = log_softmax(S, axis=1)
    n = Q.shape[0]
    value = -float(np.sum(logp[np.arange(n), y_idx]))
    if not grads:
        return value, None, None
    G = np.exp(logp)
    G[np.arange(n), y_idx] -= 1.0
    dQ = (G @ P) / tau
    dP = (G.T @ Q) / tau
    return value, dQ, dP


# --- public per-batch operations (embeddings already computed) ---------------

def matching_loss(batch, bank, grads=True):
    """NLL of the true class under energy posteriors; grads wrt Q and P."""
    y_idx = _label_indices(batch.labels, bank)
    return _matching_core(batch.Q, y_idx, bank.P, grads)


def kl_loss(batch, bank, clf, stop_teacher=False, grads=True, teacher=None):
    """Sum of KL(P_proto || P_clf); grads wrt Q, P, and classifier params.

    Probabilities never appear inside logs directly; everything is
    phrased through log-sum-exp, so classifier underflow is harmless.
    stop_teacher drops the gradient through P_proto. `teacher`, when
    given, is a constant (queries x bank) array of log P_proto used in
    place of the one computed from (Q, P): the value is then the
    function whose gradient stop_teacher trains, which is what the
    gradient audit differences.
    """
    if clf.n_classes != len(bank):
        raise ValueError("classifier width must equal bank size")
    return _kl_core(batch.Q, bank.P, clf, stop_teacher, grads, teacher)


def alignment_loss(batch, bank, tau, include_background=True, grads=True):
    """InfoNCE-style NLL over similarities s = <q, p>/tau.

    With include_background=False the softmax runs over class
    prototypes only and background-labeled queries are skipped.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if include_background or not bank.has(BACKGROUND_ID):
        y_idx = _label_indices(batch.labels, bank)
        return _align_core(batch.Q, y_idx, bank.P, tau, grads)
    keep_cols = [i for i, c in enumerate(bank.ids) if c != BACKGROUND_ID]
    sub_ids = [bank.ids[i] for i in keep_cols]
    rows = [i for i, y in enumerate(batch.labels) if int(y) != BACKGROUND_ID]
    dQ = np.zeros_like(batch.Q) if grads else None
    dP = np.zeros_like(bank.P) if grads else None
    if not rows:
        return 0.0, dQ, dP
    Qs = batch.Q[rows]
    y_idx = np.asarray([sub_ids.index(int(batch.labels[i])) for i in rows])
    value, dQs, dPs = _align_core(Qs, y_idx, bank.P[keep_cols], tau, grads)
    if grads:
        dQ[rows] = dQs
        dP[keep_cols] = dPs
    return value, dQ, dP


def _bundle(m, k, a, n, cfg, bank):
    scale = 1.0 / n if cfg.normalize else 1.0
    lm, lk, la = m * scale, k * scale, a * scale
    return LossBundle(
        l_match=lm, l_kl=lk, l_align=la,
        l_total=lm + cfg.lambda_kl * lk + cfg.lambda_align * la,
        raw={"l_match": m, "l_kl": k, "l_align": a,
             "l_total": m + cfg.lambda_kl * k + cfg.lambda_align * a},
        n_queries=n, bank=bank,
    )


def episode_loss(net, clf, support, query_features, query_labels, cfg,
                 bg_features=None, frozen_p0=None, grad_weights=None,
                 grads=True, kl_teacher=None):
    """Full training objective for one episode, with parameter gradients.

    One forward pass embeds the stacked rows [support; background pool;
    queries]. Class prototypes, and p0 when bg_features is given, are
    the means of their segments of that output (`segment_means`); with
    no pool, frozen_p0 is used as a constant (no gradient). The
    prototype gradient dP goes back to the rows it was averaged from,
    row j of class k receiving dP[k] / n_k, and one backward pass over
    every row yields all net gradients.

    grad_weights optionally overrides the (match, kl, align) weights
    used for the returned gradients only; the gradient-check harness
    uses this to isolate a single term. Defaults to (1, lambda_kl,
    lambda_align). kl_teacher is passed to `kl_loss` as its constant
    teacher (the gradient audit of a kl_stop_teacher config).

    bundle.grads is one vector in the parameter layout of
    `embedder.flatten` (net layers, then classifier). grads=False
    returns the loss values only (bundle.grads is None): the forward
    pass, the loss values and every input check are the same as with
    gradients, but no backward pass runs.
    """
    X_sup, counts = support.rows()
    seg_ids = list(support.class_ids)
    parts = [X_sup]
    has_pool = bg_features is not None and len(bg_features) > 0
    if has_pool:
        parts.append(np.asarray(bg_features, dtype=np.float64))
        seg_ids.append(BACKGROUND_ID)
        counts.append(len(bg_features))
    n_proto_rows = sum(counts)
    parts.append(np.asarray(query_features, dtype=np.float64))
    E, cache = net.forward_batch(np.concatenate(parts))

    entries = list(zip(seg_ids, segment_means(E, counts)))
    if not has_pool and frozen_p0 is not None:
        entries.append((BACKGROUND_ID, np.asarray(frozen_p0, dtype=np.float64)))
    bank = PrototypeBank(entries)
    batch = QueryBatch(E[n_proto_rows:], query_labels)

    m_val, dQ_m, dP_m = matching_loss(batch, bank, grads=grads)
    k_val, dQ_k, dP_k, dWc, dbc = kl_loss(batch, bank, clf, cfg.kl_stop_teacher,
                                          grads=grads, teacher=kl_teacher)
    a_val, dQ_a, dP_a = alignment_loss(batch, bank, cfg.tau,
                                       cfg.align_include_background, grads=grads)
    bundle = _bundle(m_val, k_val, a_val, len(batch), cfg, bank)
    if not grads:
        return bundle

    w_m, w_k, w_a = grad_weights if grad_weights is not None \
        else (1.0, cfg.lambda_kl, cfg.lambda_align)
    scale = 1.0 / len(batch) if cfg.normalize else 1.0
    dQ = (w_m * dQ_m + w_k * dQ_k + w_a * dQ_a) * scale
    dP = (w_m * dP_m + w_k * dP_k + w_a * dP_a) * scale

    # each support / pool row receives its prototype's gradient over the
    # segment size; then one backward pass over every row
    seg_rows = np.repeat([bank.index_of(c) for c in seg_ids], counts)
    seg_size = np.repeat(counts, counts).astype(np.float64)
    dE = np.concatenate([dP[seg_rows] / seg_size[:, None], dQ])
    layer_grads = net.backward_batch(cache, dE)
    bundle.grads = flatten(layer_grads, ((w_k * dWc) * scale, (w_k * dbc) * scale))
    return bundle
