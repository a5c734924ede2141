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
it rebuilds prototypes through the current net, so prototype
gradients reach the net through the support embeddings too.

Every loss takes `grads`: with grads=False it computes the same value
by the same arithmetic and skips the gradient algebra, returning None
in place of each gradient. Training and the gradient audit's probes
share this one implementation.
"""

from dataclasses import dataclass

import numpy as np

from .numeric import log_softmax, sq_distances
from .prototypes import BACKGROUND_ID, PrototypeBank, build_prototypes


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
class ParamGrads:
    """Gradients in all_params(net, clf) order: W1,b1,...,Wc,bc."""
    net_grads: list
    clf_grads: list

    def flat(self):
        return [g for pair in self.net_grads for g in pair] + list(self.clf_grads)


@dataclass
class LossBundle:
    l_match: float
    l_kl: float
    l_align: float
    l_total: float
    raw: dict              # un-normalized sums of the same quantities
    n_queries: int
    bank: PrototypeBank = None   # the episode's prototypes, background included
    grads: ParamGrads = None     # None on the value-only path


def _label_indices(labels, bank):
    idx = []
    for y in labels:
        if not bank.has(int(y)):
            raise ValueError(f"label {int(y)} has no prototype in bank")
        idx.append(bank.index_of(int(y)))
    return np.asarray(idx, dtype=np.int64)


def _matching_core(Q, y_idx, P, grads=True):
    Z = -sq_distances(Q, P)
    logp = log_softmax(Z, axis=1)
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


def _kl_core(Q, P, clf, stop_teacher, grads=True):
    Z = -sq_distances(Q, P)
    logp_proto = log_softmax(Z, axis=1)
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


def kl_loss(batch, bank, clf, stop_teacher=False, grads=True):
    """Sum of KL(P_proto || P_clf); grads wrt Q, P, and classifier params.

    Probabilities never appear inside logs directly; everything is
    phrased through log-sum-exp, so classifier underflow is harmless.
    """
    if clf.n_classes != len(bank):
        raise ValueError("classifier width must equal bank size")
    return _kl_core(batch.Q, bank.P, clf, stop_teacher, grads)


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
                 grads=True):
    """Full training objective for one episode, with parameter gradients.

    Prototypes are rebuilt through the current net (gradients flow into
    the support embeddings, each receiving dP_j / n_j). The background
    prototype comes from bg_features when given, otherwise frozen_p0 is
    used as a constant (no gradient).

    grad_weights optionally overrides the (match, kl, align) weights
    used for the returned gradients only; the gradient-check harness
    uses this to isolate a single term. Defaults to (1, lambda_kl,
    lambda_align).

    grads=False returns the loss values only (bundle.grads is None):
    the forward pass, the loss values and every input check are the
    same as with gradients, but no backward pass runs.
    """
    bank_cls, sup_caches = build_prototypes(net, support)
    entries = list(zip(bank_cls.ids, bank_cls.P))
    p0_cache = None
    if bg_features is not None and len(bg_features) > 0:
        bg = np.asarray(bg_features, dtype=np.float64)
        bg_emb, p0_cache = net.forward_batch(bg)
        entries.append((BACKGROUND_ID, bg_emb.mean(axis=0)))
    elif frozen_p0 is not None:
        entries.append((BACKGROUND_ID, np.asarray(frozen_p0, dtype=np.float64)))
    bank = PrototypeBank(entries)

    X = np.asarray(query_features, dtype=np.float64)
    Q, q_cache = net.forward_batch(X)
    batch = QueryBatch(Q, query_labels)

    m_val, dQ_m, dP_m = matching_loss(batch, bank, grads=grads)
    k_val, dQ_k, dP_k, dWc, dbc = kl_loss(batch, bank, clf, cfg.kl_stop_teacher,
                                          grads=grads)
    a_val, dQ_a, dP_a = alignment_loss(batch, bank, cfg.tau,
                                       cfg.align_include_background, grads=grads)
    bundle = _bundle(m_val, k_val, a_val, len(batch), cfg, bank)
    if not grads:
        return bundle

    w_m, w_k, w_a = grad_weights if grad_weights is not None \
        else (1.0, cfg.lambda_kl, cfg.lambda_align)
    dQ = w_m * dQ_m + w_k * dQ_k + w_a * dQ_a
    dP = w_m * dP_m + w_k * dP_k + w_a * dP_a
    clf_grads = clf.zero_grads()
    clf_grads[0] += w_k * dWc
    clf_grads[1] += w_k * dbc

    scale = 1.0 / len(batch) if cfg.normalize else 1.0
    dQ *= scale
    dP *= scale
    clf_grads[0] *= scale
    clf_grads[1] *= scale

    # queries -> net params
    layer_grads, _ = net.backward_batch(q_cache, dQ)
    net_grads = [list(pair) for pair in layer_grads]

    def accumulate(pairs):
        for dst, (dW, db) in zip(net_grads, pairs):
            dst[0] += dW
            dst[1] += db

    # class prototypes -> support embeddings -> net params
    for cid in support.class_ids:
        n_sup = support.shots(cid)
        dP_row = dP[bank.index_of(cid)]
        d_emb = np.tile(dP_row / n_sup, (n_sup, 1))
        pairs, _ = net.backward_batch(sup_caches[cid], d_emb)
        accumulate(pairs)

    # background prototype -> pool embeddings -> net params
    if p0_cache is not None:
        n_bg = p0_cache[0].shape[0]
        dP_row = dP[bank.index_of(BACKGROUND_ID)]
        d_emb = np.tile(dP_row / n_bg, (n_bg, 1))
        pairs, _ = net.backward_batch(p0_cache, d_emb)
        accumulate(pairs)

    bundle.grads = ParamGrads(net_grads=[tuple(p) for p in net_grads],
                              clf_grads=clf_grads)
    return bundle
