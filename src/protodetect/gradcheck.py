"""Finite-difference verification of every analytic gradient.

One central-difference sweep (h = 1e-6) per instance audits every term
at once. Each parameter entry is moved by +h and by -h, and each of the
two probes is a single value-only `episode_loss` call (grads=False: the
same forward arithmetic, no backward pass) whose bundle yields the
match, kl, align and total values together. The analytic gradient of
each term comes from one gradient-path `episode_loss` call with that
term's weights.

The parameters of net and classifier are views into one vector
(`embedder.bind_params`) and `episode_loss` returns its gradient in
the same layout, so the sweep moves entries of that vector. The
reported error for a term is

    max_i |analytic_i - numeric_i| / max(scale, 1e-8)

where scale is the largest gradient entry (analytic or numeric) of
that term over the whole vector. Per-entry relative errors would
amplify finite-difference round-off into spurious failures where the
true gradient is exactly zero (the matching loss is translation
invariant, so the last bias has none).
"""

from dataclasses import dataclass

import numpy as np

from .embedder import default_net_and_classifier
from .losses import LossConfig, episode_loss, proto_log_posteriors
from .numeric import make_rng
from .prototypes import SupportSet

TERMS = ("match", "kl", "align", "total")


def _grad_weights(term, cfg):
    """(match, kl, align) weights whose gradient is that term's."""
    return {"match": (1.0, 0.0, 0.0),
            "kl": (0.0, 1.0, 0.0),
            "align": (0.0, 0.0, 1.0),
            "total": (1.0, cfg.lambda_kl, cfg.lambda_align)}[term]


@dataclass
class GradCheckInstance:
    net: object
    clf: object
    theta: np.ndarray          # the parameter vector net and clf are views into
    support: SupportSet
    bg_features: np.ndarray
    query_features: np.ndarray
    query_labels: np.ndarray
    cfg: LossConfig
    frozen_p0: np.ndarray = None   # constant background prototype when bg_features is None


def random_instance(seed, d=8, hidden=10, e=6, n_classes=3, shots=3,
                    n_queries=12, n_bg=4, depth=2, cfg=None):
    """Small random episode for gradient checking."""
    rng = make_rng(seed)
    net, clf, theta = default_net_and_classifier(seed, d, hidden, e, n_classes, depth)
    support = SupportSet({c: rng.normal(size=(shots, d))
                          for c in range(1, n_classes + 1)})
    bg = rng.normal(size=(n_bg, d))
    X = rng.normal(size=(n_queries, d))
    labels = rng.integers(0, n_classes + 1, size=n_queries)
    # A layer fed by ReLU outputs gets exact zeros from a row that is dead
    # in the layer before; with a zero bias that row then sits on the next
    # ReLU's kink, where finite differences are undefined. Those biases
    # (none at depth 2) are drawn at random.
    for _, b in net.layers[1:-1]:
        b[...] = rng.normal(scale=0.1, size=b.shape)
    if cfg is None:
        cfg = LossConfig.for_stage(2, 1.0, 1.0, tau=10.0)
    return GradCheckInstance(net, clf, theta, support, bg, X, labels, cfg)


def _term_value(bundle, term):
    return {"match": bundle.l_match, "kl": bundle.l_kl,
            "align": bundle.l_align, "total": bundle.l_total}[term]


def _max_rel_err(analytic, numeric):
    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), 1e-8)
    return float(np.max(np.abs(analytic - numeric))) / scale


def check_term(inst, terms=TERMS, h=1e-6, corrupt=False):
    """{term: max relative error between analytic and numeric grads}.

    One sweep over the entries of the parameter vector serves every
    term in `terms`. `corrupt` perturbs one analytic entry of each
    term before comparison; the harness must then report a failure
    for every term (sanity check of the check).
    """
    def loss(**kw):
        return episode_loss(inst.net, inst.clf, inst.support,
                            inst.query_features, inst.query_labels, inst.cfg,
                            bg_features=inst.bg_features,
                            frozen_p0=inst.frozen_p0, **kw)

    analytic = {}
    for t in terms:
        analytic[t] = loss(grad_weights=_grad_weights(t, inst.cfg)).grads
        if corrupt:
            analytic[t][0] += 1.0

    # A stop-gradient KL trains the gradient of KL(P_proto held at the
    # unperturbed parameters || P_clf): the probes difference that.
    teacher = None
    if inst.cfg.kl_stop_teacher:
        Q0, _ = inst.net.forward_batch(inst.query_features)
        teacher = proto_log_posteriors(Q0, loss(grads=False).bank.P)

    def values():
        bundle = loss(grads=False, kl_teacher=teacher)
        return np.array([_term_value(bundle, t) for t in terms])

    # numeric[j, i]: d(term j) / d(entry i of the parameter vector)
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


def run_suite(seeds=range(20), terms=TERMS, instance_kwargs=None,
              corrupt=False):
    """Gradient-check every loss term over seeded random instances.

    Returns {term: max error over all seeds}.
    """
    instance_kwargs = instance_kwargs or {}
    results = {t: 0.0 for t in terms}
    for seed in seeds:
        errors = check_term(random_instance(seed, **instance_kwargs), terms,
                            corrupt=corrupt)
        for t in terms:
            results[t] = max(results[t], errors[t])
    return results
