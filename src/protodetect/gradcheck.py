"""Finite-difference verification of every analytic gradient.

One central-difference sweep (h = 1e-6) per instance audits every term
at once. Each parameter entry is moved by +h and by -h, and each of the
two probes is a single value-only `episode_loss` call (grads=False: the
same forward arithmetic, no backward pass) whose bundle yields the
match, kl, align and total values together. The analytic gradient of
each term comes from one gradient-path `episode_loss` call with that
term's weights.

The reported error for a term is

    max_i |analytic_i - numeric_i| / max(scale, 1e-8)

where scale is the largest gradient entry (analytic or numeric) over
all parameter blocks of that term. Blocks whose true gradient is
exactly zero (the matching loss is translation invariant, so the last
bias has none) would otherwise amplify finite-difference round-off
into spurious failures.
"""

from dataclasses import dataclass

import numpy as np

from .embedder import all_params, default_net_and_classifier
from .losses import LossConfig, episode_loss
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
    support: SupportSet
    bg_features: np.ndarray
    query_features: np.ndarray
    query_labels: np.ndarray
    cfg: LossConfig


def random_instance(seed, d=8, hidden=10, e=6, n_classes=3, shots=3,
                    n_queries=12, n_bg=4, depth=2, cfg=None):
    """Small random episode for gradient checking."""
    rng = make_rng(seed)
    net, clf = default_net_and_classifier(seed, d, hidden, e, n_classes, depth)
    support = SupportSet({c: rng.normal(size=(shots, d))
                          for c in range(1, n_classes + 1)})
    bg = rng.normal(size=(n_bg, d))
    X = rng.normal(size=(n_queries, d))
    labels = rng.integers(0, n_classes + 1, size=n_queries)
    if cfg is None:
        cfg = LossConfig.for_stage(2, 1.0, 1.0, tau=10.0)
    return GradCheckInstance(net, clf, support, bg, X, labels, cfg)


def _term_value(bundle, term):
    return {"match": bundle.l_match, "kl": bundle.l_kl,
            "align": bundle.l_align, "total": bundle.l_total}[term]


def _max_rel_err(analytic, numeric):
    scale = max(max(float(np.max(np.abs(g))) for g in analytic),
                max(float(np.max(np.abs(g))) for g in numeric), 1e-8)
    return max(float(np.max(np.abs(g_a - g_n))) / scale
               for g_a, g_n in zip(analytic, numeric))


def check_term(inst, terms=TERMS, h=1e-6, corrupt=False):
    """{term: max per-block relative error between analytic and numeric grads}.

    One sweep over the parameters serves every term in `terms`.
    `corrupt` perturbs one analytic entry of each term before
    comparison; the harness must then report a failure for every term
    (sanity check of the check).
    """
    def loss(**kw):
        return episode_loss(inst.net, inst.clf, inst.support,
                            inst.query_features, inst.query_labels, inst.cfg,
                            bg_features=inst.bg_features, **kw)

    analytic = {}
    for t in terms:
        grads = loss(grad_weights=_grad_weights(t, inst.cfg)).grads.flat()
        if corrupt:
            grads[0].flat[0] += 1.0
        analytic[t] = [g.ravel() for g in grads]

    def values():
        bundle = loss(grads=False)
        return np.array([_term_value(bundle, t) for t in terms])

    # numeric[k][j, i]: d(term j) / d(entry i of parameter block k)
    params = all_params(inst.net, inst.clf)
    numeric = [np.zeros((len(terms), p.size)) for p in params]
    for p, g_n in zip(params, numeric):
        for i in range(p.size):
            orig = p.flat[i]
            p.flat[i] = orig + h
            f_plus = values()
            p.flat[i] = orig - h
            f_minus = values()
            p.flat[i] = orig
            g_n[:, i] = (f_plus - f_minus) / (2.0 * h)

    return {t: _max_rel_err(analytic[t], [g_n[j] for g_n in numeric])
            for j, t in enumerate(terms)}


def run_suite(seeds=range(20), terms=TERMS, instance_kwargs=None,
              corrupt=False):
    """Gradient-check every loss term over seeded random instances.

    Returns {term: max error over all seeds and parameter blocks}.
    """
    instance_kwargs = instance_kwargs or {}
    results = {t: 0.0 for t in terms}
    for seed in seeds:
        errors = check_term(random_instance(seed, **instance_kwargs), terms,
                            corrupt=corrupt)
        for t in terms:
            results[t] = max(results[t], errors[t])
    return results
