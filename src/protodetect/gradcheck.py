"""Finite-difference verification of every analytic gradient.

An instance is one small episode of the training shape (support set,
class-labelled queries, a non-empty background pool) with the net
depth, loss weights (lambda_kl, lambda_align) and tau under audit;
`protodetect gradcheck` takes them from the train section of the run
config. As in training, `episode_loss` embeds each pool row once and
uses it both for p0 and as a background-labelled query, so the audit
covers the summed gradient a pool row carries. The default instance
has 8 drawn queries and 4 pool rows: 12 queries in the loss head.

One central-difference sweep (h = 1e-6) per instance audits every term
at once. Each parameter entry is moved by +h and by -h, and each probe
is one row of a stack of copies of the parameter vector: one value-only
`episode_loss` call (grads=False: the same forward arithmetic, no
backward pass) on a stack yields the match, kl, align and total values
of a block of probes, each bit-equal to a call on its row alone. A
block's stack stays under `PROBE_BLOCK_BYTES` (a d=8 instance takes one
block); the instance itself is never written. The analytic gradient of
each term comes from one gradient-path `episode_loss` call with that
term's weights, in the layout of the vector (`embedder.layout`). Every
call of a sweep shares one `losses.Episode` of the instance, built
once, as training builds one per run.
Instances are float64, since central differences at h = 1e-6 need it;
training runs the same code on float32 parameters. The reported error
for a term is

    max_i |analytic_i - numeric_i| / max(scale, 1e-8)

where scale is the largest gradient entry (analytic or numeric) of
that term over the whole vector. Per-entry relative errors would
amplify finite-difference round-off into spurious failures where the
true gradient is exactly zero (the matching loss is translation
invariant, so the last bias has none).
"""

from dataclasses import dataclass

import numpy as np

from .embedder import default_net_and_classifier, layout, model_views
from .losses import Episode, episode_loss
from .numeric import make_rng
from .prototypes import SupportSet

TERMS = ("match", "kl", "align", "total")

# bytes of stacked parameter vectors per value-only call of the sweep
PROBE_BLOCK_BYTES = 1 << 22


def _grad_weights(term, lambdas):
    """(match, kl, align) weights whose gradient is that term's."""
    return {"match": (1.0, 0.0, 0.0),
            "kl": (0.0, 1.0, 0.0),
            "align": (0.0, 0.0, 1.0),
            "total": (1.0, *lambdas)}[term]


@dataclass
class GradCheckInstance:
    net: object
    clf: object
    theta: np.ndarray          # the parameter vector net and clf are views into
    support: SupportSet
    bg_features: np.ndarray
    query_features: np.ndarray
    query_labels: np.ndarray
    lambdas: tuple             # (lambda_kl, lambda_align)
    tau: float

    def episode(self):
        """The `losses.Episode` of this instance: its support set, query
        labels and pool size, for its net and classifier."""
        return Episode(self.net, self.clf, self.support, self.query_labels,
                       len(self.bg_features))


def random_instance(seed, d=8, hidden=10, e=6, n_classes=3, shots=3,
                    n_queries=8, n_bg=4, depth=2, lambdas=(1.0, 1.0), tau=10.0):
    """Small random episode for gradient checking: n_queries queries
    labelled with classes 1..n_classes, and n_bg pool rows, which the
    loss also scores as background queries."""
    rng = make_rng(seed)
    net, clf, theta = default_net_and_classifier(seed, d, hidden, e, n_classes, depth)
    support = SupportSet({c: rng.normal(size=(shots, d))
                          for c in range(1, n_classes + 1)})
    bg = rng.normal(size=(n_bg, d))
    X = rng.normal(size=(n_queries, d))
    labels = rng.integers(1, n_classes + 1, size=n_queries)
    # A layer fed by ReLU outputs gets exact zeros from a row that is dead
    # in the layer before; with a zero bias that row then sits on the next
    # ReLU's kink, where finite differences are undefined. Those biases
    # (none at depth 2) are drawn at random.
    for _, b in net.layers[1:-1]:
        b[...] = rng.normal(scale=0.1, size=b.shape)
    return GradCheckInstance(net, clf, theta, support, bg, X, labels, lambdas, tau)


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
    episode = inst.episode()

    def loss(net=inst.net, clf=inst.clf, **kw):
        return episode_loss(net, clf, episode, inst.query_features, inst.lambdas,
                            inst.tau, bg_features=inst.bg_features, **kw)

    analytic = {}
    for t in terms:
        # the episode's gradient vector, which the next call overwrites
        analytic[t] = loss(grad_weights=_grad_weights(t, inst.lambdas)).grads.copy()
        if corrupt:
            analytic[t][0] += 1.0

    # numeric[j, i]: d(term j) / d(entry i of the parameter vector);
    # rows r and m + r of a block's stack move entry i = start + r by +h, -h
    theta, shapes = inst.theta, layout(inst.net, inst.clf)
    numeric = np.zeros((len(terms), theta.size))
    block = max(1, PROBE_BLOCK_BYTES // (2 * theta.nbytes))
    for start in range(0, theta.size, block):
        idx = np.arange(start, min(start + block, theta.size))
        m, r = idx.size, np.arange(idx.size)
        stack = np.tile(theta, (2 * m, 1))
        stack[r, idx] = theta[idx] + h
        stack[m + r, idx] = theta[idx] - h
        bundle = loss(*model_views(stack, shapes), grads=False)
        f = np.array([_term_value(bundle, t) for t in terms])
        numeric[:, idx] = (f[:, :m] - f[:, m:]) / (2.0 * h)

    return {t: _max_rel_err(analytic[t], numeric[j]) for j, t in enumerate(terms)}


def run_suite(seeds=range(20), terms=TERMS, instance_kwargs=None,
              corrupt=False):
    """Gradient-check every loss term over seeded random instances.

    Returns {term: max error over all seeds}, NaN if any error is NaN.
    """
    instance_kwargs = instance_kwargs or {}
    results = {t: 0.0 for t in terms}
    for seed in seeds:
        errors = check_term(random_instance(seed, **instance_kwargs), terms,
                            corrupt=corrupt)
        for t in terms:
            results[t] = float(np.maximum(results[t], errors[t]))
    return results
