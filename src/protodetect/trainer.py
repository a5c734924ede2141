"""Two-stage episodic training loop with hand-rolled AdamW.

Stage 1 optimizes the matching loss alone (lambda_kl = lambda_align = 0);
stage 2 activates the KL and alignment terms. Every step's episode has
one shape: the prototypes come from the original support set, the
queries are copies of it augmented by one batched `augment_feature`
call, and one training scene's background pool serves both as the rows
of p0 and as background-labelled queries. The step evaluates the full
objective with one forward and one backward pass through the net
(`losses.episode_loss`, which also rebuilds the prototypes through the
current net). The gradient comes back as one
vector in the layout of the parameter vector (`embedder.layout`),
so clipping and the AdamW update are a few in-place vector operations.
That vector, the net's arithmetic, the AdamW moments and the checkpoint
are float32 (`TRAIN_DTYPE`); the loss head and the gradient norm are
computed in float64. The loop checks the gradient's finiteness through
the norm that `clip_global_norm` returns: a float64 sum of float32
squares is finite exactly when every entry is, so no separate pass over
the vector is needed. An overflow or invalid operation anywhere in a
step raises FloatingPointError, as a non-finite loss or gradient does,
so a diverging run stops at once, without numpy's warnings. Each step draws its pool from the non-empty pools
taken from the training scenes before the first step. The loop
is single-threaded in Python and fully deterministic in (config,
dataset, seed), whatever the BLAS thread count.

`background_prototype` computes p0 for the final bank, which the
checkpoint stores; training refuses a world whose training scenes hold
no background pool. `heldout_accuracy` scores the nearest-prototype
decision of `prototypes.nearest_prototype`.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .embedder import default_net_and_classifier
from .losses import episode_loss
from .numeric import make_rng
from .prototypes import (BACKGROUND_ID, PrototypeBank, SupportSet,
                         background_pool, build_prototypes, nearest_prototype)
from .simulator import IGNORE, augment_feature, label_proposals

NO_POOL = "no background pool in training scenes"
# the dtype of the parameter vector, the net's arithmetic and the
# checkpoint; the loss head computes in float64 whatever it is
TRAIN_DTYPE = np.float32
# AdamW's moment decays and denominator epsilon, and the global norm the
# gradient is clipped to; Python floats, as `AdamW` explains
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
GRAD_CLIP = 10.0


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 1e-4
    stage1_steps: int = 500
    stage2_steps: int = 200
    shots: int = 5
    queries_per_support: int = 4
    tau: float = 10.0
    lambda_kl: float = 1.0
    lambda_align: float = 1.0
    seed: int = 0
    augment_strength: float = 0.5
    hidden_dim: int = 512
    emb_dim: int = 128
    mlp_depth: int = 2

    def validate(self):
        """Raise ValueError naming every field whose value is out of range."""
        bad = [name for name, ok in (
            ("lr", self.lr > 0), ("weight_decay", self.weight_decay >= 0),
            ("stage1_steps", self.stage1_steps >= 0),
            ("stage2_steps", self.stage2_steps >= 0), ("shots", self.shots >= 1),
            ("queries_per_support", self.queries_per_support >= 1),
            ("tau", self.tau > 0), ("lambda_kl", self.lambda_kl >= 0),
            ("lambda_align", self.lambda_align >= 0), ("seed", self.seed >= 0),
            # the width 2s of augment_feature's draw U[1-s, 1+s] must be finite
            ("augment_strength", 0 <= 2.0 * self.augment_strength < math.inf),
            ("hidden_dim", self.hidden_dim >= 1), ("emb_dim", self.emb_dim >= 1),
            ("mlp_depth", self.mlp_depth >= 2),
        ) if not ok]
        if bad:
            raise ValueError(f"invalid training config: {', '.join(bad)} out of range")


class AdamW:
    """Decoupled weight decay Adam over the parameter vector.

    The moments are vectors of the same layout; every update runs in
    place through one scratch vector, so a step allocates nothing.
    Every scalar of the update is a Python float. Under NEP 50 (numpy 2)
    a numpy float64 scalar is not weakly typed, so it would turn its
    pass over a float32 vector into a float64 loop with casts; a Python
    float keeps every pass in the vector's dtype, whatever the numpy
    version.
    `step` does not check that the gradient is finite: `train` does,
    through the norm `clip_global_norm` returns before the update.
    """

    def __init__(self, params, cfg):
        self.cfg = cfg
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = np.empty_like(params)
        self.t = 0

    def step(self, params, grads):
        c, m, v, s = self.cfg, self.m, self.v, self._scratch
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        sqrt_bc2 = math.sqrt(1.0 - BETA2 ** self.t)
        m *= BETA1
        np.multiply(grads, 1.0 - BETA1, out=s)
        m += s
        v *= BETA2
        np.multiply(grads, grads, out=s)
        s *= 1.0 - BETA2
        v += s
        # decay is decoupled from the adaptive update
        params *= 1.0 - c.lr * c.weight_decay
        # (m / bc1) / (sqrt(v / bc2) + eps), with the bias corrections
        # folded into two scalars
        np.sqrt(v, out=s)
        s += EPS * sqrt_bc2
        np.divide(m, s, out=s)
        s *= c.lr * sqrt_bc2 / bc1
        params -= s


def clip_global_norm(grads, max_norm):
    """Scale the gradient vector in place to norm <= max_norm; returns the
    pre-clip norm. A non-finite norm scales nothing: `train` refuses that
    gradient, and max_norm / inf would turn an inf entry into a NaN."""
    # np.sum, not a BLAS dot: its result does not depend on the thread
    # count; float64 squares and sum whatever the gradient's dtype
    norm = float(np.sqrt(np.sum(np.square(grads, dtype=np.float64))))
    if 0 < max_norm < norm < np.inf:
        grads *= max_norm / norm
    return norm


def make_episode(rng, support, cfg, sigma_f=1.0):
    """Queries for one step: queries_per_support copies of every support
    vector, class-major, the copies of a vector next to each other, with
    their labels. One `augment_feature` call augments them all
    (strength 0 is the identity). Prototypes come from the support set
    itself.
    """
    rows, counts = support.rows()
    copies = cfg.queries_per_support
    feats = np.repeat(rows, copies, axis=0)
    labels = np.repeat(support.class_ids, [n * copies for n in counts]).astype(np.int64)
    return augment_feature(rng, feats, cfg.augment_strength, sigma_f), labels


def scene_background_features(scene):
    return background_pool(scene.proposals, scene.features, scene.gt)


def background_prototype(net, pools):
    """p0: the mean embedding of the rows of the background pools, a
    list of (n, d) arrays holding at least one row."""
    emb, _ = net.forward_batch(np.concatenate(pools))
    return emb.mean(axis=0)


def heldout_accuracy(net, bank, scenes):
    """Nearest-prototype accuracy on labeled proposals from held-out scenes.

    Proposals in the IoU ignore band or labeled with classes outside
    the bank are left out; background proposals count with label 0.
    NaN when no proposal counts. FloatingPointError, from
    `nearest_prototype`, when an embedding is not finite.
    """
    feats, labels = [], []
    for scene in scenes:
        y = label_proposals(scene)
        keep = (y != IGNORE) & np.isin(y, bank.ids)
        feats.append(scene.features[keep])
        labels.append(y[keep])
    if not sum(map(len, labels)):
        return float("nan")
    pred, _ = nearest_prototype(net.forward_batch(np.concatenate(feats))[0], bank)
    return float(np.mean(pred == np.concatenate(labels)))


@dataclass
class TrainResult:
    net: object
    clf: object
    theta: np.ndarray     # the parameter vector net and clf are views into
    bank: PrototypeBank
    log: list = field(default_factory=list)

    def write_log(self, path):
        with open(path, "w") as f:
            for rec in self.log:
                f.write(json.dumps(rec, sort_keys=True) + "\n")


def train(world, cfg):
    """Run the two-stage schedule on a generated world.

    Returns the trained net/classifier, their parameter vector, the
    final bank rebuilt from the original support set, and a
    JSON-serializable per-step log.
    ValueError, before the first step, when no training scene has a
    background pool, since no step could then draw one and the final
    bank could hold no p0; ValueError too when the final bank's p0
    embeds a training scene's features to non-finite values.
    FloatingPointError when a step diverges.
    """
    cfg.validate()
    # the non-empty background pools of the training scenes, taken once
    # before any step: each step draws one and the final bank's p0 is
    # their mean
    pools = [p for p in map(scene_background_features, world.train_scenes) if len(p)]
    if not pools:
        raise ValueError(NO_POOL)
    support = SupportSet(world.support_seen)
    n_classes = len(support.class_ids)
    net, clf, theta = default_net_and_classifier(
        cfg.seed, support.feature_dim, cfg.hidden_dim, cfg.emb_dim,
        n_classes, cfg.mlp_depth, TRAIN_DTYPE)
    rng = make_rng(cfg.seed + 1)
    opt = AdamW(theta, cfg)
    sigma_f = world.config.sigma_f

    log = []
    total = cfg.stage1_steps + cfg.stage2_steps
    # an overflow or an invalid operation in a step is divergence as a
    # non-finite loss or gradient is: numpy raises it as FloatingPointError
    with np.errstate(over="raise", invalid="raise"):
        for step in range(total):
            stage = 1 if step < cfg.stage1_steps else 2
            lambdas = (0.0, 0.0) if stage == 1 else (cfg.lambda_kl, cfg.lambda_align)

            bg = pools[int(rng.integers(len(pools)))]
            qfeats, qlabels = make_episode(rng, support, cfg, sigma_f)
            bundle = episode_loss(net, clf, support, np.concatenate([qfeats, bg]),
                                  np.concatenate([qlabels, np.zeros(len(bg), dtype=np.int64)]),
                                  lambdas, cfg.tau, bg_features=bg)

            if not np.isfinite(bundle.l_total):
                raise FloatingPointError(f"non-finite loss at step {step}")

            grad_norm = clip_global_norm(bundle.grads, GRAD_CLIP)
            if not np.isfinite(grad_norm):
                raise FloatingPointError("non-finite gradient")
            opt.step(theta, bundle.grads)

            log.append({"step": step, "stage": stage,
                        "l_match": bundle.l_match, "l_kl": bundle.l_kl,
                        "l_align": bundle.l_align, "l_total": bundle.l_total,
                        "grad_norm": grad_norm})

        bank = build_prototypes(net, support)
        try:
            p0 = background_prototype(net, pools)
        except FloatingPointError:
            # pools no step drew embed here first: training scene
            # features that overflow the net's dtype are bad input
            raise ValueError("cannot embed training scenes: non-finite embeddings") from None
    return TrainResult(net=net, clf=clf, theta=theta, log=log,
                       bank=bank.with_entry(BACKGROUND_ID, p0))
