"""Two-stage episodic training loop with hand-rolled AdamW.

Stage 1 optimizes the matching loss alone (lambda_kl = lambda_align = 0);
stage 2 activates the KL and alignment terms. Each step assembles an
episode (queries augmented from the support set by one batched
`augment_feature` call, plus background queries from a scene), then
evaluates the full objective with one forward and one backward pass
through the net (`losses.episode_loss`, which also rebuilds the
prototypes through the current net). The gradient comes back as one
vector in the layout of the parameter vector (`embedder.bind_params`),
so clipping and the AdamW update are a few in-place vector operations.
The loop is single-threaded in Python and fully deterministic in
(config, dataset, seed), whatever the BLAS thread count.

`background_prototype` computes p0 for the final bank and for
evaluation alike; `heldout_accuracy` scores the nearest-prototype
decision of `prototypes.posteriors_batch`.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .embedder import default_net_and_classifier
from .losses import LossConfig, episode_loss
from .numeric import make_rng
from .prototypes import (BACKGROUND_ID, PrototypeBank, SupportSet,
                         background_pool, build_prototypes, posteriors_batch)
from .simulator import IGNORE, augment_feature, label_proposals

FULL_SPLIT = "full"
PARTIAL_SPLIT = "partial"


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    stage1_steps: int = 500
    stage2_steps: int = 200
    shots: int = 5
    queries_per_support: int = 4
    tau: float = 10.0
    lambda_kl: float = 1.0
    lambda_align: float = 1.0
    seed: int = 0
    augment: bool = True
    augment_strength: float = 0.5
    support_query_split: str = FULL_SPLIT
    hidden_dim: int = 512
    emb_dim: int = 128
    mlp_depth: int = 2
    grad_clip: float = 10.0
    kl_stop_teacher: bool = False
    align_include_background: bool = True
    normalize_loss: bool = True

    def validate(self):
        """Raise ValueError naming every field whose value is out of range."""
        bad = [name for name, ok in (
            ("lr", self.lr > 0), ("weight_decay", self.weight_decay >= 0),
            ("beta1", 0 <= self.beta1 < 1), ("beta2", 0 <= self.beta2 < 1),
            ("eps", self.eps > 0), ("stage1_steps", self.stage1_steps >= 0),
            ("stage2_steps", self.stage2_steps >= 0), ("shots", self.shots >= 1),
            ("queries_per_support", self.queries_per_support >= 1),
            ("tau", self.tau > 0), ("lambda_kl", self.lambda_kl >= 0),
            ("lambda_align", self.lambda_align >= 0), ("seed", self.seed >= 0),
            ("augment_strength", self.augment_strength >= 0),
            ("hidden_dim", self.hidden_dim >= 1), ("emb_dim", self.emb_dim >= 1),
            ("mlp_depth", self.mlp_depth >= 2), ("grad_clip", self.grad_clip >= 0),
        ) if not ok]
        if bad:
            raise ValueError(f"invalid training config: {', '.join(bad)} out of range")
        if self.support_query_split not in (FULL_SPLIT, PARTIAL_SPLIT):
            raise ValueError(f"unknown split mode {self.support_query_split!r}")

    def loss_config(self, stage):
        return LossConfig.for_stage(
            stage, self.lambda_kl, self.lambda_align, tau=self.tau,
            kl_stop_teacher=self.kl_stop_teacher,
            align_include_background=self.align_include_background,
            normalize=self.normalize_loss)


class AdamW:
    """Decoupled weight decay Adam over the parameter vector.

    The moments are vectors of the same layout; every update runs in
    place through one scratch vector, so a step allocates nothing.
    """

    def __init__(self, params, cfg):
        self.cfg = cfg
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = np.empty_like(params)
        self.t = 0

    def step(self, params, grads):
        if not np.all(np.isfinite(grads)):
            raise FloatingPointError("non-finite gradient")
        c, m, v, s = self.cfg, self.m, self.v, self._scratch
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        sqrt_bc2 = np.sqrt(1.0 - c.beta2 ** self.t)
        m *= c.beta1
        np.multiply(grads, 1.0 - c.beta1, out=s)
        m += s
        v *= c.beta2
        np.multiply(grads, grads, out=s)
        s *= 1.0 - c.beta2
        v += s
        # decay is decoupled from the adaptive update
        params *= 1.0 - c.lr * c.weight_decay
        # (m / bc1) / (sqrt(v / bc2) + eps), with the bias corrections
        # folded into two scalars
        np.sqrt(v, out=s)
        s += c.eps * sqrt_bc2
        np.divide(m, s, out=s)
        s *= c.lr * sqrt_bc2 / bc1
        params -= s


def clip_global_norm(grads, max_norm):
    """Scale the gradient vector in place to norm <= max_norm; returns the pre-clip norm."""
    # np.sum, not a BLAS dot: its result does not depend on the thread count
    norm = float(np.sqrt(np.sum(np.square(grads))))
    if max_norm > 0 and norm > max_norm:
        grads *= max_norm / norm
    return norm


def make_episode(rng, support, cfg, sigma_f=1.0):
    """Support/query split for one step.

    full: prototypes from all support vectors, queries are m copies of
    each. partial (requires 5 shots): 3/5 build prototypes, 2/5 serve
    as queries (m copies each when augmentation is on, otherwise used
    as-is). Queries are class-major, the m copies of a vector next to
    each other; with augmentation on, one `augment_feature` call
    augments them all.
    """
    full = cfg.support_query_split == FULL_SPLIT
    if full:
        proto_support, held = support, support.by_class
    else:
        if any(support.shots(c) != 5 for c in support.class_ids):
            raise ValueError("split requires 5 shots")
        proto_support = SupportSet(
            {c: support.by_class[c][:3] for c in support.class_ids})
        held = {c: support.by_class[c][3:] for c in support.class_ids}
    copies = cfg.queries_per_support if full or cfg.augment else 1
    ids = support.class_ids
    feats = np.repeat(np.concatenate([held[c] for c in ids]), copies, axis=0)
    labels = np.repeat(ids, [len(held[c]) * copies for c in ids]).astype(np.int64)
    if cfg.augment:
        feats = augment_feature(rng, feats, cfg.augment_strength, sigma_f)
    return proto_support, feats, labels


def scene_background_features(scene, threshold=0.3):
    return background_pool(scene.proposals, scene.features, scene.gt, threshold)


def background_prototype(net, scenes):
    """p0: the mean embedding of the scenes' background pools, or None
    when every pool is empty."""
    pools = [scene_background_features(s) for s in scenes]
    if not sum(map(len, pools)):
        return None
    emb, _ = net.forward_batch(np.concatenate(pools))
    return emb.mean(axis=0)


def heldout_accuracy(net, bank, scenes):
    """Nearest-prototype accuracy on labeled proposals from held-out scenes.

    Proposals in the IoU ignore band or labeled with classes outside
    the bank are skipped; background proposals count with label 0.
    NaN when no proposal counts.
    """
    feats, labels = [], []
    for scene in scenes:
        y = label_proposals(scene)
        keep = (y != IGNORE) & np.isin(y, bank.ids)
        feats.append(scene.features[keep])
        labels.append(y[keep])
    if not sum(map(len, labels)):
        return float("nan")
    Q, _ = net.forward_batch(np.concatenate(feats))
    pred = np.asarray(bank.ids)[np.argmax(posteriors_batch(Q, bank), axis=1)]
    return float(np.mean(pred == np.concatenate(labels)))


@dataclass
class TrainResult:
    net: object
    clf: object
    bank: PrototypeBank
    log: list = field(default_factory=list)

    def write_log(self, path):
        with open(path, "w") as f:
            for rec in self.log:
                f.write(json.dumps(rec, sort_keys=True) + "\n")


def train(world, cfg):
    """Run the two-stage schedule on a generated world.

    Returns the trained net/classifier, the final bank rebuilt from
    the original support set, and a JSON-serializable per-step log.
    """
    cfg.validate()
    support = SupportSet(world.support_seen)
    n_classes = len(support.class_ids)
    net, clf, theta = default_net_and_classifier(
        cfg.seed, support.feature_dim, cfg.hidden_dim, cfg.emb_dim,
        n_classes, cfg.mlp_depth)
    rng = make_rng(cfg.seed + 1)
    opt = AdamW(theta, cfg)
    sigma_f = world.config.sigma_f

    log = []
    last_p0 = np.zeros(cfg.emb_dim)
    total = cfg.stage1_steps + cfg.stage2_steps
    for step in range(total):
        stage = 1 if step < cfg.stage1_steps else 2
        loss_cfg = cfg.loss_config(stage)

        scene = world.train_scenes[int(rng.integers(len(world.train_scenes)))]
        proto_support, qfeats, qlabels = make_episode(rng, support, cfg, sigma_f)
        bg = scene_background_features(scene)
        if len(bg):
            qfeats = np.concatenate([qfeats, bg])
            qlabels = np.concatenate([qlabels, np.zeros(len(bg), dtype=np.int64)])
            kwargs = {"bg_features": bg}
        else:
            kwargs = {"frozen_p0": last_p0}
        bundle = episode_loss(net, clf, proto_support, qfeats, qlabels,
                              loss_cfg, **kwargs)
        if len(bg):
            last_p0 = bundle.bank.get(BACKGROUND_ID)

        if not np.isfinite(bundle.l_total):
            raise FloatingPointError(f"diverged at step {step}")

        grad_norm = clip_global_norm(bundle.grads, cfg.grad_clip)
        opt.step(theta, bundle.grads)

        log.append({"step": step, "stage": stage,
                    "l_match": bundle.l_match, "l_kl": bundle.l_kl,
                    "l_align": bundle.l_align, "l_total": bundle.l_total,
                    "grad_norm": grad_norm})

    p0 = background_prototype(net, world.train_scenes)
    bank = build_prototypes(net, support).with_entry(
        BACKGROUND_ID, last_p0 if p0 is None else p0)
    return TrainResult(net=net, clf=clf, bank=bank, log=log)
