"""Synthetic proposal world.

Stands in for a class-agnostic detection backbone: every scene comes
with ground-truth boxes and proposal boxes carrying raw feature
vectors. Class features are Gaussian clusters around well-separated
means, background features cluster around the origin, and feature
space augmentation (scale + partial rotation + noise) replaces image
space augmentation.

Datasets are fully determined by (config, seed) and serialize to JSON
with shortest round-trip decimals, so regeneration is byte-identical.
"""

import json
from dataclasses import dataclass, asdict

import numpy as np

from .numeric import make_rng

IGNORE = -1  # proposals in the [0.3, 0.5) IoU band are excluded from training


@dataclass(frozen=True)
class Box:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not all(np.isfinite([self.x1, self.y1, self.x2, self.y2])):
            raise ValueError("non-finite box")
        if self.x2 <= self.x1 or self.y2 <= self.y1:
            raise ValueError("degenerate box")

    @property
    def area(self):
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def to_list(self):
        return [self.x1, self.y1, self.x2, self.y2]


def iou(a, b):
    """Intersection over union of two boxes, 0 when disjoint."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


@dataclass
class ClassModel:
    class_id: int
    mean: np.ndarray          # feature cluster center, dim d
    sigma_f: float            # per-coordinate feature noise std
    box_size_range: tuple     # (min, max) side length in scene units


@dataclass
class Scene:
    gt: list        # [(Box, class_id)]
    proposals: list  # [(Box, feature ndarray)]


@dataclass
class WorldConfig:
    c_seen: int = 5
    c_unseen: int = 2
    d: int = 64
    delta: float = 10.0          # min pairwise / from-origin distance of class means
    sigma_f: float = 1.0
    scene_size: float = 100.0
    objects_per_scene: int = 4
    proposals_per_scene: int = 12
    box_jitter: float = 0.0      # uniform +- shift applied to GT-aligned proposal corners
    bg_feature_std: float = 1.0
    box_size_range: tuple = (8.0, 16.0)
    shots: int = 5
    n_train_scenes: int = 20
    n_test_scenes: int = 20
    test_includes_unseen: bool = True
    seed: int = 0

    def validate(self):
        """Raise ValueError naming every field whose value is out of range."""
        sizes = tuple(self.box_size_range)
        bad = [name for name, ok in (
            ("c_seen", self.c_seen >= 1), ("c_unseen", self.c_unseen >= 0),
            ("d", self.d >= 1), ("delta", self.delta > 0),
            ("sigma_f", self.sigma_f > 0), ("scene_size", self.scene_size > 0),
            ("objects_per_scene", self.objects_per_scene >= 0),
            ("box_jitter", self.box_jitter >= 0),
            ("bg_feature_std", self.bg_feature_std >= 0),
            ("box_size_range", len(sizes) == 2 and 0 < sizes[0] <= sizes[1]),
            ("shots", self.shots >= 1), ("n_train_scenes", self.n_train_scenes >= 1),
            ("n_test_scenes", self.n_test_scenes >= 1), ("seed", self.seed >= 0),
        ) if not ok]
        if bad:
            raise ValueError(f"invalid world config: {', '.join(bad)} out of range")
        if self.proposals_per_scene < self.objects_per_scene:
            raise ValueError("proposals must be >= objects per scene")


@dataclass
class World:
    config: WorldConfig
    class_models: dict          # class_id -> ClassModel (seen and unseen)
    train_scenes: list
    test_scenes: list
    support_seen: dict          # class_id -> (shots, d) array
    support_unseen: dict

    @property
    def seen_ids(self):
        return list(range(1, self.config.c_seen + 1))

    @property
    def unseen_ids(self):
        c = self.config
        return list(range(c.c_seen + 1, c.c_seen + c.c_unseen + 1))


def _place_means(rng, n_seen, n_unseen, d, delta, max_tries=10000):
    """Rejection-sample class means, all pairwise >= delta apart.

    Seen means sit at norm in [delta, 2*delta] (background clusters at
    the origin, so "none of the above" stays geometrically meaningful).
    Unseen means are placed around the centroid of the seen means: novel
    classes share the seen feature manifold rather than pointing in
    fresh random directions, which is what makes a composed unknown
    prototype informative at all.
    """
    means = []
    tries = 0
    while len(means) < n_seen:
        tries += 1
        if tries > max_tries:
            raise RuntimeError("could not place class means at separation delta")
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        mu = u * rng.uniform(delta, 2.0 * delta)
        if all(np.linalg.norm(mu - m) >= delta for m in means):
            means.append(mu)
    centroid = np.mean(means, axis=0)
    while len(means) < n_seen + n_unseen:
        tries += 1
        if tries > max_tries:
            raise RuntimeError("could not place class means at separation delta")
        eps = rng.normal(size=d)
        eps *= rng.uniform(0.5 * delta, delta) / np.linalg.norm(eps)
        mu = centroid + eps
        if all(np.linalg.norm(mu - m) >= delta for m in means):
            means.append(mu)
    return means


def _random_box(rng, scene_size, size_range):
    w = rng.uniform(*size_range)
    h = rng.uniform(*size_range)
    x1 = rng.uniform(0.0, scene_size - w)
    y1 = rng.uniform(0.0, scene_size - h)
    return Box(x1, y1, x1 + w, y1 + h)


def _jitter_box(rng, box, jitter):
    # draws are unconditional so the stream is identical for jitter=0
    dx1, dy1, dx2, dy2 = rng.uniform(-1.0, 1.0, size=4) * jitter
    x1, y1, x2, y2 = box.x1 + dx1, box.y1 + dy1, box.x2 + dx2, box.y2 + dy2
    if x2 <= x1 or y2 <= y1:
        return box
    return Box(x1, y1, x2, y2)


def _make_scene(rng, cfg, class_pool, models):
    gt = []
    proposals = []
    k = cfg.objects_per_scene
    classes = [class_pool[rng.integers(len(class_pool))] for _ in range(k)]
    for cid in classes:
        model = models[cid]
        box = _random_box(rng, cfg.scene_size, model.box_size_range)
        gt.append((box, cid))
        feat = model.mean + rng.normal(size=cfg.d) * model.sigma_f
        proposals.append((_jitter_box(rng, box, cfg.box_jitter), feat))
    for _ in range(cfg.proposals_per_scene - k):
        box = _random_box(rng, cfg.scene_size, cfg.box_size_range)
        feat = rng.normal(size=cfg.d) * cfg.bg_feature_std
        proposals.append((box, feat))
    return Scene(gt=gt, proposals=proposals)


def generate_world(cfg):
    """Build class models, train/test scenes, and support sets from (cfg, seed)."""
    cfg.validate()
    rng = make_rng(cfg.seed)
    n_total = cfg.c_seen + cfg.c_unseen
    means = _place_means(rng, cfg.c_seen, cfg.c_unseen, cfg.d, cfg.delta)
    models = {cid: ClassModel(cid, means[cid - 1], cfg.sigma_f, cfg.box_size_range)
              for cid in range(1, n_total + 1)}

    seen = list(range(1, cfg.c_seen + 1))
    unseen = list(range(cfg.c_seen + 1, n_total + 1))

    def support_for(ids):
        return {cid: np.stack([models[cid].mean + rng.normal(size=cfg.d) * cfg.sigma_f
                               for _ in range(cfg.shots)])
                for cid in ids}

    support_seen = support_for(seen)
    support_unseen = support_for(unseen)

    train_scenes = [_make_scene(rng, cfg, seen, models) for _ in range(cfg.n_train_scenes)]
    test_pool = seen + unseen if (cfg.test_includes_unseen and unseen) else seen
    test_scenes = [_make_scene(rng, cfg, test_pool, models) for _ in range(cfg.n_test_scenes)]

    return World(cfg, models, train_scenes, test_scenes, support_seen, support_unseen)


def augment_feature(rng, v, strength, sigma_f=1.0):
    """Feature-space stand-in for photometric/geometric augmentation.

    Row by row, v' = R (gamma * v) + eps with gamma ~ U[1-s, 1+s], R a
    rotation by angle theta ~ U[-s*pi/8, s*pi/8] in the plane of two
    distinct random coordinates, eps ~ N(0, (s*sigma_f)^2). v is an
    (n, d) matrix of rows or one (d,) row; the result has its shape.
    Each row gets its own draws, and every quantity is drawn once for
    the whole batch, in this order: gamma (n), the first coordinate
    (n), the offset of the second from the first (n, in 1..d-1),
    theta (n), the noise (n, d). strength 0 is the identity.
    """
    if strength < 0:
        raise ValueError("strength must be >= 0")
    V = np.asarray(v, dtype=np.float64)
    X = V.reshape(-1, V.shape[-1])
    n, d = X.shape
    gamma = rng.uniform(1.0 - strength, 1.0 + strength, size=n)
    out = gamma[:, None] * X
    if d >= 2:
        rows = np.arange(n)
        i = rng.integers(d, size=n)
        j = (i + rng.integers(1, d, size=n)) % d
        theta = rng.uniform(-strength * np.pi / 8.0, strength * np.pi / 8.0, size=n)
        c, s = np.cos(theta), np.sin(theta)
        vi, vj = out[rows, i], out[rows, j]
        out[rows, i] = c * vi - s * vj
        out[rows, j] = s * vi + c * vj
    out += rng.normal(size=(n, d)) * (strength * sigma_f)
    return out.reshape(V.shape)


def label_proposals(scene):
    """Per-proposal training label: class at IoU>=0.5, background (<0.3), else IGNORE."""
    labels = []
    for idx, (box, _feat) in enumerate(scene.proposals):
        best_iou, best_cid = 0.0, 0
        for gbox, cid in scene.gt:
            v = iou(box, gbox)
            if v > best_iou:
                best_iou, best_cid = v, cid
        if best_iou >= 0.5:
            labels.append((idx, best_cid))
        elif best_iou < 0.3:
            labels.append((idx, 0))
        else:
            labels.append((idx, IGNORE))
    return labels


# --- dataset (de)serialization ----------------------------------------------

def _scene_to_dict(scene):
    return {
        "gt": [{"box": b.to_list(), "label": c} for b, c in scene.gt],
        "proposals": [{"box": b.to_list(), "feature": f.tolist()} for b, f in scene.proposals],
    }


def _scene_from_dict(doc):
    gt = [(Box(*e["box"]), int(e["label"])) for e in doc["gt"]]
    props = [(Box(*e["box"]), np.array(e["feature"], dtype=np.float64)) for e in doc["proposals"]]
    return Scene(gt=gt, proposals=props)


def world_to_dict(world):
    cfg = asdict(world.config)
    cfg["box_size_range"] = list(cfg["box_size_range"])
    return {
        "format": "protodetect-dataset-v1",
        "config": cfg,
        "class_models": [
            {"class_id": m.class_id, "mean": m.mean.tolist(), "sigma_f": m.sigma_f,
             "box_size_range": list(m.box_size_range)}
            for m in (world.class_models[c] for c in sorted(world.class_models))
        ],
        "train_scenes": [_scene_to_dict(s) for s in world.train_scenes],
        "test_scenes": [_scene_to_dict(s) for s in world.test_scenes],
        "support_seen": {str(c): world.support_seen[c].tolist() for c in sorted(world.support_seen)},
        "support_unseen": {str(c): world.support_unseen[c].tolist() for c in sorted(world.support_unseen)},
    }


def world_from_dict(doc):
    if doc.get("format") != "protodetect-dataset-v1":
        raise ValueError("not a protodetect dataset")
    cfg_doc = dict(doc["config"])
    cfg_doc["box_size_range"] = tuple(cfg_doc["box_size_range"])
    cfg = WorldConfig(**cfg_doc)
    models = {int(m["class_id"]): ClassModel(int(m["class_id"]),
                                             np.array(m["mean"], dtype=np.float64),
                                             float(m["sigma_f"]),
                                             tuple(m["box_size_range"]))
              for m in doc["class_models"]}
    return World(
        cfg, models,
        [_scene_from_dict(s) for s in doc["train_scenes"]],
        [_scene_from_dict(s) for s in doc["test_scenes"]],
        {int(c): np.array(v, dtype=np.float64) for c, v in doc["support_seen"].items()},
        {int(c): np.array(v, dtype=np.float64) for c, v in doc["support_unseen"].items()},
    )


def save_world(path, world):
    with open(path, "w") as f:
        json.dump(world_to_dict(world), f, sort_keys=True)


def load_world(path):
    with open(path) as f:
        return world_from_dict(json.load(f))
