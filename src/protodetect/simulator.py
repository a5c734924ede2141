"""Synthetic proposal world.

Stands in for a class-agnostic detection backbone: every scene comes
with ground-truth boxes and proposal boxes carrying raw feature
vectors. Class features are Gaussian clusters around well-separated
means, background features cluster around the origin, and feature
space augmentation (scale + partial rotation + noise) replaces image
space augmentation.

A scene is columnar: one array of proposal boxes, one of their
features, one of ground-truth boxes and one of their labels. Boxes are
(x1, y1, x2, y2) rows, and `iou` compares every row of one box array
with every row of another.

Datasets are fully determined by (config, seed). One generator, seeded
once, draws the class means by rejection, then every support row in
one block, then each split's class ids, boxes, GT jitter and features,
one block per quantity for all of the split's scenes. `save_world` writes
one uncompressed .npz archive (format protodetect-dataset-v2) whose
bytes depend on the world only, so regeneration is byte-identical.
`load_world` reads it back into the same columnar world, after one
set of checks (the stored config's keys and types, as the run config
is checked; shapes, offsets, finite values, non-degenerate boxes; seen
support ids 1..c_seen, unseen ones c_seen+1..c_seen+c_unseen, and GT
labels among them).
"""

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .archive import load_archive, save_archive
from .numeric import make_rng
from .schema import build_dataclass

IGNORE = -1  # proposals in the [0.3, 0.5) IoU band are excluded from training
BACKGROUND_IOU = 0.3  # a proposal below this IoU with every GT box is background
SCENE_SIZE = 100.0  # scenes are SCENE_SIZE x SCENE_SIZE squares
BOX_SIZES = (8.0, 16.0)  # box widths and heights are uniform in this range


def iou(a, b):
    """Pairwise intersection over union: rows of a (..., n, 4) against
    rows of b (..., m, 4) -> (..., n, m), 0 where two boxes do not
    overlap. Leading axes broadcast, so a stack of scenes takes one call.

    Every entry takes the scalar formula's operations in its order
    (min - max per axis, ix * iy, inter / (area_a + area_b - inter)),
    so it is bit-equal to the scalar formula.
    """
    a = np.asarray(a, dtype=np.float64)[..., :, None, :]
    b = np.asarray(b, dtype=np.float64)[..., None, :, :]
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = ix * iy
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return np.divide(inter, area_a + area_b - inter,
                     out=np.zeros_like(inter), where=(ix > 0.0) & (iy > 0.0))


@dataclass
class Scene:
    """One scene, row-aligned arrays: proposal boxes (P, 4) and their raw
    features (P, d), ground-truth boxes (G, 4) and their class ids (G,)
    int64. The first G proposals are the GT boxes, jittered, in GT order."""
    proposals: np.ndarray
    features: np.ndarray
    gt: np.ndarray
    labels: np.ndarray


@dataclass
class WorldConfig:
    c_seen: int = 5
    c_unseen: int = 2
    d: int = 64
    delta: float = 10.0          # min pairwise / from-origin distance of class means
    sigma_f: float = 1.0
    objects_per_scene: int = 4
    proposals_per_scene: int = 12
    box_jitter: float = 0.0      # uniform +- shift applied to GT-aligned proposal corners
    shots: int = 5
    n_train_scenes: int = 20
    n_test_scenes: int = 20
    seed: int = 0

    def validate(self):
        """Raise ValueError naming every field whose value is out of range."""
        bad = [name for name, ok in (
            ("c_seen", self.c_seen >= 1), ("c_unseen", self.c_unseen >= 0),
            # _place_means draws norms from U[delta, 2 delta]: 2 delta is finite
            ("d", self.d >= 1), ("delta", 0 < 2.0 * self.delta < math.inf),
            ("sigma_f", self.sigma_f > 0),
            ("objects_per_scene", self.objects_per_scene >= 0),
            ("box_jitter", self.box_jitter >= 0),
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
    class_means: np.ndarray     # (c_seen + c_unseen, d); class id c is row c - 1
    train_scenes: list
    test_scenes: list
    support_seen: dict          # class_id -> (shots, d) array
    support_unseen: dict

    @property
    def seen_ids(self):
        return list(range(1, self.config.c_seen + 1))

    @property
    def unknown_id(self):
        """The open-set id of the composed unknown prototype: the largest
        seen or unseen id, plus 1."""
        return self.config.c_seen + self.config.c_unseen + 1


def _place_means(rng, n_seen, n_unseen, d, delta, max_tries=10000):
    """Rejection-sample class means, all pairwise >= delta apart, as a
    (n_seen + n_unseen, d) array; seen means first.

    Each try draws a direction and a radius. Seen means sit at norm in
    [delta, 2*delta] (background clusters at the origin, so "none of
    the above" stays geometrically meaningful). Unseen means are
    placed at distance [delta/2, delta] from the centroid of the seen
    means: novel classes share the seen feature manifold rather than
    pointing in fresh random directions, which is what makes a
    composed unknown prototype informative at all. Seen and unseen
    tries share one budget of max_tries; RuntimeError past it.
    """
    means = []
    tries = 0
    while len(means) < n_seen + n_unseen:
        tries += 1
        if tries > max_tries:
            raise RuntimeError("could not place class means at separation delta")
        v = rng.normal(size=d)
        if len(means) < n_seen:
            mu = v / np.linalg.norm(v) * rng.uniform(delta, 2.0 * delta)
        else:
            centroid = np.mean(means[:n_seen], axis=0)
            mu = centroid + v * (rng.uniform(0.5 * delta, delta) / np.linalg.norm(v))
        if all(np.linalg.norm(mu - m) >= delta for m in means):
            means.append(mu)
    return np.array(means)


def _draw_split(rng, cfg, class_pool, means, n_scenes):
    """S = n_scenes scenes of k objects, whose classes come from
    class_pool, and n proposals. Each quantity is one draw for the whole
    split, in this order: class ids (S, k), boxes (S, n, 4), GT jitter
    (S, k, 4), features (S, n, d).
    The first k boxes of a scene are its GT boxes; their proposals are
    the GT boxes jittered, except where jitter would make a box
    degenerate, and their features are class mean + noise * sigma_f."""
    k, n = cfg.objects_per_scene, cfg.proposals_per_scene
    labels = np.asarray(class_pool, dtype=np.int64)[
        rng.integers(len(class_pool), size=(n_scenes, k))]
    # numpy's uniform formula, low + (high - low) * u, on one block of u
    # (u_w, u_h, u_x, u_y) rows, which become (x1, y1, x2, y2) in place
    proposals = rng.random((n_scenes, n, 4))
    lo, hi = BOX_SIZES
    wh = lo + (hi - lo) * proposals[..., :2]
    proposals[..., :2] = (SCENE_SIZE - wh) * proposals[..., 2:]
    proposals[..., 2:] = proposals[..., :2] + wh
    gt = proposals[:, :k].copy()
    # drawn whatever box_jitter is, so every jitter leaves the same stream
    moved = gt + rng.uniform(-1.0, 1.0, size=(n_scenes, k, 4)) * cfg.box_jitter
    ok = (moved[..., 2] > moved[..., 0]) & (moved[..., 3] > moved[..., 1])
    proposals[:, :k] = np.where(ok[..., None], moved, gt)
    features = rng.normal(size=(n_scenes, n, cfg.d))
    features[:, :k] = means[labels - 1] + features[:, :k] * cfg.sigma_f
    return [Scene(*parts) for parts in zip(proposals, features, gt, labels)]


def generate_world(cfg):
    """Build class means, support sets, and train/test scenes from (cfg, seed),
    in that order. Training scenes hold seen classes only, test scenes
    seen and unseen."""
    cfg.validate()
    rng = make_rng(cfg.seed)
    n_total = cfg.c_seen + cfg.c_unseen
    means = _place_means(rng, cfg.c_seen, cfg.c_unseen, cfg.d, cfg.delta)
    # every class's shots rows in one draw; class id c is row c - 1
    support = means[:, None] + rng.normal(size=(n_total, cfg.shots, cfg.d)) * cfg.sigma_f
    seen = list(range(1, cfg.c_seen + 1))
    unseen = list(range(cfg.c_seen + 1, n_total + 1))
    train_scenes = _draw_split(rng, cfg, seen, means, cfg.n_train_scenes)
    test_scenes = _draw_split(rng, cfg, seen + unseen, means, cfg.n_test_scenes)
    return World(cfg, means, train_scenes, test_scenes,
                 {c: support[c - 1] for c in seen}, {c: support[c - 1] for c in unseen})


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
    """Per-proposal training labels (P,): the class of the best-overlapping
    GT box at IoU >= 0.5, background (0) below 0.3, IGNORE in between.
    The best GT box is the first one of maximal IoU."""
    ious = iou(scene.proposals, scene.gt)
    labels = np.where(ious.max(axis=1, initial=0.0) < BACKGROUND_IOU, 0, IGNORE)
    if ious.shape[1]:
        best = np.argmax(ious, axis=1)
        fg = ious[np.arange(len(best)), best] >= 0.5
        labels[fg] = scene.labels[best[fg]]
    return labels


# --- dataset files -------------------------------------------------------------
#
# A v2 file is an uncompressed .npz archive with these entries:
#   format, config            0-d strings: the format tag, the WorldConfig as JSON
#   class_means               (c_seen + c_unseen, d)
#   <split>_proposals         (sum P, 4)  every scene's proposal boxes, in scene order
#   <split>_features          (sum P, d)
#   <split>_proposal_offsets  (scenes + 1,)  scene s owns rows [o[s], o[s+1])
#   <split>_gt, <split>_labels, <split>_gt_offsets   the same for GT boxes
#   <support>, <support>_ids, <support>_offsets      rows, class ids, per-class offsets
# for split in train, test and support in support_seen, support_unseen.

FORMAT = "protodetect-dataset-v2"
_SPLITS = ("train", "test")
_SUPPORTS = ("support_seen", "support_unseen")


def _stacked(parts, empty):
    return np.concatenate(parts) if parts else empty


def _offsets(counts):
    return np.cumsum([0] + list(counts), dtype=np.int64)


def _world_entries(world):
    d = world.config.d
    out = {"format": np.array(FORMAT),
           "config": np.array(json.dumps(asdict(world.config), sort_keys=True)),
           "class_means": world.class_means}
    for split, scenes in zip(_SPLITS, (world.train_scenes, world.test_scenes)):
        out[split + "_proposals"] = _stacked([s.proposals for s in scenes], np.empty((0, 4)))
        out[split + "_features"] = _stacked([s.features for s in scenes], np.empty((0, d)))
        out[split + "_proposal_offsets"] = _offsets(len(s.proposals) for s in scenes)
        out[split + "_gt"] = _stacked([s.gt for s in scenes], np.empty((0, 4)))
        out[split + "_labels"] = _stacked([s.labels for s in scenes],
                                          np.empty(0, dtype=np.int64))
        out[split + "_gt_offsets"] = _offsets(len(s.gt) for s in scenes)
    for name, support in zip(_SUPPORTS, (world.support_seen, world.support_unseen)):
        ids = sorted(support)
        out[name] = _stacked([support[c] for c in ids], np.empty((0, d)))
        out[name + "_ids"] = np.array(ids, dtype=np.int64)
        out[name + "_offsets"] = _offsets(len(support[c]) for c in ids)
    return out


def _float_rows(entry, name, width):
    a = entry(name)
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[1] != width:
        raise ValueError(f"{name}: {a.dtype} array of shape {a.shape}, "
                         f"expected float64 rows of width {width}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name}: non-finite values")
    return a


def _boxes(entry, name):
    a = _float_rows(entry, name, 4)
    if not ((a[:, 2] > a[:, 0]) & (a[:, 3] > a[:, 1])).all():
        raise ValueError(f"{name}: degenerate box")
    return a


def _ints(entry, name):
    a = entry(name)
    if a.dtype.kind not in "iu" or a.ndim != 1:
        raise ValueError(f"{name}: {a.dtype} array of shape {a.shape}, expected 1-d integers")
    return a.astype(np.int64, copy=False)


def _bounds(entry, name, n_rows):
    """Offsets as (start, end) pairs, one per segment of n_rows rows."""
    o = _ints(entry, name)
    if len(o) < 1 or o[0] != 0 or o[-1] != n_rows or (np.diff(o) < 0).any():
        raise ValueError(f"{name}: offsets do not cover {n_rows} rows")
    o = o.tolist()
    return list(zip(o[:-1], o[1:]))


def _world_from_entries(entry):
    """Check the entries of a dataset (entry(name) -> array) and build
    its World; ValueError on anything malformed."""
    tag, text = entry("format"), entry("config")
    if tag.shape != () or str(tag) != FORMAT:
        raise ValueError("not a protodetect dataset")
    if text.dtype.kind != "U" or text.shape != ():
        raise ValueError("config entry is not a string")
    doc = json.loads(str(text))
    if not isinstance(doc, dict):
        raise ValueError("config must be an object")
    cfg = build_dataclass(WorldConfig, doc, "config")
    cfg.validate()
    d = cfg.d
    means = _float_rows(entry, "class_means", d)
    n_classes = cfg.c_seen + cfg.c_unseen
    if len(means) != n_classes:
        raise ValueError(f"class_means: {len(means)} rows for {n_classes} classes")
    splits = []
    for split in _SPLITS:
        P = _boxes(entry, split + "_proposals")
        F = _float_rows(entry, split + "_features", d)
        G = _boxes(entry, split + "_gt")
        L = _ints(entry, split + "_labels")
        if len(F) != len(P) or len(L) != len(G):
            raise ValueError(f"{split}: boxes and their features or labels differ in count")
        if ((L < 1) | (L > n_classes)).any():
            raise ValueError(f"{split}_labels: a class id outside 1..{n_classes}")
        props = _bounds(entry, split + "_proposal_offsets", len(P))
        gts = _bounds(entry, split + "_gt_offsets", len(G))
        if len(props) != len(gts):
            raise ValueError(f"{split}: proposal and GT offsets differ in scene count")
        splits.append([Scene(P[a:b], F[a:b], G[c:e], L[c:e])
                       for (a, b), (c, e) in zip(props, gts)])
    supports = []
    # the ids generate_world gives: seen 1..c_seen, then the unseen ones
    all_ids = list(range(1, n_classes + 1))
    for name, expected in zip(_SUPPORTS, (all_ids[:cfg.c_seen], all_ids[cfg.c_seen:])):
        rows = _float_rows(entry, name, d)
        ids = _ints(entry, name + "_ids").tolist()
        bounds = _bounds(entry, name + "_offsets", len(rows))
        if len(bounds) != len(ids):
            raise ValueError(f"{name}: class ids do not match the offsets")
        if any(a == b for a, b in bounds):
            raise ValueError(f"{name}: a class has no support rows")
        if name == "support_seen" and not ids:
            raise ValueError("dataset has no seen support classes")
        if ids != expected:
            raise ValueError(f"{name}: class ids {ids}, expected {expected}")
        supports.append({c: rows[a:b] for c, (a, b) in zip(ids, bounds)})
    return World(cfg, means, *splits, *supports)


def save_world(path, world):
    """Write the world to `path` as a v2 archive (`archive.save_archive`,
    so at exactly `path`, with stable bytes). ValueError, before anything
    is written, on a world that `load_world` would refuse."""
    entries = _world_entries(world)
    _world_from_entries(entries.__getitem__)
    save_archive(path, entries)


def load_world(path):
    """Read a v2 archive; ValueError on a malformed or corrupt file, or
    on one that is not an archive."""
    return load_archive(path, "dataset", _world_from_entries)
