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
with every row of another. `label_proposals` owns the IoU bands: it
labels a scene, or a whole split in one stacked `iou`, and the
background pools and held-out accuracy read its labels.

Datasets are fully determined by (config, seed). One generator, seeded
once, draws the class means by rejection, then every support row in
one block, then each split's class ids, boxes, GT jitter and features,
one block per quantity for all of the split's scenes. A world keeps
those blocks (`Split`, and a (C, shots, d) block per support set) and
its scenes are views into them: every scene has proposals_per_scene
proposals and objects_per_scene GT boxes, as a DETR-style backbone
emits a fixed number of queries per image. Features are drawn in
float64 and kept in float32, the dtype the trained net reads them in,
as a frozen backbone hands its query features to the detection head;
supports, class means and boxes stay float64. `save_world` writes the
blocks as they are to one uncompressed .npz archive (format
protodetect-dataset-v4) whose bytes depend on the world only.
`load_world` reads the splits it is asked for and the supports, and
checks what it reads (see "dataset files" below); entries are read on
access, so eval, which asks for the test split, never reads the other.
"""

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .archive import load_archive, save_archive
from .numeric import make_rng
from .schema import build_dataclass

BACKGROUND_ID = 0  # the class id of background proposals and of the prototype p0
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
class Split:
    """S scenes as blocks, as `_draw_split` draws them and a dataset
    stores them: proposal boxes (S, P, 4), their features (S, P, d)
    float32, GT boxes (S, k, 4) and their class ids (S, k) int64.
    `scenes` holds one Scene per row, views into the blocks."""
    proposals: np.ndarray
    features: np.ndarray
    gt: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scenes = [Scene(*parts) for parts in
                       zip(self.proposals, self.features, self.gt, self.labels)]


@dataclass
class World:
    config: WorldConfig
    class_means: np.ndarray     # (c_seen + c_unseen, d); class id c is row c - 1
    train: Split                # None in a world loaded without it
    test: Split
    seen: np.ndarray            # (c_seen, shots, d); class id c is row c - 1
    unseen: np.ndarray          # (c_unseen, shots, d); class id c is row c - c_seen - 1

    @property
    def support_seen(self):
        """{class id: (shots, d) rows}, views into `seen`."""
        return dict(enumerate(self.seen, 1))

    @property
    def support_unseen(self):
        return dict(enumerate(self.unseen, self.config.c_seen + 1))

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
    degenerate, and their features are class mean + noise * sigma_f.
    Features are computed in float64 and kept in float32, rounded once
    here; `generate_world` runs this under np.errstate(over="raise"), so
    a value beyond float32's range raises FloatingPointError."""
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
    return Split(proposals, features.astype(np.float32), gt, labels)


def generate_world(cfg):
    """Build class means, support sets, and train/test scenes from (cfg, seed),
    in that order. Training scenes hold seen classes only, test scenes
    seen and unseen.

    ValueError, without numpy's warnings, when a delta or sigma_f that
    `WorldConfig.validate` accepts puts features beyond float32's range:
    when their float32 cast overflows, or a float64 draw on the way to
    them does (from delta about 1e154 on, the norms of `_place_means`)."""
    cfg.validate()
    rng = make_rng(cfg.seed)
    n_total = cfg.c_seen + cfg.c_unseen
    try:
        with np.errstate(over="raise"):
            means = _place_means(rng, cfg.c_seen, cfg.c_unseen, cfg.d, cfg.delta)
            # every class's shots rows in one draw; class id c is row c - 1
            support = (means[:, None]
                       + rng.normal(size=(n_total, cfg.shots, cfg.d)) * cfg.sigma_f)
            seen = list(range(1, cfg.c_seen + 1))
            train = _draw_split(rng, cfg, seen, means, cfg.n_train_scenes)
            test = _draw_split(rng, cfg, list(range(1, n_total + 1)), means,
                               cfg.n_test_scenes)
    except FloatingPointError as e:
        raise ValueError(f"proposal features beyond float32's range, the dtype a "
                         f"dataset stores them in ({e}): lower world.delta or "
                         "world.sigma_f") from None
    return World(cfg, means, train, test, support[:cfg.c_seen], support[cfg.c_seen:])


def augment_feature(rng, v, strength, sigma_f=1.0):
    """Feature-space stand-in for photometric/geometric augmentation.

    Row by row, v' = R (gamma * v) + eps with gamma ~ U[1-s, 1+s], R a
    rotation by angle theta ~ U[-s*pi/8, s*pi/8] in the plane of two
    distinct random coordinates, eps ~ N(0, (s*sigma_f)^2), for each
    row of the (n, d) float64 matrix v. Each row gets its own draws,
    and every quantity is drawn once for the whole batch, in this
    order: gamma (n), the first coordinate (n), the offset of the
    second from the first (n, in 1..d-1), theta (n), the noise (n, d).
    strength 0 is the identity.
    """
    if strength < 0:
        raise ValueError("strength must be >= 0")
    n, d = v.shape
    gamma = rng.uniform(1.0 - strength, 1.0 + strength, size=n)
    out = gamma[:, None] * v
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
    return out


def label_proposals(scene):
    """Training labels of a Scene's proposals (P,) or a Split's (S, P),
    from one `iou` call: the class of the best-overlapping GT box (the
    first of maximal IoU) at IoU >= 0.5, BACKGROUND_ID below
    BACKGROUND_IOU, IGNORE in between."""
    ious = iou(scene.proposals, scene.gt)
    background = ious.max(axis=-1, initial=0.0) < BACKGROUND_IOU
    labels = np.where(background, BACKGROUND_ID, IGNORE)
    if ious.shape[-1]:
        best = np.argmax(ious, axis=-1)
        fg = np.take_along_axis(ious, best[..., None], axis=-1)[..., 0] >= 0.5
        labels = np.where(fg, np.take_along_axis(scene.labels, best, axis=-1), labels)
    return labels


# --- dataset files -------------------------------------------------------------
#
# A v4 file is an uncompressed .npz archive of 13 entries; S is the split's
# scene count, P, k, d, shots, c_seen and c_unseen those of the stored config:
#   format, config                 0-d strings: the format tag, the WorldConfig as JSON
#   class_means                    (c_seen + c_unseen, d)
#   <split>_proposals, _features   (S, P, 4), (S, P, d) float32   scene s is row s
#   <split>_gt, _labels            (S, k, 4), (S, k) int64
#   support_seen, support_unseen   (c_seen, shots, d), (c_unseen, shots, d)
# for split in train, test; the features are float32, the labels int64 and
# every other array entry float64.
# The loader checks the stored config as the run config is checked, then
# each entry's dtype and exact shape (so each split holds its configured
# scene count, at least 1), finite values, non-degenerate boxes and GT
# labels in 1..c_seen + c_unseen. eval reads the 9 that are not train_*.

FORMAT = "protodetect-dataset-v4"
# v2: ragged rows with per-scene offsets; v3: the v4 layout, float64 features
RETIRED_FORMATS = ("protodetect-dataset-v2", "protodetect-dataset-v3")
SPLITS = ("train", "test")
_BLOCKS = ("proposals", "features", "gt", "labels")


def _world_entries(world):
    out = {"format": np.array(FORMAT),
           "config": np.array(json.dumps(asdict(world.config), sort_keys=True)),
           "class_means": world.class_means,
           "support_seen": world.seen, "support_unseen": world.unseen}
    for split in SPLITS:
        for name in _BLOCKS:
            out[f"{split}_{name}"] = getattr(getattr(world, split), name)
    return out


def _block(entry, name, shape, dtype=np.float64):
    """Entry `name`, checked: its dtype, its exact shape and, for a float
    entry, finite values."""
    a = entry(name)
    if a.dtype != dtype or a.shape != shape:
        raise ValueError(f"{name}: {a.dtype} array of shape {a.shape}, "
                         f"expected {np.dtype(dtype)} of shape {shape}")
    if a.dtype.kind == "f" and not np.isfinite(a).all():
        raise ValueError(f"{name}: non-finite values")
    return a


def _boxes(entry, name, shape):
    a = _block(entry, name, shape + (4,))
    if not ((a[..., 2] > a[..., 0]) & (a[..., 3] > a[..., 1])).all():
        raise ValueError(f"{name}: degenerate box")
    return a


def _world_from_entries(entry, splits):
    """Check the entries of a dataset (entry(name) -> array) that the
    given splits and the supports need, and build its World, without
    the splits not asked for; ValueError on anything malformed."""
    tag, text = entry("format"), entry("config")
    if tag.shape == () and str(tag) in RETIRED_FORMATS:
        raise ValueError(f"format {tag} is no longer read: rerun gen-data "
                         "with the config and seed that made the dataset")
    if tag.shape != () or str(tag) != FORMAT:
        raise ValueError("not a protodetect dataset")
    if text.dtype.kind != "U" or text.shape != ():
        raise ValueError("config entry is not a string")
    doc = json.loads(str(text))
    if not isinstance(doc, dict):
        raise ValueError("config must be an object")
    cfg = build_dataclass(WorldConfig, doc, "config")
    cfg.validate()
    d, k, P = cfg.d, cfg.objects_per_scene, cfg.proposals_per_scene
    n_classes = cfg.c_seen + cfg.c_unseen
    means = _block(entry, "class_means", (n_classes, d))
    blocks = dict.fromkeys(SPLITS)
    for split in splits:
        S = getattr(cfg, f"n_{split}_scenes")
        labels = _block(entry, split + "_labels", (S, k), np.int64)
        if ((labels < 1) | (labels > n_classes)).any():
            raise ValueError(f"{split}_labels: a class id outside 1..{n_classes}")
        blocks[split] = Split(_boxes(entry, split + "_proposals", (S, P)),
                              _block(entry, split + "_features", (S, P, d), np.float32),
                              _boxes(entry, split + "_gt", (S, k)), labels)
    return World(cfg, means, blocks["train"], blocks["test"],
                 _block(entry, "support_seen", (cfg.c_seen, cfg.shots, d)),
                 _block(entry, "support_unseen", (cfg.c_unseen, cfg.shots, d)))


def save_world(path, world):
    """Write the world's blocks to `path` as a v4 archive
    (`archive.save_archive`, so at exactly `path`, with stable bytes).
    ValueError, before anything is written, on a world that `load_world`
    would refuse."""
    entries = _world_entries(world)
    _world_from_entries(entries.__getitem__, SPLITS)
    save_archive(path, entries)


def load_world(path, splits=SPLITS):
    """Read the given splits and the supports of a v4 archive; the other
    split is None and its entries are never read. ValueError on a
    malformed or corrupt file, on one of a retired format (v2, v3), or
    on one that is not an archive."""
    return load_archive(path, "dataset", lambda entry: _world_from_entries(entry, splits))
