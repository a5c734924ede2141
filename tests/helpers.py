"""Shared by the tests: the scalar IoU oracle, builders of columnar scenes
and detections from per-box tuples, and a writer of the v1 JSON dataset
format, which protodetect still reads but no longer writes."""

import json
from dataclasses import asdict

import numpy as np

from protodetect.inference import Detections
from protodetect.simulator import Scene


def scalar_iou(a, b):
    """IoU of two (x1, y1, x2, y2) boxes, one scalar operation at a time."""
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def boxes(rows):
    """(n, 4) float64 array of box rows."""
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def make_scene(gt=(), proposals=(), d=1):
    """Scene from [(box, class_id)] and [(box, feature)] pairs; d is the
    feature width of a scene without proposals."""
    feats = [np.asarray(f, dtype=np.float64) for _, f in proposals]
    return Scene(proposals=boxes([b for b, _ in proposals]),
                 features=np.stack(feats) if feats else np.empty((0, d)),
                 gt=boxes([b for b, _ in gt]),
                 labels=np.array([c for _, c in gt], dtype=np.int64))


def make_detections(triples):
    """Detections from [(box, class_id, score)]."""
    return Detections(boxes([b for b, _, _ in triples]),
                      np.array([c for _, c, _ in triples], dtype=np.int64),
                      np.array([s for _, _, s in triples], dtype=np.float64))


def world_to_v1(world):
    """The protodetect-dataset-v1 JSON document of a world."""
    cfg = asdict(world.config)
    cfg["box_size_range"] = list(cfg["box_size_range"])

    def scene(s):
        return {"gt": [{"box": b, "label": c}
                       for b, c in zip(s.gt.tolist(), s.labels.tolist())],
                "proposals": [{"box": b, "feature": f}
                              for b, f in zip(s.proposals.tolist(), s.features.tolist())]}

    return {
        "format": "protodetect-dataset-v1",
        "config": cfg,
        "class_models": [{"class_id": c, "mean": m.tolist(),
                          "sigma_f": world.config.sigma_f,
                          "box_size_range": cfg["box_size_range"]}
                         for c, m in enumerate(world.class_means, start=1)],
        "train_scenes": [scene(s) for s in world.train_scenes],
        "test_scenes": [scene(s) for s in world.test_scenes],
        "support_seen": {str(c): v.tolist() for c, v in sorted(world.support_seen.items())},
        "support_unseen": {str(c): v.tolist() for c, v in sorted(world.support_unseen.items())},
    }


def write_v1(path, doc):
    """Write a v1 document (world_to_v1, possibly mutated) as JSON."""
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)
    return str(path)


def assert_worlds_equal(a, b):
    """Same config and bit-equal arrays, scene by scene."""
    assert a.config == b.config
    assert np.array_equal(a.class_means, b.class_means)
    for sa, sb in zip(a.train_scenes + a.test_scenes, b.train_scenes + b.test_scenes):
        for name in ("proposals", "features", "gt", "labels"):
            x, y = getattr(sa, name), getattr(sb, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert len(a.train_scenes) == len(b.train_scenes)
    assert len(a.test_scenes) == len(b.test_scenes)
    for sa, sb in ((a.support_seen, b.support_seen), (a.support_unseen, b.support_unseen)):
        assert sorted(sa) == sorted(sb)
        assert all(np.array_equal(sa[c], sb[c]) for c in sa)
