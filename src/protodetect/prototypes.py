"""Class / background / unknown prototypes and energy-based posteriors.

A prototype is the mean embedding of a class's support examples.
Posteriors over a bank are a softmax over negative squared Euclidean
distances (the energy), so the argmax class is always the nearest
prototype, ties broken toward the lowest class id.
"""

import json

import numpy as np

from .numeric import softmax, sq_distances
from .simulator import iou

BACKGROUND_ID = 0


class SupportSet:
    """Per-class raw feature vectors: {class_id: (n, d) array}."""

    def __init__(self, features_by_class):
        self.by_class = {}
        dims = set()
        for cid, feats in features_by_class.items():
            arr = np.asarray(feats, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[0] < 1:
                raise ValueError(f"class {cid} has no support")
            self.by_class[int(cid)] = arr
            dims.add(arr.shape[1])
        if len(dims) > 1:
            raise ValueError("support feature dims differ across classes")

    @property
    def class_ids(self):
        return sorted(self.by_class)

    @property
    def feature_dim(self):
        return next(iter(self.by_class.values())).shape[1]

    def shots(self, cid):
        return self.by_class[cid].shape[0]

    def rows(self):
        """(every support row class-major in class_ids order, shots per class)."""
        ids = self.class_ids
        return (np.concatenate([self.by_class[c] for c in ids]),
                [self.shots(c) for c in ids])


class PrototypeBank:
    """Ordered (class_id, prototype) pairs, ascending by id.

    Holds class prototypes 1..C, optionally the background prototype
    (id 0) and a composed unknown prototype under a caller-chosen
    reserved id.
    """

    def __init__(self, entries):
        entries = sorted(((int(c), np.asarray(p, dtype=np.float64)) for c, p in entries),
                         key=lambda e: e[0])
        ids = [c for c, _ in entries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate class id in bank")
        if not entries:
            raise ValueError("empty bank")
        dims = {p.shape for _, p in entries}
        if len(dims) > 1:
            raise ValueError("prototype dims differ")
        self.ids = ids
        self.P = np.stack([p for _, p in entries])

    def __len__(self):
        return len(self.ids)

    @property
    def emb_dim(self):
        return self.P.shape[1]

    def index_of(self, cid):
        return self.ids.index(int(cid))

    def get(self, cid):
        return self.P[self.index_of(cid)]

    def has(self, cid):
        return int(cid) in self.ids

    def with_entry(self, cid, p):
        entries = list(zip(self.ids, self.P)) + [(cid, p)]
        return PrototypeBank(entries)

    def to_dict(self):
        return {"class_ids": self.ids, "prototypes": self.P.tolist()}

    @classmethod
    def from_dict(cls, doc):
        return cls(zip(doc["class_ids"], doc["prototypes"]))

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, sort_keys=True)

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls.from_dict(json.load(f))


def segment_means(E, counts):
    """Mean of each consecutive block of rows of E; block k has counts[k] rows."""
    ends = np.cumsum(counts)
    return [E[end - n:end].mean(axis=0) for n, end in zip(counts, ends)]


def build_prototypes(net, support):
    """Bank of class prototypes (no background) through the current net:
    one forward over every support row, then one mean per class."""
    X, counts = support.rows()
    emb, _ = net.forward_batch(X)
    return PrototypeBank(zip(support.class_ids, segment_means(emb, counts)))


def background_pool(proposals, gt_boxes, threshold=0.3):
    """Features of proposals whose max IoU to any GT is below threshold."""
    pool = []
    for box, feat in proposals:
        best = max((iou(box, g) for g in gt_boxes), default=0.0)
        if best < threshold:
            pool.append(feat)
    return pool


def build_background_prototype(net, proposals, gt_boxes, threshold=0.3):
    """Mean embedding over low-overlap (IoU < threshold) proposals.

    Raises ValueError when no proposal qualifies; the trainer falls
    back to its most recent background prototype in that case.
    """
    pool = background_pool(proposals, gt_boxes, threshold)
    if not pool:
        raise ValueError("no background pool")
    emb, cache = net.forward_batch(np.asarray(pool, dtype=np.float64))
    return emb.mean(axis=0), cache


def compose_unknown_prototype(bank, include_background=True):
    """Average of the class prototypes, plus p_0 when the flag is set."""
    ids = [c for c in bank.ids if c != BACKGROUND_ID]
    if include_background and bank.has(BACKGROUND_ID):
        ids = [BACKGROUND_ID] + ids
    if not ids:
        raise ValueError("no prototypes to compose")
    return np.mean([bank.get(c) for c in ids], axis=0)


def posteriors(q, bank):
    """P(class j | q) = softmax over negative squared distances.

    Output follows the bank's id order.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (bank.emb_dim,):
        raise ValueError("embedding dim mismatch")
    d = sq_distances(q[None, :], bank.P)[0]
    return softmax(-d)


def posteriors_batch(Q, bank):
    return softmax(-sq_distances(Q, bank.P), axis=1)


def nearest_prototype(q, bank):
    """(class_id, distances) of the nearest prototype, lowest id on ties."""
    d = sq_distances(np.asarray(q, dtype=np.float64)[None, :], bank.P)[0]
    # ids are sorted ascending, argmin returns the first minimum
    return bank.ids[int(np.argmin(d))], d
