"""Class / background / unknown prototypes and energy-based posteriors.

A prototype is the mean embedding of a class's support examples.
Posteriors over a bank are a softmax over negative squared Euclidean
distances (the energy), taken over the logits 2 q.p - |p|^2 of
`numeric.proto_logits`, which exceed the energy by |q|^2 alone, a
term constant along each row that cancels in the softmax;
`proto_posteriors` takes them from those logits, for inference and for
training's loss head alike.
`nearest_prototype` is the one decision: the nearest prototype of a
query is the argmax of its `posteriors_batch` row, and `np.argmax`
takes the first maximum, so ties go to the lowest id.
The background prototype p0 is the mean embedding of the proposals
that `background_pool` collects: those that `simulator.label_proposals`,
the owner of the IoU bands, labels background.
"""

import numpy as np

from .numeric import log_softmax, proto_logits
# BACKGROUND_ID is defined in simulator.py beside the other label ids;
# losses, inference, cli and the demos import it from here
from .simulator import BACKGROUND_ID


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

    def rows(self):
        """(every support row class-major in class_ids order, shots per class)."""
        rows = [self.by_class[c] for c in self.class_ids]
        return np.concatenate(rows), [len(r) for r in rows]


class PrototypeBank:
    """Ordered (class_id, prototype) pairs, ascending by id.

    Holds class prototypes 1..C, optionally the background prototype
    (id 0) and a composed unknown prototype under a caller-chosen
    reserved id. P stacks them on axis -2: (K, e), or (B, K, e).
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
        self.P = np.stack([p for _, p in entries], axis=-2)

    def __len__(self):
        return len(self.ids)

    def index_of(self, cid):
        return self.ids.index(int(cid))

    def get(self, cid):
        return self.P[self.index_of(cid)]

    def with_entry(self, cid, p):
        entries = list(zip(self.ids, self.P)) + [(cid, p)]
        return PrototypeBank(entries)


def segment_means(E, counts):
    """Mean of each consecutive block of rows of E (..., N, e); block k
    has counts[k] rows."""
    ends = np.cumsum(counts)
    return [E[..., end - n:end, :].mean(axis=-2) for n, end in zip(counts, ends)]


def build_prototypes(net, support):
    """Bank of class prototypes (no background) through the current net:
    one `EmbeddingNet.embed` of every support row, then one mean per
    class."""
    X, counts = support.rows()
    return PrototypeBank(zip(support.class_ids, segment_means(net.embed(X), counts)))


def background_pool(features, labels):
    """The rows of features (P, d) whose `simulator.label_proposals`
    label (P,) is BACKGROUND_ID."""
    return features[labels == BACKGROUND_ID]


def compose_unknown_prototype(bank):
    """The unknown prototype: the mean of every prototype in the bank,
    p0 included."""
    return bank.P.mean(axis=-2)


def proto_posteriors(Z):
    """(log P(prototype k | q), P(prototype k | q)) for each query row:
    the log-softmax of the prototype logits Z of `proto_logits`, which
    is that of -|q - p_k|^2, and its exp."""
    logp = log_softmax(Z)
    return logp, np.exp(logp)


def posteriors_batch(Q, bank):
    """P(class j | q) for every row q of Q -> (N, len(bank)), columns in
    the bank's id order: a softmax over negative squared distances.

    FloatingPointError when a logit is not finite, as it is for every
    row of a non-finite embedding.
    """
    _, Z = proto_logits(Q, bank.P)
    if not np.isfinite(Z).all():
        raise FloatingPointError("non-finite embeddings")
    return proto_posteriors(Z)[1]


def nearest_prototype(Q, bank):
    """(ids, posteriors) for the rows of Q: the id of each row's nearest
    prototype, the argmax of its `posteriors_batch` row (the lowest id
    on ties), and its posterior there. FloatingPointError as in
    `posteriors_batch`."""
    probs = posteriors_batch(Q, bank)
    best = np.argmax(probs, axis=1)
    return np.asarray(bank.ids)[best], probs[np.arange(len(best)), best]
