"""Trainable embedding MLP and shallow linear classifier.

Forward and backward passes are written out by hand (no autodiff).
The net maps raw proposal features (dim d) to embeddings (dim e)
through ReLU hidden layers; depth is configurable (2/3/4 linear
layers, default 2). The classifier produces C+1 logits, index 0
being the background class. For training, the parameters of both
live in one contiguous vector (`bind_params`); checkpoints keep the
per-layer v1 JSON format.
"""

import json

import numpy as np

from .numeric import make_rng


def _glorot(rng, fan_out, fan_in):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


class EmbeddingNet:
    """MLP with `depth` linear layers and ReLU between them.

    layers[i] is a (W, b) pair; W has shape (out, in). The last layer
    is linear (no ReLU after it). ReLU derivative at exactly 0 is 0.
    """

    def __init__(self, layers):
        self.layers = [(np.asarray(W, dtype=np.float64), np.asarray(b, dtype=np.float64))
                       for W, b in layers]
        for W, b in self.layers:
            if W.ndim != 2 or b.ndim != 1 or W.shape[0] != b.shape[0]:
                raise ValueError("inconsistent layer shapes")
        for (W1, _), (W2, _) in zip(self.layers, self.layers[1:]):
            if W2.shape[1] != W1.shape[0]:
                raise ValueError("layer dims do not chain")

    @property
    def in_dim(self):
        return self.layers[0][0].shape[1]

    @property
    def out_dim(self):
        return self.layers[-1][0].shape[0]

    @property
    def depth(self):
        return len(self.layers)

    @classmethod
    def init(cls, rng, in_dim, hidden_dim=512, out_dim=128, depth=2):
        """Glorot-uniform init; depth counts linear layers (>= 2)."""
        if depth < 2:
            raise ValueError("depth must be >= 2")
        dims = [in_dim] + [hidden_dim] * (depth - 1) + [out_dim]
        layers = []
        for i in range(depth):
            layers.append((_glorot(rng, dims[i + 1], dims[i]),
                           np.zeros(dims[i + 1])))
        return cls(layers)

    def forward_batch(self, X):
        """Embed rows of X (N, d) -> (Q (N, e), cache for backward)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.in_dim:
            raise ValueError(f"expected (N, {self.in_dim}) input, got {X.shape}")
        acts = [X]
        h = X
        for i, (W, b) in enumerate(self.layers):
            z = h @ W.T + b
            if i < len(self.layers) - 1:
                h = np.maximum(z, 0.0)
                acts.append(h)
            else:
                h = z
        return h, acts

    def backward_batch(self, cache, dQ):
        """Backprop dQ (N, e) through a cached forward.

        Returns (layer grads [(dW, db), ...], dX (N, d)).
        """
        acts = cache
        dQ = np.asarray(dQ, dtype=np.float64)
        if dQ.shape != (acts[0].shape[0], self.out_dim):
            raise ValueError("gradient shape does not match cached forward")
        grads = [None] * len(self.layers)
        dh = dQ
        for i in range(len(self.layers) - 1, -1, -1):
            W, _ = self.layers[i]
            a_in = acts[i]
            grads[i] = (dh.T @ a_in, dh.sum(axis=0))
            dh = dh @ W
            if i > 0:
                # acts[i] holds relu output of layer i-1; relu' at 0 is 0
                dh = dh * (acts[i] > 0.0)
        return grads, dh

    def forward(self, v):
        """Single-vector convenience wrapper: returns (q, cache)."""
        q, cache = self.forward_batch(np.asarray(v, dtype=np.float64)[None, :])
        return q[0], cache

    def backward(self, cache, dq):
        grads, dX = self.backward_batch(cache, np.asarray(dq, dtype=np.float64)[None, :])
        return grads, dX[0]



class LinearClassifier:
    """C+1 way linear head over embeddings (row 0 = background)."""

    def __init__(self, W, b):
        self.W = np.asarray(W, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ValueError("inconsistent classifier shapes")

    @property
    def n_classes(self):
        return self.W.shape[0]

    @classmethod
    def init(cls, rng, n_classes, emb_dim):
        return cls(_glorot(rng, n_classes, emb_dim), np.zeros(n_classes))

    def logits_batch(self, Q):
        Q = np.asarray(Q, dtype=np.float64)
        if Q.shape[1] != self.W.shape[1]:
            raise ValueError("embedding dim mismatch")
        return Q @ self.W.T + self.b

    def logits(self, q):
        return self.logits_batch(np.asarray(q, dtype=np.float64)[None, :])[0]



# --- the parameter vector ----------------------------------------------------
# Every trainable parameter lives in one contiguous float64 vector, in the
# order W1, b1, ..., Wk, bk (the net's layers), then the classifier's W and
# b, each row-major. Gradients use the same layout, so the optimizer and the
# gradient audit work on plain vectors.

def flatten(layers, clf_pair):
    """One vector in the parameter layout from the net's (W, b) pairs and
    the classifier's (W, b) pair (parameters or their gradients)."""
    return np.concatenate([a.ravel() for pair in (*layers, clf_pair) for a in pair])


def bind_params(net, clf):
    """Move the parameters of (net, clf) into one vector and return it.

    Afterwards every W and b of the net and the classifier is a view
    into the returned vector, so writing to the vector moves the model.
    """
    theta = flatten(net.layers, (clf.W, clf.b))
    views, at = [], 0
    for W, b in (*net.layers, (clf.W, clf.b)):
        for a in (W, b):
            views.append(theta[at:at + a.size].reshape(a.shape))
            at += a.size
    net.layers = list(zip(views[0:-2:2], views[1:-2:2]))
    clf.W, clf.b = views[-2:]
    return theta


# --- checkpoint serialization ------------------------------------------------
# JSON with shape metadata and flat arrays; floats use Python's shortest
# round-trip decimal repr, so load(save(x)) is bit-exact.

def checkpoint_dict(net, clf):
    return {
        "format": "protodetect-checkpoint-v1",
        "embedding_layers": [
            {"shape": list(W.shape), "W": W.ravel().tolist(), "b": b.tolist()}
            for W, b in net.layers
        ],
        "classifier": {
            "shape": list(clf.W.shape),
            "W": clf.W.ravel().tolist(),
            "b": clf.b.tolist(),
        },
    }


def checkpoint_from_dict(doc):
    if doc.get("format") != "protodetect-checkpoint-v1":
        raise ValueError("not a protodetect checkpoint")
    layers = []
    for entry in doc["embedding_layers"]:
        shape = tuple(entry["shape"])
        layers.append((np.array(entry["W"], dtype=np.float64).reshape(shape),
                       np.array(entry["b"], dtype=np.float64)))
    net = EmbeddingNet(layers)
    c = doc["classifier"]
    clf = LinearClassifier(np.array(c["W"], dtype=np.float64).reshape(tuple(c["shape"])),
                           np.array(c["b"], dtype=np.float64))
    return net, clf


def save_checkpoint(path, net, clf, extra=None):
    doc = checkpoint_dict(net, clf)
    if extra:
        doc["provenance"] = extra
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)


def load_checkpoint(path):
    with open(path) as f:
        return checkpoint_from_dict(json.load(f))


def default_net_and_classifier(seed, in_dim, hidden_dim, emb_dim, n_classes, depth=2):
    """Seeded init of the (net, classifier) pair used throughout.

    Returns (net, clf, theta): theta is the one parameter vector that
    the net's and the classifier's arrays are views into (`bind_params`).
    """
    rng = make_rng(seed)
    net = EmbeddingNet.init(rng, in_dim, hidden_dim, emb_dim, depth)
    clf = LinearClassifier.init(rng, n_classes + 1, emb_dim)
    return net, clf, bind_params(net, clf)
