"""Trainable embedding MLP and shallow linear classifier.

Forward and backward passes are written out by hand (no autodiff).
The net maps raw proposal features (dim d) to embeddings (dim e)
through ReLU hidden layers; depth is configurable (2/3/4 linear
layers, default 2). The classifier produces C+1 logits, index 0
being the background class. The parameters of both are views into
one contiguous vector: `model_views` builds every (net, classifier)
pair, drawn (`default_net_and_classifier`) or loaded.

Both run in the dtype of their parameters, float32 or float64 (any
other input becomes float64), and cast their inputs to it: training
binds float32 parameters, the gradient audit float64 ones. Forward
passes also take stacked parameters (W (B, out, in), b (B, out), one
probe per row, `model_views`) and give stacked outputs; backward does not.

A checkpoint (format protodetect-checkpoint-v2) is one uncompressed
.npz archive holding that vector, the (out, in) shape of every W, the
background prototype p0 that training put in its final bank, both in
the parameters' dtype, and a JSON provenance string, so eval needs
nothing else from training.
"""

import json

import numpy as np

from .archive import load_archive, save_archive
from .numeric import make_rng


DTYPES = (np.float32, np.float64)


def _float(a):
    """a as a float32 array if it is one, otherwise as float64."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else np.asarray(a, dtype=np.float64)


class EmbeddingNet:
    """MLP with `depth` linear layers and ReLU between them.

    layers[i] is a (W, b) pair; W has shape (out, in), and every array
    has one dtype. The last layer is linear (no ReLU after it). ReLU
    derivative at exactly 0 is 0.
    """

    def __init__(self, layers):
        self.layers = [(_float(W), _float(b)) for W, b in layers]
        if not self.layers:
            raise ValueError("net has no layers")
        for W, b in self.layers:
            if W.ndim < 2 or W.shape[:-1] != b.shape:
                raise ValueError("inconsistent layer shapes")
        if len({a.dtype for pair in self.layers for a in pair}) > 1:
            raise ValueError("layers must share one dtype")
        for (W1, _), (W2, _) in zip(self.layers, self.layers[1:]):
            if W2.shape[-1] != W1.shape[-2]:
                raise ValueError("layer dims do not chain")

    @property
    def in_dim(self):
        return self.layers[0][0].shape[-1]

    @property
    def out_dim(self):
        return self.layers[-1][0].shape[-2]

    @property
    def dtype(self):
        return self.layers[0][0].dtype

    def forward_batch(self, X):
        """Embed rows of X (N, d) -> (Q (..., N, e), cache for backward)."""
        X = np.asarray(X, dtype=self.dtype)
        if X.ndim != 2 or X.shape[1] != self.in_dim:
            raise ValueError(f"expected (N, {self.in_dim}) input, got {X.shape}")
        acts = [X]
        h = X
        for i, (W, b) in enumerate(self.layers):
            # bias and relu in place: no temporary beyond the product
            h = h @ W.swapaxes(-1, -2)
            h += b[..., None, :]
            if i < len(self.layers) - 1:
                np.maximum(h, 0.0, out=h)
                acts.append(h)
        return h, acts

    def backward_batch(self, cache, dQ, out=None):
        """Backprop dQ (N, e) through a cached forward.

        Returns the layer grads [(dW, db), ...], written into the arrays
        of `out` when it is given (the net's views of a gradient vector,
        `param_vector`); the input gradient is never formed. dQ is cast
        to the net's dtype, and entries whose magnitude is below the
        square root of its smallest normal number (1.1e-19 in float32,
        1.5e-154 in float64) become 0. A product of two numbers that
        large is a normal number, so the hidden gradients `dQ @ W` keep
        out of the subnormal range too, for any weight above that bound.
        Subnormal operands slow float32 matrix products several-fold,
        and entries this small move no gradient entry that matters.
        """
        acts = cache
        dQ = np.array(dQ, dtype=self.dtype)
        if dQ.shape != (acts[0].shape[0], self.out_dim):
            raise ValueError("gradient shape does not match cached forward")
        dQ[np.abs(dQ) < np.sqrt(np.finfo(dQ.dtype).tiny)] = 0.0
        grads = out if out is not None else [
            (np.empty_like(W), np.empty_like(b)) for W, b in self.layers]
        dh = dQ
        for i in range(len(self.layers) - 1, -1, -1):
            dW, db = grads[i]
            np.matmul(dh.T, acts[i], out=dW)
            np.sum(dh, axis=0, out=db)
            if i > 0:
                # acts[i] holds relu output of layer i-1; relu' at 0 is 0
                dh = dh @ self.layers[i][0]
                dh *= acts[i] > 0.0
        return grads


class LinearClassifier:
    """C+1 way linear head over embeddings (row 0 = background)."""

    def __init__(self, W, b):
        self.W = _float(W)
        self.b = _float(b)
        if self.W.ndim < 2 or self.b.shape != self.W.shape[:-1]:
            raise ValueError("inconsistent classifier shapes")

    @property
    def n_classes(self):
        return self.W.shape[-2]

    def logits_batch(self, Q):
        Q = np.asarray(Q, dtype=self.W.dtype)
        if Q.shape[-1] != self.W.shape[-1]:
            raise ValueError("embedding dim mismatch")
        return Q @ self.W.swapaxes(-1, -2) + self.b[..., None, :]


# --- the parameter vector ----------------------------------------------------
# Every trainable parameter lives in one contiguous vector of the training
# dtype (float32 in training, float64 in the gradient audit), in the order
# W1, b1, ..., Wk, bk (the net's layers), then the classifier's W and b,
# each row-major. Gradients use the same layout and dtype, so the optimizer
# and the gradient audit work on plain vectors.

def flatten(layers, clf_pair):
    """One vector in the parameter layout from the net's (W, b) pairs and
    the classifier's (W, b) pair (parameters or their gradients)."""
    return np.concatenate([a.ravel() for pair in (*layers, clf_pair) for a in pair])


def _views(theta, shapes):
    """The (W, b) pairs of the parameter layout, as views into theta,
    for the (out, in) shape of every W in layout order. A (B, n) stack
    of vectors gives (B, out, in) and (B, out) views."""
    pairs, at, lead = [], 0, theta.shape[:-1]
    for n_out, n_in in shapes:
        W = theta[..., at:at + n_out * n_in].reshape(*lead, n_out, n_in)
        at += n_out * n_in
        pairs.append((W, theta[..., at:at + n_out]))
        at += n_out
    return pairs


def layout(net, clf):
    """The (out, in) shape of every W in the parameter layout of (net,
    clf), in layout order; stacked parameters give the shapes of a row."""
    return [W.shape[-2:] for W, _ in (*net.layers, (clf.W, clf.b))]


def _size(shapes):
    """The number of parameters in the layout of these W shapes."""
    return sum(n_out * (n_in + 1) for n_out, n_in in shapes)


def param_vector(net, clf):
    """A new, unfilled vector in the parameter layout of (net, clf) and
    its (W, b) views, the net's layers then the classifier's pair."""
    shapes = layout(net, clf)
    theta = np.empty(_size(shapes), dtype=net.dtype)
    return theta, _views(theta, shapes)


def model_views(theta, shapes):
    """(net, clf) whose every W and b is a view into theta, one vector
    in the parameter layout of these W shapes or a (B, n) stack of them
    (stacked parameters). Every (net, clf) pair is built here."""
    *layers, (W, b) = _views(theta, shapes)
    return EmbeddingNet(layers), LinearClassifier(W, b)


# --- checkpoints -------------------------------------------------------------

FORMAT = "protodetect-checkpoint-v2"


def save_checkpoint(path, net, clf, p0, extra=None):
    """Write (net, clf), the background prototype p0 and the provenance
    `extra` to `path` as a v2 archive (`archive.save_archive`, so at
    exactly `path`, with stable bytes). theta and p0 are stored in the
    dtype of the parameters."""
    theta = flatten(net.layers, (clf.W, clf.b))
    save_archive(path, {
        "format": np.array(FORMAT),
        "shapes": np.array(layout(net, clf), dtype=np.int64),
        "theta": theta,
        "p0": np.asarray(p0, dtype=theta.dtype),
        "provenance": np.array(json.dumps(extra or {}, sort_keys=True))})


def _from_entries(entry):
    """Check the entries of a v2 archive (entry(name) -> array) and
    return (net, clf, p0); ValueError on anything malformed."""
    tag = entry("format")
    if tag.dtype.kind != "U" or tag.shape != () or str(tag) != FORMAT:
        raise ValueError("not a protodetect checkpoint")
    shapes, theta, p0, text = (entry(n) for n in ("shapes", "theta", "p0", "provenance"))
    if shapes.dtype != np.int64 or shapes.ndim != 2 or shapes.shape[1] != 2:
        raise ValueError(f"shapes: {shapes.dtype} array of shape {shapes.shape}, "
                         f"expected int64 (out, in) rows")
    if len(shapes) < 2 or (shapes < 1).any():
        raise ValueError("shapes: need a net layer and a classifier of positive sizes")
    # the classifier reads the net's output, so its row chains like a layer
    if (shapes[1:, 1] != shapes[:-1, 0]).any():
        raise ValueError("shapes: layer dims do not chain")
    for name, a in (("theta", theta), ("p0", p0)):
        if a.dtype not in DTYPES or a.ndim != 1:
            raise ValueError(f"{name}: {a.dtype} array of shape {a.shape}, "
                             f"expected a float32 or float64 vector")
        if not np.isfinite(a).all():
            raise ValueError(f"{name}: non-finite values")
    if p0.dtype != theta.dtype:
        raise ValueError(f"p0: {p0.dtype}, expected theta's {theta.dtype}")
    shapes = shapes.tolist()
    size = _size(shapes)
    if theta.size != size:
        raise ValueError(f"theta: {theta.size} values for {size} parameters")
    out_dim = shapes[-2][0]
    if p0.shape != (out_dim,):
        raise ValueError(f"p0: shape {p0.shape}, expected ({out_dim},)")
    if text.dtype.kind != "U" or text.shape != ():
        raise ValueError("provenance entry is not a string")
    return (*model_views(theta, shapes), p0)


def load_checkpoint(path):
    """Read a v2 archive as (net, clf, p0); every W and b is a view into
    the one loaded parameter vector. ValueError on a malformed or
    corrupt file, or on one that is not an archive."""
    return load_archive(path, "checkpoint", _from_entries)


def default_net_and_classifier(seed, in_dim, hidden_dim, emb_dim, n_classes, depth=2,
                               dtype=np.float64):
    """Seeded init of the (net, classifier) pair used throughout.

    Returns (net, clf, theta): theta is the one parameter vector of
    `dtype` that the net's and the classifier's arrays are views into
    (`model_views`). depth counts the net's linear layers (>= 2). Every
    W gets a Glorot-uniform draw from `make_rng(seed)`, in layout order
    (the net's layers, then the classifier); every b is 0. The draws
    are float64 whatever the dtype, cast once at the end.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    dims = [in_dim] + [hidden_dim] * (depth - 1) + [emb_dim]
    shapes = [*zip(dims[1:], dims[:-1]), (n_classes + 1, emb_dim)]
    theta = np.zeros(_size(shapes))
    rng = make_rng(seed)
    for W, _ in _views(theta, shapes):
        limit = np.sqrt(6.0 / sum(W.shape))
        W[...] = rng.uniform(-limit, limit, size=W.shape)
    theta = theta.astype(dtype, copy=False)
    return (*model_views(theta, shapes), theta)
