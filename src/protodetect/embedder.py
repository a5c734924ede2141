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
A `Workspace` holds the buffers of forward and backward passes of up to
a fixed number of rows, so a training loop that passes one allocates no
activation, hidden gradient or ReLU mask per step.

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
# rows per forward pass of `EmbeddingNet.embed`: an inference pass holds
# the hidden activations of one block of rows, whatever its row count,
# 512 KB at the default width. With 2048-row blocks (4 MB) the
# large-world eval read 3-10% slower than one forward per scene
EMBED_BLOCK_ROWS = 256
# below this magnitude `backward_batch` zeroes an entry of the embedding
# gradient: the square root of the dtype's smallest normal number
_TINY_SQRT = {np.dtype(t): np.sqrt(np.finfo(t).tiny) for t in DTYPES}


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

    def _rows(self, X):
        """X as an array, or ValueError unless it is (N, in_dim)."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.in_dim:
            raise ValueError(f"expected (N, {self.in_dim}) input, got {X.shape}")
        return X

    def forward_batch(self, X, work=None):
        """Embed rows of X (N, d) -> (Q (..., N, e), cache for backward).

        With a `Workspace` (unstacked parameters only), each layer's
        output is written into the first N rows of its buffer there, so
        the pass allocates no array; without one, each is a new array.
        """
        X = np.asarray(self._rows(X), dtype=self.dtype)
        if work is not None and work.dtype != self.dtype:
            raise ValueError(f"workspace is {work.dtype}, net is {self.dtype}")
        acts = [X]
        h = X
        for i, (W, b) in enumerate(self.layers):
            # bias and relu in place: no temporary beyond the product
            h = np.matmul(h, W.swapaxes(-1, -2),
                          out=None if work is None else work.acts[i][:len(X)])
            h += b[..., None, :]
            if i < len(self.layers) - 1:
                np.maximum(h, 0.0, out=h)
                acts.append(h)
        return h, acts

    def embed(self, X):
        """Embed rows of X (N, d) -> (N, e) for inference, unstacked
        parameters only: one `forward_batch` per block of at most
        `EMBED_BLOCK_ROWS` rows, written into one output array. Each
        block is read in the net's dtype, through a copy only when X has
        another (dataset features are float32, as a trained net is), and
        its cache goes with it, so the pass holds at most one block's
        input copy and its hidden activations.

        Blocking splits only the rows of each product; the tests check
        that every row stays bit-equal to that of one `forward_batch`
        over all of X. Blocks differ in size by one row at most: a
        product over a handful of rows can take another BLAS kernel,
        which rounds differently."""
        X = self._rows(X)
        out = np.empty((len(X), self.out_dim), dtype=self.dtype)
        n_blocks = max(1, -(-len(X) // EMBED_BLOCK_ROWS))
        ends = [i * len(X) // n_blocks for i in range(n_blocks + 1)]
        for lo, hi in zip(ends, ends[1:]):
            out[lo:hi] = self.forward_batch(X[lo:hi])[0]
        return out

    def backward_batch(self, cache, dQ, out, work):
        """Backprop dQ (N, e) through a cached forward.

        Writes the layer grads into the arrays of `out`, [(dW, db), ...]
        shaped as the layers (the net's views of a gradient vector,
        `param_vector`), and returns it; the input gradient is never
        formed. dQ is copied in the net's dtype, and entries whose
        magnitude is below the square root of its smallest normal number (1.1e-19 in float32,
        1.5e-154 in float64) become 0. A product of two numbers that
        large is a normal number, so the hidden gradients `dQ @ W` keep
        out of the subnormal range too, for any weight above that bound.
        Subnormal operands slow float32 matrix products several-fold,
        and entries this small move no gradient entry that matters.
        That copy, every hidden gradient and every ReLU mask go into the
        buffers of `work`, a `Workspace` of at least N rows; dQ itself
        is never written.
        """
        acts = cache
        n = acts[0].shape[0]
        if np.shape(dQ) != (n, self.out_dim):
            raise ValueError("gradient shape does not match cached forward")
        if work.dtype != self.dtype:
            raise ValueError(f"workspace is {work.dtype}, net is {self.dtype}")
        dh = work.dQ[:n]
        dh[...] = dQ
        dh[np.abs(dh) < _TINY_SQRT[dh.dtype]] = 0.0
        for i in range(len(self.layers) - 1, -1, -1):
            dW, db = out[i]
            np.matmul(dh.T, acts[i], out=dW)
            np.sum(dh, axis=0, out=db)
            if i > 0:
                # acts[i] holds relu output of layer i-1; relu' at 0 is 0
                dh = np.matmul(dh, self.layers[i][0], out=work.dh[i - 1][:n])
                dh *= np.greater(acts[i], 0.0, out=work.relu[i - 1][:n])
        return out


class Workspace:
    """The buffers of forward and backward passes of up to `rows` rows
    through one unstacked net: each layer's output, the copy of the
    embedding gradient, and each hidden layer's gradient and ReLU mask,
    all in the net's dtype (the masks bool). A pass over N rows uses the
    first N rows of each, so one workspace serves every pass of a run
    whose row count varies up to `rows`; each pass overwrites the last.
    """

    def __init__(self, net, rows):
        self.dtype = net.dtype
        self.acts = [np.empty((rows, W.shape[0]), net.dtype) for W, _ in net.layers]
        self.dQ = np.empty((rows, net.out_dim), net.dtype)
        hidden = [W.shape[1] for W, _ in net.layers[1:]]
        self.dh = [np.empty((rows, h), net.dtype) for h in hidden]
        self.relu = [np.empty((rows, h), bool) for h in hidden]


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


def save_checkpoint(path, theta, shapes, p0, extra=None):
    """Write the parameter vector theta, in the layout of these W shapes
    (`layout`), the background prototype p0 and the provenance `extra`
    to `path` as a v2 archive (`archive.save_archive`, so at exactly
    `path`, with stable bytes). p0 is stored in theta's dtype."""
    save_archive(path, {
        "format": np.array(FORMAT),
        "shapes": np.array(shapes, dtype=np.int64),
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
