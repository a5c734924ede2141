import threading

import numpy as np
import pytest

from protodetect.embedder import (EMBED_BLOCK_ROWS, PARALLEL_BLOCKS, EmbeddingNet,
                                  LinearClassifier, Workspace, default_net_and_classifier,
                                  layout, load_checkpoint, save_checkpoint)
from protodetect.gradcheck import random_instance
from protodetect.numeric import log_softmax, make_rng

from helpers import force_cpus, probe_stack


def small_net(seed=0, d=5, hidden=7, e=4, depth=2):
    return default_net_and_classifier(seed, d, hidden, e, 1, depth)[0]


def forward(net, v):
    """Embedding and cache of one input vector."""
    Q, cache = net.forward_batch(np.asarray(v, dtype=np.float64)[None, :])
    return Q[0], cache


def backward(net, cache, dQ):
    """The layer grads of backward_batch, written into new arrays."""
    return net.backward_batch(cache, dQ, [(np.empty_like(W), np.empty_like(b))
                                          for W, b in net.layers],
                              Workspace(net, len(dQ)))


def test_zero_net_gives_zero_output():
    net = EmbeddingNet([(np.zeros((3, 2)), np.zeros(3)),
                        (np.zeros((2, 3)), np.zeros(2))])
    q, _ = forward(net, [1.0, -1.0])
    assert np.array_equal(q, np.zeros(2))


def test_identity_net_passes_positive_input_through():
    net = EmbeddingNet([(np.eye(3), np.zeros(3)), (np.eye(3), np.zeros(3))])
    v = np.array([1.0, 2.0, 0.5])
    q, _ = forward(net, v)
    assert np.array_equal(q, v)


def test_forward_deterministic():
    net = small_net(3)
    v = make_rng(9).normal(size=5)
    q1, _ = forward(net, v)
    q2, _ = forward(net, v)
    assert np.array_equal(q1, q2)


def test_forward_dim_mismatch():
    with pytest.raises(ValueError):
        small_net().forward_batch(np.zeros((1, 6)))


def test_backward_zero_grad_is_zero():
    net = small_net(1)
    _, cache = net.forward_batch(make_rng(2).normal(size=(3, 5)))
    grads = backward(net, cache, np.zeros((3, 4)))
    assert all(np.all(dW == 0) and np.all(db == 0) for dW, db in grads)


def test_backward_linear_layer_outer_product():
    # identity hidden layer on positive input reduces layer 2 to linear:
    # dW2 = outer(dq, relu(v)) = outer(dq, v)
    net = EmbeddingNet([(np.eye(3), np.zeros(3)),
                        (make_rng(4).normal(size=(2, 3)), np.zeros(2))])
    v = np.array([0.3, 1.2, 2.0])
    _, cache = forward(net, v)
    dq = np.array([1.5, -0.7])
    grads = backward(net, cache, dq[None, :])
    assert np.allclose(grads[1][0], np.outer(dq, v), atol=1e-12)
    assert np.allclose(grads[1][1], dq, atol=1e-12)


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_jacobian_matches_finite_differences(depth):
    # loss = sum(G * forward(X)), so backward_batch(cache, G) is its
    # gradient; check every layer's dW and db by central differences
    net = small_net(11, depth=depth)
    X = make_rng(12).normal(size=(3, 5))
    G = make_rng(13).normal(size=(3, 4))
    _, cache = net.forward_batch(X)
    grads = backward(net, cache, G)

    def loss():
        return float(np.sum(G * net.forward_batch(X)[0]))

    h = 1e-6
    for (W, b), (dW, db) in zip(net.layers, grads):
        for param, analytic in ((W, dW), (b, db)):
            assert analytic.shape == param.shape
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + h
                up = loss()
                param[idx] = orig - h
                down = loss()
                param[idx] = orig
                num = (up - down) / (2 * h)
                assert analytic[idx] == pytest.approx(num, rel=1e-5, abs=1e-8)


def test_relu_derivative_at_zero_is_zero():
    # hidden unit 0 sits exactly at the kink: backward must not
    # propagate through it, so its row of dW1 and its db1 entry are zero
    net = EmbeddingNet([(np.eye(2), np.zeros(2)), (np.eye(2), np.zeros(2))])
    _, cache = forward(net, np.array([0.0, 1.0]))
    (dW1, db1), _ = backward(net, cache, np.array([[1.0, 1.0]]))
    assert np.all(dW1[0] == 0.0) and db1[0] == 0.0
    assert np.array_equal(dW1[1], [0.0, 1.0]) and db1[1] == 1.0


def test_float32_backward_flushes_subnormal_gradients():
    # 1e-40 is a float32 subnormal; 1e-20 is normal, but below
    # sqrt(tiny) = 1.08e-19, so its products with the weights in dQ @ W
    # could be subnormal: the backward pass treats both as 0
    W1, b1 = small_net(5).layers[0]
    net = EmbeddingNet([(W1.astype(np.float32), np.ones(7, dtype=np.float32)),
                        (make_rng(6).normal(size=(4, 7)).astype(np.float32),
                         np.zeros(4, dtype=np.float32))])
    _, cache = net.forward_batch(make_rng(7).normal(size=(3, 5)))
    dQ = make_rng(8).normal(size=(3, 4))
    dQ[:, 0] = 0.0
    flushed = backward(net, cache, dQ)
    for small in (1e-40, 1e-20):
        dQ[:, 0] = small
        tiny = backward(net, cache, dQ)
        for (dW, db), (tW, tb) in zip(flushed, tiny):
            assert dW.dtype == np.float32
            assert np.array_equal(dW, tW) and np.array_equal(db, tb)


def test_float64_backward_keeps_small_gradients():
    # float64 flushes only below sqrt(tiny) = 1.49e-154, so a dQ entry
    # of 1e-100 reaches the gradients and the audit's arithmetic stays
    net = small_net(5)
    _, cache = net.forward_batch(make_rng(7).normal(size=(3, 5)))
    dQ = np.zeros((3, 4))
    dQ[1, 0] = 1e-100
    (dW1, db1), (dW2, db2) = backward(net, cache, dQ)
    assert db2[0] == 1e-100
    assert np.array_equal(dW2[0], 1e-100 * cache[1][1])
    assert np.any(dW1 != 0.0)


def test_nets_keep_float32_and_cast_inputs():
    net = EmbeddingNet([(np.eye(2, dtype=np.float32), np.zeros(2, dtype=np.float32))] * 2)
    clf = LinearClassifier(np.ones((3, 2), dtype=np.float32), np.zeros(3, dtype=np.float32))
    Q, _ = net.forward_batch(np.array([[1.0, 2.0]]))
    assert net.dtype == Q.dtype == clf.logits_batch(Q.astype(np.float64)).dtype == np.float32
    # integer and list parameters become float64
    assert EmbeddingNet([(np.eye(2, dtype=int), [0, 0])]).dtype == np.float64
    # one dtype for every layer: a float64 bias would be cast to float32
    # by the in-place forward pass, where it once made the output float64
    with pytest.raises(ValueError, match="one dtype"):
        EmbeddingNet([(np.eye(2, dtype=np.float32), [0.0, 0.0])])


def test_classifier_uniform_at_zero_params():
    clf = LinearClassifier(np.zeros((4, 3)), np.zeros(4))
    p = np.exp(log_softmax(clf.logits_batch(np.array([[1.0, 2.0, 3.0]]))[0]))
    assert np.allclose(p, 0.25, atol=1e-15)


def test_classifier_constructed_logit():
    q = np.array([1.0, 2.0, 2.0])
    W = np.zeros((3, 3))
    W[2] = q / np.dot(q, q)
    clf = LinearClassifier(W, np.zeros(3))
    logits = clf.logits_batch(q[None, :])[0]
    assert logits[2] == pytest.approx(1.0)
    assert logits[0] == logits[1] == 0.0


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    net, clf, theta = default_net_and_classifier(21, 5, 7, 4, 4, depth=3)
    p0 = make_rng(23).normal(size=4)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, theta, layout(net, clf), p0, {"run": 1})
    net2, clf2, p02 = load_checkpoint(path)
    for (W1, b1), (W2, b2) in zip(net.layers, net2.layers):
        assert np.array_equal(W1, W2) and np.array_equal(b1, b2)
    assert np.array_equal(clf.W, clf2.W) and np.array_equal(clf.b, clf2.b)
    assert p02.dtype == np.float64 and np.array_equal(p0, p02)
    # an archive at exactly the given path, holding the five entries
    assert not (tmp_path / "ckpt.json.npz").exists()
    with np.load(path, allow_pickle=False) as archive:
        assert sorted(archive.files) == ["format", "p0", "provenance", "shapes", "theta"]
        assert str(archive["format"]) == "protodetect-checkpoint-v2"
        assert archive["shapes"].dtype == np.int64
        assert archive["shapes"].tolist() == [[7, 5], [7, 7], [4, 7], [5, 4]]
        assert np.array_equal(archive["theta"], theta)
        assert str(archive["provenance"]) == '{"run": 1}'


def test_loaded_checkpoint_binds_views_into_one_vector(tmp_path):
    net, clf, theta = default_net_and_classifier(24, 5, 7, 4, 2)
    save_checkpoint(tmp_path / "ckpt", theta, layout(net, clf), np.zeros(4))
    net2, clf2, _ = load_checkpoint(tmp_path / "ckpt")
    arrays = [a for pair in (*net2.layers, (clf2.W, clf2.b)) for a in pair]
    base = arrays[0].base
    assert base is not None and all(a.base is base for a in arrays)
    # the same layout as the vector of a freshly drawn pair
    assert np.array_equal(base, theta)


def test_init_depth_validation():
    with pytest.raises(ValueError, match="depth"):
        default_net_and_classifier(0, 4, 4, 4, 2, depth=1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("depth", [2, 3])
def test_default_init_draws_glorot_weights_in_layout_order(depth, dtype):
    net, clf, theta = default_net_and_classifier(5, 6, 9, 4, 3, depth, dtype)
    pairs = (*net.layers, (clf.W, clf.b))
    dims = [6] + [9] * (depth - 1) + [4]
    assert [W.shape for W, _ in pairs] == [*zip(dims[1:], dims[:-1]), (4, 4)]
    assert theta.dtype == dtype and theta.size == sum(W.size + b.size for W, b in pairs)
    rng = make_rng(5)
    for W, b in pairs:
        n_out, n_in = W.shape
        limit = np.sqrt(6.0 / (n_in + n_out))
        expected = rng.uniform(-limit, limit, size=(n_out, n_in)).astype(dtype)
        assert W.dtype == b.dtype == dtype
        assert np.array_equal(W, expected) and not b.any()
        assert W.base is theta and b.base is theta


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_stacked_forward_and_logits_equal_each_slice(depth):
    inst = random_instance(depth, depth=depth, n_queries=12)
    (net, clf), rows = probe_stack(inst)
    Q, _ = net.forward_batch(inst.query_features)
    logits = clf.logits_batch(Q)
    assert Q.shape == (5, 12, 6) and logits.shape == (5, 12, 4)
    assert (net.in_dim, net.out_dim, clf.n_classes) == (8, 6, 4)
    for k, (net_k, clf_k) in enumerate(rows):
        Q_k, _ = net_k.forward_batch(inst.query_features)
        assert np.array_equal(Q[k], Q_k)
        assert np.array_equal(logits[k], clf_k.logits_batch(Q_k))


def test_stacked_parameters_need_matching_leading_shapes():
    with pytest.raises(ValueError, match="inconsistent layer shapes"):
        EmbeddingNet([(np.zeros((5, 3, 2)), np.zeros((4, 3)))])
    with pytest.raises(ValueError, match="inconsistent layer shapes"):
        EmbeddingNet([(np.zeros(3), np.zeros(()))])
    with pytest.raises(ValueError, match="inconsistent classifier shapes"):
        LinearClassifier(np.zeros((5, 3, 2)), np.zeros((4, 3)))


@pytest.mark.parametrize("n_rows", [0, 1, EMBED_BLOCK_ROWS + 3, 3 * EMBED_BLOCK_ROWS,
                                    3 * EMBED_BLOCK_ROWS + 1])
def test_blocked_embed_equals_one_forward(n_rows, monkeypatch):
    # A3 layer sizes in float32, as training and eval run them: the
    # blocks split the rows of every product, and each row stays
    # bit-equal to one forward pass over all rows, across every block
    # boundary, on one CPU or two; blocks differ by one row at most, so
    # no tail block is a handful of rows. With two CPUs and at least
    # PARALLEL_BLOCKS blocks (769 rows make 4, 768 make 3), a worker
    # thread embeds the second half of the blocks
    net = default_net_and_classifier(0, 64, 512, 128, 5, 2, np.float32)[0]
    X = make_rng(3).normal(size=(n_rows, 64))
    forward_batch = EmbeddingNet.forward_batch
    whole = forward_batch(net, X)[0]
    n_blocks = max(1, -(-n_rows // EMBED_BLOCK_ROWS))
    for cpus in (1, 2):
        force_cpus(monkeypatch, cpus)
        calls = []

        def spy(self, block, work=None):
            # (first row, rows, thread) of each block, a view into X
            first = (block.ctypes.data - X.ctypes.data) // (X.itemsize * X.shape[1])
            calls.append((first, len(block), threading.current_thread()))
            return forward_batch(self, block, work)

        monkeypatch.setattr(EmbeddingNet, "forward_batch", spy)
        emb = net.embed(X)
        assert emb.dtype == whole.dtype == np.float32 and emb.shape == (n_rows, 128)
        assert np.array_equal(emb, whole)
        calls.sort(key=lambda call: call[0])
        sizes = [n for _, n, _ in calls]
        assert sum(sizes) == n_rows and len(sizes) == n_blocks
        assert max(sizes) <= EMBED_BLOCK_ROWS and max(sizes) - min(sizes) <= 1
        on_worker = [t is not threading.current_thread() for _, _, t in calls]
        parallel = cpus == 2 and n_blocks >= PARALLEL_BLOCKS
        assert on_worker == [parallel and i >= n_blocks // 2 for i in range(n_blocks)]


def test_embed_checks_its_input():
    with pytest.raises(ValueError, match="expected"):
        small_net().embed(np.zeros((3, 6)))
