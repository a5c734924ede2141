import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from protodetect.numeric import logsumexp, make_rng, softmax, sq_distances

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_softmax_symmetry():
    assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)


def test_softmax_single_element():
    for x in (-100.0, 0.0, 3.7, 1e8):
        assert softmax([x]) == pytest.approx([1.0])


def test_softmax_hand_case():
    # exp(ln 1) = 1, exp(ln 3) = 3 -> [1/4, 3/4]
    out = softmax([math.log(1.0), math.log(3.0)])
    assert out == pytest.approx([0.25, 0.75], abs=1e-15)


def test_softmax_rejects_non_finite():
    with pytest.raises(ValueError):
        softmax([0.0, np.inf])
    with pytest.raises(ValueError):
        softmax([np.nan])


@given(st.lists(finite_floats, min_size=1, max_size=20))
def test_softmax_sums_to_one(logits):
    out = softmax(logits)
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.all(out > 0)


@given(st.lists(finite_floats, min_size=2, max_size=10), finite_floats)
def test_softmax_shift_invariant(logits, c):
    a = softmax(logits)
    b = softmax(np.asarray(logits) + c)
    assert np.allclose(a, b, atol=1e-12)


@given(st.lists(finite_floats, min_size=2, max_size=10),
       st.randoms(use_true_random=False))
def test_softmax_permutation_equivariant(logits, rnd):
    perm = list(range(len(logits)))
    rnd.shuffle(perm)
    a = softmax(np.asarray(logits)[perm])
    b = softmax(logits)[perm]
    assert np.allclose(a, b, atol=1e-12)


# sq_distances is the one distance kernel: these check it pair by pair

def test_sq_euclidean_identity_and_pythagorean():
    assert sq_distances([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]]) == [[0.0]]
    assert np.array_equal(sq_distances([[0.0, 0.0], [1.0, 1.0]],
                                       [[3.0, 4.0], [0.0, 0.0], [1.0, 1.0]]),
                          [[25.0, 0.0, 2.0], [13.0, 2.0, 0.0]])


def test_sq_euclidean_matches_scalar_loop():
    rng = make_rng(0)
    Q = rng.normal(size=(5, 17))
    P = rng.normal(size=(3, 17))
    # scalar-loop oracle
    expected = np.zeros((5, 3))
    for n in range(5):
        for k in range(3):
            for x, y in zip(Q[n], P[k]):
                expected[n, k] += (x - y) ** 2
    assert np.allclose(sq_distances(Q, P), expected, rtol=1e-12, atol=0)


def test_sq_euclidean_dim_mismatch():
    with pytest.raises(ValueError, match="dim mismatch"):
        sq_distances(np.zeros((1, 1)), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="dim mismatch"):
        sq_distances(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValueError, match="dim mismatch"):
        sq_distances(np.zeros(3), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="dim mismatch"):
        sq_distances(np.zeros((5, 2, 3)), np.zeros((5, 2, 4)))


def test_stacked_sq_distances_equal_each_slice():
    rng = make_rng(3)
    Q, P = rng.normal(size=(5, 12, 6)), rng.normal(size=(5, 4, 6))
    D = sq_distances(Q, P)
    assert D.shape == (5, 12, 4)
    for k in range(5):
        assert np.array_equal(D[k], sq_distances(Q[k], P[k]))
        # one bank broadcast against a stack of queries
        assert np.array_equal(sq_distances(Q, P[0])[k], sq_distances(Q[k], P[0]))


@given(st.lists(finite_floats, min_size=1, max_size=8),
       st.lists(finite_floats, min_size=1, max_size=8))
def test_sq_euclidean_properties(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    d = sq_distances([a], [b])[0, 0]
    assert d >= 0
    assert d == pytest.approx(sq_distances([b], [a])[0, 0], abs=1e-12)
    if a == b:
        assert d <= 1e-12


def test_rng_equal_seeds_equal_streams():
    a = make_rng(12345)
    b = make_rng(12345)
    assert np.array_equal(a.random(10_000), b.random(10_000))


def test_rng_different_seeds_differ():
    assert not np.array_equal(make_rng(1).random(100), make_rng(2).random(100))


def test_logsumexp_stability():
    assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0))
