import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from protodetect.numeric import log_softmax, make_rng, proto_logits, sq_distances

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def softmax(z):
    """The softmax as `prototypes.posteriors_batch` takes it."""
    return np.exp(log_softmax(z))


def test_softmax_symmetry():
    assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)


def test_softmax_single_element():
    for x in (-100.0, 0.0, 3.7, 1e8):
        assert softmax([x]) == pytest.approx([1.0])


def test_softmax_hand_case():
    # exp(ln 1) = 1, exp(ln 3) = 3 -> [1/4, 3/4]
    out = softmax([math.log(1.0), math.log(3.0)])
    assert out == pytest.approx([0.25, 0.75], abs=1e-15)


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


# sq_distances, the explicit-difference form, is the oracle of the
# prototype logits: these check it pair by pair

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
    # proto_logits shares the check
    for kernel in (sq_distances, proto_logits):
        with pytest.raises(ValueError, match="dim mismatch"):
            kernel(np.zeros((1, 1)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="dim mismatch"):
            kernel(np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="dim mismatch"):
            kernel(np.zeros(3), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="dim mismatch"):
            kernel(np.zeros((5, 2, 3)), np.zeros((5, 2, 4)))


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


# proto_logits: S = Q P^T and Z = 2 S - |p|^2, whose softmax is the
# softmax of -sq_distances

def test_proto_logits_softmax_equals_distance_softmax():
    for seed in range(5):
        rng = make_rng(seed)
        Q, P = rng.normal(size=(30, 128)), rng.normal(size=(7, 128))
        _, Z = proto_logits(Q, P)
        assert np.allclose(softmax(Z), softmax(-sq_distances(Q, P)), rtol=1e-12, atol=0)


# entries up to 4 in 8 dims keep every d^2 below 512, so no posterior
# reaches the subnormal range, where relative precision is lost
@st.composite
def query_bank_pairs(draw):
    n, k, dim = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 8))
    elements = st.floats(min_value=-4, max_value=4, allow_nan=False)
    return (draw(arrays(np.float64, (n, dim), elements=elements)),
            draw(arrays(np.float64, (k, dim), elements=elements)))


@given(query_bank_pairs())
def test_proto_logits_softmax_equals_distance_softmax_property(pair):
    Q, P = pair
    _, Z = proto_logits(Q, P)
    assert np.allclose(softmax(Z), softmax(-sq_distances(Q, P)), rtol=1e-12, atol=0)


def test_proto_logits_are_negative_distances_plus_query_norm():
    # -|q - p|^2 = 2 q.p - |p|^2 - |q|^2 = Z - |q|^2
    rng = make_rng(4)
    Q, P = rng.normal(size=(20, 16)), rng.normal(size=(5, 16))
    S, Z = proto_logits(Q, P)
    assert np.array_equal(S, Q @ P.T)
    q2 = np.sum(Q * Q, axis=1)[:, None]
    # d^2 runs to about 66 here; the tolerance is a few ulps of that
    assert np.allclose(Z - q2, -sq_distances(Q, P), rtol=0, atol=1e-12)


def test_stacked_proto_logits_equal_each_slice():
    rng = make_rng(3)
    Q, P = rng.normal(size=(5, 12, 6)), rng.normal(size=(5, 4, 6))
    S, Z = proto_logits(Q, P)
    assert S.shape == Z.shape == (5, 12, 4)
    for k in range(5):
        for a, b in zip((S[k], Z[k]), proto_logits(Q[k], P[k])):
            assert np.array_equal(a, b)
        # one bank broadcast against a stack of queries
        for a, b in zip(proto_logits(Q, P[0]), proto_logits(Q[k], P[0])):
            assert np.array_equal(a[k], b)


def test_rng_equal_seeds_equal_streams():
    a = make_rng(12345)
    b = make_rng(12345)
    assert np.array_equal(a.random(10_000), b.random(10_000))


def test_rng_different_seeds_differ():
    assert not np.array_equal(make_rng(1).random(100), make_rng(2).random(100))


def test_log_softmax_stability():
    assert log_softmax([1000.0, 1000.0])[0] == pytest.approx(-math.log(2.0))


# log_softmax reduces column by column; these pin it bit for bit to
# numpy's own row reductions, so a numpy release that changes its
# reduction order fails here instead of moving artifact bytes

def row_log_softmax(z):
    """The oracle: numpy's max and sum over the last axis, row by row."""
    z = np.asarray(z, dtype=np.float64)
    zmax = np.max(z, axis=-1, keepdims=True)
    return z - (zmax + np.log(np.sum(np.exp(z - zmax), axis=-1, keepdims=True)))


def assert_same_bits(z):
    with np.errstate(all="ignore"):
        got, expected = log_softmax(z), row_log_softmax(z)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 7e299, -3.0])


@pytest.mark.parametrize("k", range(1, 129))
def test_log_softmax_is_bit_equal_to_row_reductions(k):
    rng = make_rng(k)
    # 31 and 32 rows straddle the switch to column passes
    for shape in [(k,), (31, k), (32, k), (5, 12, k)]:
        z = rng.normal(scale=20.0, size=shape)
        assert_same_bits(z)
        # signed zeros, infinities, NaNs and magnitudes near 1e300
        special = z.copy()
        mask = rng.random(shape) < 0.3
        special[mask] = rng.choice(SPECIAL, size=int(mask.sum()))
        assert_same_bits(special)
        assert_same_bits(rng.choice([0.0, -0.0], size=shape))
        assert_same_bits(rng.choice([1e300, -1e300, 5e299, np.inf], size=shape))
    # non-contiguous views: a stacked gather with a step, and a
    # transpose whose last axis is not the fastest
    block = rng.normal(scale=20.0, size=(9, 24, k))
    assert_same_bits(block[[3, 0, 3, 8]][:, ::2])
    assert_same_bits(rng.normal(size=(k, 8, 6)).transpose(2, 1, 0))
