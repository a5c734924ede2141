"""Small numeric core: stable softmax/log-sum-exp, distances, seeded RNG.

Everything here works on plain float64 numpy arrays. Vectors are 1-D
arrays, matrices are 2-D row-major arrays or stacks of them (leading
axes, as on the gradient audit's value path). The RNG is numpy's PCG64,
a well-known 64-bit counter-based generator: identical seeds produce
identical streams on every platform, which the dataset/checkpoint
determinism guarantees rely on.
"""

import numpy as np


def make_rng(seed):
    """Seeded deterministic generator (PCG64). Single-owner, never share."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def logsumexp(z, axis=-1, keepdims=False):
    """Stable log(sum(exp(z))) via max subtraction."""
    z = np.asarray(z, dtype=np.float64)
    zmax = np.max(z, axis=axis, keepdims=True)
    out = zmax + np.log(np.sum(np.exp(z - zmax), axis=axis, keepdims=True))
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out


def log_softmax(z, axis=-1):
    z = np.asarray(z, dtype=np.float64)
    return z - logsumexp(z, axis=axis, keepdims=True)


def softmax(logits, axis=-1):
    """Stable softmax; entries in (0,1], rows sum to 1.

    Raises ValueError on non-finite input.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ValueError("empty logits")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    return np.exp(log_softmax(z, axis=axis))


def sq_distances(Q, P):
    """Pairwise squared distances, rows of Q vs rows of P -> (N, K);
    stacks (..., N, D) and (..., K, D) give (..., N, K).

    Computed as the explicit difference rather than the expanded
    q.q + p.p - 2q.p form: the latter can go slightly negative and
    would perturb gradient checks.
    """
    Q = np.asarray(Q, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    if Q.ndim < 2 or P.ndim < 2 or Q.shape[-1] != P.shape[-1]:
        raise ValueError(f"dim mismatch: {Q.shape} vs {P.shape}")
    diff = Q[..., :, None, :] - P[..., None, :, :]
    return np.einsum("...nkd,...nkd->...nk", diff, diff)
