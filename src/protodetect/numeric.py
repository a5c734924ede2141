"""Small numeric core: stable log-softmax/log-sum-exp, prototype logits,
distances, seeded RNG.

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


def _row_stacks(Q, P):
    """Q and P as float64 arrays of rows of one width, or ValueError."""
    Q = np.asarray(Q, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    if Q.ndim < 2 or P.ndim < 2 or Q.shape[-1] != P.shape[-1]:
        raise ValueError(f"dim mismatch: {Q.shape} vs {P.shape}")
    return Q, P


def proto_logits(Q, P):
    """(S, Z) for rows of Q against rows of P: the inner products
    S = Q P^T and the prototype logits Z = 2 S - |p|^2, both (N, K);
    stacks (..., N, D) and (..., K, D) give (..., N, K).

    Z is the negative squared distance -|q - p_k|^2 plus |q|^2, a term
    constant along each row that cancels in a softmax over k. So the
    prototype posteriors are a linear head on S (Snell et al., 2017),
    and no (N, K, D) difference tensor is formed.
    """
    Q, P = _row_stacks(Q, P)
    S = Q @ P.swapaxes(-1, -2)
    Z = 2.0 * S
    Z -= np.sum(P * P, axis=-1)[..., None, :]
    return S, Z


def sq_distances(Q, P):
    """Pairwise squared distances, rows of Q vs rows of P -> (N, K);
    stacks (..., N, D) and (..., K, D) give (..., N, K).

    Computed as the explicit difference rather than the expanded
    q.q + p.p - 2q.p form, which can go slightly negative. The program
    itself decides through `proto_logits`; this exact form stays as the
    tests' oracle for those logits, and the benchmark's traced pass
    (bench/spans.py) still wraps it by name.
    """
    Q, P = _row_stacks(Q, P)
    diff = Q[..., :, None, :] - P[..., None, :, :]
    return np.einsum("...nkd,...nkd->...nk", diff, diff)
