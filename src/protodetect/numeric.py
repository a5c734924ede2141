"""Small numeric core: stable log-softmax over the last axis, prototype
logits, distances, seeded RNG.

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


def _reduce_columns(ufunc, a):
    """`ufunc` folded over the last axis of `a`, one call per column, so
    each call covers every row at once."""
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        ufunc(out, a[..., j], out=out)
    return out


def log_softmax(z):
    """Stable log-softmax over the last axis, via max subtraction.

    numpy reduces the last axis one row at a time, which is slow for
    the loss head's many short rows (a few prototypes per query). So
    from 32 rows of fewer than 8 columns on, the max and the sum run
    column by column, one call over every row per column. A max is
    exact in any order, and numpy sums a row that short in sequence,
    so the result is bit-equal to `np.max` / `np.sum` over the last
    axis. Fewer rows are cheaper in numpy's own reductions, and from 8
    columns on numpy sums pairwise, so those keep them.
    """
    z = np.asarray(z, dtype=np.float64)
    k = z.shape[-1]
    if k < 8 and z.size >= 32 * k:
        zmax = _reduce_columns(np.maximum, z)
        total = _reduce_columns(np.add, np.exp(z - zmax[..., None]))
    else:
        zmax = np.max(z, axis=-1)
        total = np.sum(np.exp(z - zmax[..., None]), axis=-1)
    return z - (zmax + np.log(total))[..., None]


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
