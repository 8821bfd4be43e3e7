"""Simplex points, count vectors, and the colex-ordered composition grid.

G(K, t) is the set of nonnegative integer K-vectors summing to t.  The
fixed enumeration order is colexicographic on the first K-1 coordinates
(k_1 fastest, k_{K-1} slowest); every table and CSV dump in the package
uses this order.
"""

from __future__ import annotations

import math

import numpy as np

GRID_CAP = 1 << 27

__all__ = [
    "GRID_CAP",
    "GridCapExceeded",
    "validate_prob_vector",
    "validate_count_vector",
    "grid_size",
    "enumerate_grid",
    "rank",
    "rank_many",
    "unrank",
    "empirical_mean",
]


class GridCapExceeded(RuntimeError):
    """Raised when |G(K, t)| exceeds the configured entry cap."""


def validate_prob_vector(p, tol=1e-9, min_dim=2):
    """Check p lies on the simplex within tol and return it as an array.

    Coordinates in [-tol, 0) are set to 0, so that no kernel sees a negative
    mean; the vector is otherwise returned as given, never renormalized.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < min_dim:
        raise ValueError(f"probability vector must be 1-d with K >= {min_dim}")
    if np.any(np.isnan(p)):
        raise ValueError("probability vector contains NaN")
    if np.any(p < -tol) or abs(p.sum() - 1.0) > tol:
        raise ValueError(f"not a probability vector within tol={tol}: {p}")
    return np.maximum(p, 0.0)


def validate_count_vector(k):
    """Check k is a nonnegative integer vector; return (array, t)."""
    k = np.asarray(k)
    if k.ndim != 1 or k.size < 1:
        raise ValueError("count vector must be 1-d and nonempty")
    ki = np.asarray(np.rint(k), dtype=np.int64)
    if np.any(np.abs(k - ki) > 1e-9) or np.any(ki < 0):
        raise ValueError(f"not a nonnegative integer count vector: {k}")
    return ki, int(ki.sum())


def grid_size(K, t):
    """|G(K, t)| = C(t + K - 1, K - 1)."""
    return math.comb(t + K - 1, K - 1)


# Largest scratch cube (in rows) used by the vectorized enumerator before
# falling back to blocking on the slowest coordinate.
_CUBE_LIMIT = 4_000_000


def _free_block(d, t):
    """All (k_1..k_d) with nonnegative entries summing to <= t, in colex
    ascending order (k_1 fastest, k_d slowest)."""
    if d == 0:
        return np.zeros((1, 0), dtype=np.int64)
    if d == 1:
        return np.arange(t + 1, dtype=np.int64)[:, None]
    if (t + 1) ** d <= _CUBE_LIMIT:
        # enumerate the full cube; C-order flattening makes the last
        # stacked axis fastest, so reversing columns gives colex order
        cube = np.indices((t + 1,) * d).reshape(d, -1).T[:, ::-1]
        return np.ascontiguousarray(cube[cube.sum(axis=1) <= t])
    blocks = []
    for v in range(t + 1):
        rest = _free_block(d - 1, t - v)
        blk = np.empty((rest.shape[0], d), dtype=np.int64)
        blk[:, : d - 1] = rest
        blk[:, d - 1] = v
        blocks.append(blk)
    return np.concatenate(blocks, axis=0)


def enumerate_grid(K, t, cap=GRID_CAP):
    """All of G(K, t) as an (M, K) int array in colex order."""
    if K < 1 or t < 0:
        raise ValueError("enumerate_grid requires K >= 1 and t >= 0")
    n = grid_size(K, t)
    if n > cap:
        raise GridCapExceeded(
            f"|G({K},{t})| = {n} exceeds the grid cap of {cap} entries"
        )
    head = _free_block(K - 1, t)
    out = np.empty((head.shape[0], K), dtype=np.int64)
    out[:, : K - 1] = head
    out[:, K - 1] = t - head.sum(axis=1)
    return out


def rank_many(A):
    """Colex ranks of the rows of A within their respective G(K, t).

    With s_j = k_K + k_1 + ... + k_j, the rank is
    sum_{j=1}^{K-1} C(s_j + j, j) - C(s_{j-1} + j, j).
    """
    A = np.asarray(A, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError("rank_many expects a 2-d array of count vectors")
    K = A.shape[1]
    s = np.cumsum(np.concatenate([A[:, -1:], A[:, :-1]], axis=1), axis=1)
    # Pascal table: ctab[j, n] = C(n, j) for every n that can appear below,
    # by the hockey-stick identity C(n, j) = sum_{m < n} C(m, j - 1)
    n = int(s[:, -1].max(initial=0)) + K
    ctab = np.zeros((K, n), dtype=np.int64)
    ctab[0] = 1
    for j in range(1, K):
        np.cumsum(ctab[j - 1, :-1], out=ctab[j, 1:])
    # flat index of ctab[j, s + j], for j = 1..K-1
    off = np.arange(1, K) * (n + 1)
    flat = ctab.ravel()
    return (flat[s[:, 1:] + off] - flat[s[:, :-1] + off]).sum(axis=1)


def rank(k):
    """Colex rank of a single count vector within G(K, sum(k))."""
    ki, _ = validate_count_vector(k)
    return int(rank_many(ki[None, :])[0])


def unrank(i, K, t):
    """The count vector of colex rank i in G(K, t).  The inverse of rank:
    test_rank_unrank_identity_exhaustive uses it as the oracle for rank."""
    if not (0 <= i < grid_size(K, t)):
        raise ValueError(f"index {i} out of range for G({K},{t})")
    out = np.zeros(K, dtype=np.int64)
    rem = int(i)
    budget = t
    for j in range(K - 1, 0, -1):
        base = math.comb(budget + j, j)
        v = 0
        # contribution of choosing coordinate value v is base - C(budget - v + j, j)
        while v < budget and base - math.comb(budget - (v + 1) + j, j) <= rem:
            v += 1
        rem -= base - math.comb(budget - v + j, j)
        out[j - 1] = v
        budget -= v
    out[K - 1] = budget
    return out


def empirical_mean(obs):
    """Coordinatewise average of a nonempty sequence of simplex points.
    The paper's sets never exclude it: test_criterion_2_empirical_mean_never_excluded."""
    obs = np.asarray(obs, dtype=float)
    if obs.ndim != 2 or obs.shape[0] == 0:
        raise ValueError("empirical_mean expects a nonempty (t, K) array")
    for row in obs:
        validate_prob_vector(row)
    return obs.mean(axis=0)
