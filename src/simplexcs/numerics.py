"""Log-domain special functions shared by the wealth kernels.

All wealth arithmetic in this package is carried out on the natural-log
scale.  +inf encodes a hypothesis excluded with certainty (diverged
wealth), -inf encodes zero wealth.  NaN is never a legal value.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln
from scipy.special import logsumexp

__all__ = [
    "log_multi_beta",
    "kl_divergence",
    "shannon_entropy",
    "log_binomial_tail",
    "logsumexp",
]


def log_multi_beta(a):
    """ln B(a) = sum_j ln Gamma(a_j) - ln Gamma(sum_j a_j) for a > 0."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("log_multi_beta expects a nonempty vector")
    if np.any(a <= 0.0):
        raise ValueError("log_multi_beta requires positive entries")
    return float(np.sum(gammaln(a)) - gammaln(a.sum()))


def kl_divergence(p, q):
    """KL divergence D(p || q) in nats, with the 0 log 0 = 0 convention.

    q is one vector, giving a float, or an (A, K) block of them, giving the
    (A,) divergences of its rows.  +inf where p puts mass where q does not.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim != 1 or q.ndim > 2 or q.shape[-1:] != p.shape:
        raise ValueError("kl_divergence: dimension mismatch")
    kl = np.sum(_kl_terms(p, q), axis=-1)
    return float(kl) if q.ndim == 1 else kl


def _kl_terms(p, q):
    """The per-coordinate terms of D(p || q), p_j (ln p_j - ln q_j),
    elementwise over q (..., K), and 0 where p_j = 0; D(p || q) is their
    sum."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, p * (np.log(p) - np.log(q)), 0.0)


def shannon_entropy(p):
    """Shannon entropy H(p) = -sum_j p_j ln p_j for p on the simplex."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or np.any(p < -1e-9) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("shannon_entropy expects a probability vector")
    mask = p > 0.0
    return float(-np.sum(p[mask] * np.log(p[mask])))


def _log_binomial_pmf(n, ks, p):
    """Exact log pmf of Bin(n, p) at each k in ks (integer array)."""
    ks = np.asarray(ks, dtype=float)
    logc = gammaln(n + 1.0) - gammaln(ks + 1.0) - gammaln(n - ks + 1.0)
    with np.errstate(divide="ignore"):
        lp = math.log(p) if p > 0.0 else -math.inf
        lq = math.log1p(-p) if p < 1.0 else -math.inf
    # 0 * (-inf) must read as 0 (impossible terms get -inf from the other factor)
    with np.errstate(invalid="ignore"):
        t1 = np.where(ks > 0, ks * lp, 0.0)
        t2 = np.where(n - ks > 0, (n - ks) * lq, 0.0)
    return logc + t1 + t2


def log_binomial_tail(n, k, p, side):
    """ln P(Bin(n, p) <= k) for side='lower', ln P(Bin(n, p) >= k) for 'upper'.

    Computed by log-sum-exp over exact log-pmf terms.
    """
    if not (0 <= k <= n):
        raise ValueError("log_binomial_tail requires 0 <= k <= n")
    if not (0.0 <= p <= 1.0):
        raise ValueError("log_binomial_tail requires p in [0, 1]")
    if side == "lower":
        ks = np.arange(0, k + 1)
    elif side == "upper":
        ks = np.arange(k, n + 1)
    else:
        raise ValueError("side must be 'lower' or 'upper'")
    return float(logsumexp(_log_binomial_pmf(n, ks, p)))
