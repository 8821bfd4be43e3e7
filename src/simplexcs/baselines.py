"""Comparator constructions.

Coordinatewise aggregation of two-horse KT wealths (Bonferroni and
mixture), plus the non-time-uniform sets: Sanov-style, Mardia-style, and
exact Clopper-Pearson intervals combined by Bonferroni.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betaincinv, gammaln

# log_binomial_tail is not called here: it stays importable from this module
# as the binomial-tail oracle for the Clopper-Pearson endpoints
from .numerics import kl_divergence, log_binomial_tail, logsumexp  # noqa: F401
from .simplex import validate_count_vector, validate_prob_vector
from .wealth import _resolve_prior

__all__ = [
    "coordinate_log_wealths",
    "coordinate_log_wealths_many",
    "bonferroni_membership",
    "mixture_membership",
    "sanov_radius",
    "sanov_membership",
    "mardia_gate",
    "mardia_radius",
    "mardia_membership",
    "clopper_pearson_interval",
]


def coordinate_log_wealths_many(counts, t, cands, prior=None):
    """Per-coordinate KT(2) log wealths over an (A, K) candidate block.

    Entry (a, j) is the two-horse KT log wealth of the binary sequence with
    counts (k_j, t - k_j) against (m_aj, 1 - m_aj); the K two-horse q terms
    share one gammaln call.  Candidate coordinates are clipped to [0, 1].
    """
    k = np.asarray(counts, dtype=float)
    m = np.clip(np.asarray(cands, dtype=float), 0.0, 1.0)
    prior = _resolve_prior(prior, 2)
    a = np.stack([k + prior.alpha[0], (t - k) + prior.alpha[1]])
    g = gammaln(np.concatenate([a, a.sum(axis=0, keepdims=True)]))
    q = (g[0] + g[1] - g[2]) - prior.log_beta
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (
            np.where(k > 0.0, k * -np.log(m), 0.0)
            + np.where(t - k > 0.0, (t - k) * -np.log(1.0 - m), 0.0)
        )
    return w + q


def coordinate_log_wealths(counts, m, prior=None):
    """Per-coordinate KT(2) log wealths at one candidate mean m."""
    counts, t = validate_count_vector(counts)
    m = validate_prob_vector(m)
    return coordinate_log_wealths_many(counts, t, m[None, :], prior)[0]


def bonferroni_membership(coord_log_wealths, delta):
    """In iff every coordinate log-wealth < ln(K/delta)."""
    w = np.asarray(coord_log_wealths, dtype=float)
    K = w.size
    return bool(np.all(w < math.log(K) - math.log(delta)))


def mixture_membership(coord_log_wealths, delta):
    """In iff the averaged wealth (1/K) sum_j W_j stays strictly below 1/delta."""
    w = np.asarray(coord_log_wealths, dtype=float)
    K = w.size
    if np.any(np.isinf(w) & (w > 0)):
        return False
    return bool(logsumexp(w) - math.log(K) < -math.log(delta))


def sanov_radius(t, K, delta):
    """KL radius ln(1/delta)/t + (K/t) ln(t+1); fixed-t guarantee only."""
    if t < 1:
        raise ValueError("sanov_radius requires t >= 1")
    return -math.log(delta) / t + K / t * math.log(t + 1.0)


def sanov_membership(mu_hat, m, t, delta):
    mu_hat = validate_prob_vector(mu_hat)
    m = validate_prob_vector(m)
    return kl_divergence(mu_hat, m) < sanov_radius(t, mu_hat.size, delta)


def mardia_gate(K):
    """Smallest t at which the Mardia-style bound applies: t >= 8 pi (K/e)^3."""
    return 8.0 * math.pi * (K / math.e) ** 3


def mardia_radius(t, K, delta):
    """KL radius (K-1)/t * ln(2(K-1)/delta), valid only past the gate."""
    return (K - 1) / t * math.log(2.0 * (K - 1) / delta)


def mardia_membership(mu_hat, m, t, delta):
    """Membership test, or None when t is below the applicability gate."""
    mu_hat = validate_prob_vector(mu_hat)
    m = validate_prob_vector(m)
    K = mu_hat.size
    if t < mardia_gate(K):
        return None
    return kl_divergence(mu_hat, m) < mardia_radius(t, K, delta)


def clopper_pearson_interval(k, n, delta_prime):
    """Exact two-sided Clopper-Pearson interval at level 1 - delta_prime.

    The endpoints are Beta quantiles, B^-1(dp/2; k, n-k+1) and
    B^-1(1-dp/2; k+1, n-k), with 0 at k=0 and 1 at k=n.  k may be an array
    of counts; the endpoints are then arrays of its shape.
    """
    k = np.asarray(k)
    if n < 1 or np.any((k < 0) | (k > n)):
        raise ValueError("clopper_pearson_interval requires 0 <= k <= n, n >= 1")
    if not (0.0 < delta_prime < 1.0):
        raise ValueError("delta_prime must lie in (0, 1)")
    half = delta_prime / 2.0
    lower = np.where(k == 0, 0.0, betaincinv(np.maximum(k, 1), n - k + 1, half))
    upper = np.where(k == n, 1.0, betaincinv(k + 1, np.maximum(n - k, 1), 1.0 - half))
    if k.ndim == 0:
        return float(lower), float(upper)
    return lower, upper
