"""Confidence sets from wealth processes.

A candidate grid over the simplex plus per-candidate running-maximum
log-wealth realizes the Ville-inequality sublevel set with the running
intersection built in: once a candidate's running max crosses ln(1/delta)
it is excluded permanently.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import shannon_entropy
from .simplex import enumerate_grid, validate_count_vector
from .wealth import q_kt

__all__ = [
    "log_threshold",
    "membership",
    "kt_kl_threshold",
    "thm3b_lower_bound",
    "thm3c_asymptotic_threshold",
    "simplex_candidate_grid",
    "ConfidenceSet",
    "boundary_radius",
]


def log_threshold(delta):
    """ln(1/delta); validates delta in (0, 1)."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    return -math.log(delta)


def membership(log_wealth_at_m, delta):
    """True iff log-wealth < ln(1/delta), strictly (ties are excluded)."""
    if math.isnan(log_wealth_at_m):
        raise ValueError("log-wealth is NaN")
    return log_wealth_at_m < log_threshold(delta)


def kt_kl_threshold(counts, delta, prior=None):
    """KL radius of the KT set: D(mu_hat || m) < threshold iff m is in.

    Algebraically identical to the direct wealth test; counts may be
    fractional (t * mu_hat for probability-vector data).
    """
    counts = np.asarray(counts, dtype=float)
    t = counts.sum()
    if t < 1.0 - 1e-12:
        raise ValueError("kt_kl_threshold requires t >= 1")
    mu_hat = counts / t
    return (log_threshold(delta) - q_kt(counts, prior)) / t - shannon_entropy(mu_hat)


def thm3b_lower_bound(counts, delta, prior=None):
    """Coordinatewise lower bounds obeyed by every member of the KT set:
    m_j > (k_j / t) * (delta * q(k))^(1/t)."""
    counts, t = validate_count_vector(counts)
    if t < 1:
        raise ValueError("thm3b_lower_bound requires t >= 1")
    log_threshold(delta)
    factor = math.exp((math.log(delta) + q_kt(counts, prior)) / t)
    return counts / t * factor


def thm3c_asymptotic_threshold(t, K, delta):
    """Two-term large-t KL radius: ln(1/delta)/t + (K-1)/(2t) * ln t."""
    if t < 2:
        raise ValueError("thm3c_asymptotic_threshold requires t >= 2")
    return log_threshold(delta) / t + (K - 1) / (2.0 * t) * math.log(t)


def simplex_candidate_grid(K, G):
    """The resolution-G candidate grid {k / G : k in G(K, G)} as (A, K) floats."""
    if G < 1:
        raise ValueError(f"grid resolution {G} must be >= 1")
    return enumerate_grid(K, G).astype(float) / G


class ConfidenceSet:
    """Candidate grid + per-candidate running-max log-wealth at level delta."""

    def __init__(self, candidates, delta):
        candidates = np.asarray(candidates, dtype=float)
        if candidates.ndim != 2 or candidates.shape[0] == 0:
            raise ValueError("candidates must be a nonempty (A, K) array")
        self.candidates = candidates
        self.threshold = log_threshold(delta)
        self.delta = delta
        self.running_max = np.zeros(candidates.shape[0])
        self.active = np.ones(candidates.shape[0], dtype=bool)

    def active_indices(self):
        return np.flatnonzero(self.active)

    def active_candidates(self):
        return self.candidates[self.active]

    def update(self, log_wealth_active):
        """Fold in fresh log-wealth for the currently active candidates.

        log_wealth_active must be aligned with active_indices(); inactive
        candidates are never re-evaluated.  Returns self.
        """
        idx = self.active_indices()
        lw = np.asarray(log_wealth_active, dtype=float)
        if lw.shape != idx.shape:
            raise ValueError("log-wealth length must match the active count")
        if np.any(np.isnan(lw)):
            raise ValueError("log-wealth contains NaN")
        rm = np.maximum(self.running_max[idx], lw)
        self.running_max[idx] = rm
        self.active[idx] = rm < self.threshold
        return self

    def relative_volume(self):
        return float(self.active.mean())

    def to_csv(self, path):
        """One row per candidate: coordinates, running max log-wealth, active."""
        with open(path, "w") as fh:
            K = self.candidates.shape[1]
            cols = ",".join(f"m{j + 1}" for j in range(K))
            fh.write(f"{cols},running_max_log_wealth,active\n")
            for i in range(self.candidates.shape[0]):
                coords = ",".join(f"{c:.12g}" for c in self.candidates[i])
                fh.write(
                    f"{coords},{self.running_max[i]:.12g},{int(self.active[i])}\n"
                )


def boundary_radius(member, center, direction, iters=16):
    """Bisect for the membership boundary along center + s * direction, s in [0, 1].

    member is a point-membership predicate; justified by convexity of the
    gambling confidence sets.  Returns the sup of the member segment.
    test_boundary_radius_matches_kl_boundary checks the KT set's KL form
    (kt_kl_threshold) against it.
    """
    center = np.asarray(center, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if not member(center):
        return 0.0
    lo, hi = 0.0, 1.0
    if member(center + direction):
        return 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if member(center + mid * direction):
            lo = mid
        else:
            hi = mid
    return lo
