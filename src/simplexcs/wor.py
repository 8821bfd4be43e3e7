"""Sampling-without-replacement audit engine.

Hypotheses are integer censuses in G(K, N).  Each draw updates the
running-max log-wealth of every still-active census under the chosen
kernel (final plug-in KT, posterior-prior ratio, or the per-round
plug-in, which coincides with PPR in value); excluded censuses are
dropped permanently.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .confset import log_threshold
from .simplex import enumerate_grid
from .wealth import _resolve_prior, q_kt

METHODS = ("wor-kt", "ppr", "perround")

__all__ = [
    "METHODS",
    "AuditState",
    "category_count_bounds",
    "rank_decided",
    "stopping_time",
]


class AuditState:
    """Active-census bookkeeping for one audit replay."""

    def __init__(self, N, K, delta, method="wor-kt", prior=None):
        if method not in METHODS:
            raise ValueError(f"unknown WoR method {method!r}; pick from {METHODS}")
        self.N = N
        self.K = K
        self.delta = delta
        self.threshold = log_threshold(delta)
        self.method = method
        self.prior = _resolve_prior(prior, K)
        self.censuses = enumerate_grid(K, N)
        self.active_idx = np.arange(self.censuses.shape[0])
        self.running_max = np.zeros(self.censuses.shape[0])
        self.drawn = np.zeros(K, dtype=np.int64)
        self.t = 0
        # integer lookup tables shared by the vectorized kernels
        self._lgfact = gammaln(np.arange(N + 2, dtype=float) + 1.0)
        with np.errstate(divide="ignore"):
            self._logint = np.log(np.arange(N + 2, dtype=float))

    def active_censuses(self):
        return self.censuses[self.active_idx]

    def active_count(self):
        return int(self.active_idx.size)

    def _log_wealth_active(self):
        act = self.censuses[self.active_idx]
        drawn = self.drawn
        t = self.t
        N = self.N
        qv = q_kt(drawn.astype(float), self.prior)
        rem = act - drawn[None, :]
        infeasible = np.any(rem < 0, axis=1)
        w = np.full(act.shape[0], qv)
        if self.method == "wor-kt":
            # exhausted-and-drawn categories diverge
            infeasible |= np.any((rem == 0) & (drawn[None, :] >= 1), axis=1)
            pos = np.flatnonzero(drawn >= 1)
            if pos.size:
                logrem = self._logint[np.clip(rem[:, pos], 1, None)]
                w += t * math.log(N - t) - logrem @ drawn[pos].astype(float)
        else:  # ppr / perround share the closed-form value
            w += float(self._lgfact[N] - self._lgfact[N - t])
            safe = np.clip(rem, 0, None)
            w -= (self._lgfact[act] - self._lgfact[safe]).sum(axis=1)
        w[infeasible] = math.inf
        return w

    def absorb(self, category):
        """Record one draw of the given 0-based category; prune exclusions."""
        if self.t >= self.N - 1:
            raise ValueError("WoR wealth is defined for t in [N-1] only")
        if not (0 <= category < self.K):
            raise ValueError("category out of range")
        self.drawn[category] += 1
        self.t += 1
        w = self._log_wealth_active()
        rm = np.maximum(self.running_max[self.active_idx], w)
        self.running_max[self.active_idx] = rm
        self.active_idx = self.active_idx[rm < self.threshold]
        return self


def category_count_bounds(state):
    """Per-category [L_j, U_j] over the active censuses."""
    if state.active_count() == 0:
        raise RuntimeError(
            "no active census remains: coverage failure or misconfiguration "
            f"(N={state.N}, K={state.K}, method={state.method}, t={state.t})"
        )
    act = state.active_censuses()
    return np.stack([act.min(axis=0), act.max(axis=0)], axis=1)


def rank_decided(state):
    """True iff the per-category count intervals are pairwise disjoint."""
    bounds = category_count_bounds(state)
    order = np.argsort(bounds[:, 0], kind="stable")
    for a, b in zip(order[:-1], order[1:]):
        if bounds[a, 1] >= bounds[b, 0]:
            return False
    return True


def stopping_time(draws, N, K, delta, method="wor-kt", prior=None):
    """First t at which the rank order is decided, replaying a draw stream.

    draws is a sequence of 0-based category labels; only the first N-1
    draws are consumed.  Returns N as the never-decided sentinel.
    """
    state = AuditState(N, K, delta, method=method, prior=prior)
    for t, cat in enumerate(draws, start=1):
        if t > N - 1:
            break
        state.absorb(int(cat))
        if state.active_count() == 0:
            # every census excluded (possible under the diverging plug-in
            # kernel); no rank decision can be read off
            break
        if rank_decided(state):
            return t
    return N
