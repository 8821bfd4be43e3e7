"""Sampling-without-replacement audit engine.

Hypotheses are integer censuses in G(K, N); the active ones are the columns
of one (K, A) block in enumeration order.  Each draw drops the columns whose
log-wealth under the chosen kernel (the posterior-prior ratio, or the final
plug-in KT, which does not cover the true census) reaches ln(1/delta): every
earlier wealth of an active census was below it, so this is the running max.
"""

from __future__ import annotations

import numpy as np

from .confset import log_threshold
from .simplex import enumerate_grid
from .wealth import _resolve_prior, wor_log_wealth_many

METHODS = ("wor-kt", "ppr")

__all__ = [
    "METHODS",
    "AuditState",
    "category_count_bounds",
    "rank_decided",
    "stopping_time",
]


class AuditState:
    """Active-census bookkeeping for one audit replay."""

    def __init__(self, N, K, delta, method="ppr", prior=None):
        if method not in METHODS:
            raise ValueError(f"unknown WoR method {method!r}; pick from {METHODS}")
        self.N = N
        self.K = K
        self.threshold = log_threshold(delta)
        self.method = method
        self.prior = _resolve_prior(prior, K)
        self.drawn = np.zeros(K, dtype=np.int64)
        self.t = 0
        self._set_active(np.ascontiguousarray(enumerate_grid(K, N).T))

    def _set_active(self, cols):
        self.cols = cols
        self.bounds = (np.stack([cols.min(axis=1), cols.max(axis=1)], axis=1)
                       if cols.shape[1] else None)

    def active_censuses(self):
        """The active censuses as (A, K) rows, a view of the column block."""
        return self.cols.T

    def active_count(self):
        return int(self.cols.shape[1])

    def absorb(self, category):
        """Record one draw of the given 0-based category; prune exclusions."""
        if self.t >= self.N - 1:
            raise ValueError(f"draw {self.t + 1} is past N-1 = {self.N - 1}")
        if not (0 <= category < self.K):
            raise ValueError("category out of range")
        self.drawn[category] += 1
        self.t += 1
        w = wor_log_wealth_many(self.drawn[:, None], self.cols, self.N,
                                self.method, self.prior)
        keep = w < self.threshold
        if not keep.all():
            self._set_active(np.compress(keep, self.cols, axis=1))
        return self

    def replay(self, draws):
        """Absorb a sequence of 0-based draws, up to t = N-1, until the rank
        order is decided or no census is left; the deciding t, or N."""
        for cat in draws[: self.N - 1 - self.t]:
            self.absorb(int(cat))
            if self.active_count() == 0:
                # every census excluded (possible under the diverging
                # plug-in kernel); no rank decision can be read off
                break
            if rank_decided(self):
                return self.t
        return self.N


def category_count_bounds(state):
    """Per-category [L_j, U_j] over the active censuses."""
    if state.bounds is None:
        raise RuntimeError(
            "no active census remains: coverage failure or misconfiguration "
            f"(N={state.N}, K={state.K}, method={state.method}, t={state.t})"
        )
    return state.bounds.copy()


def rank_decided(state):
    """True iff the per-category count intervals are pairwise disjoint."""
    bounds = category_count_bounds(state)
    lo, hi = bounds[np.argsort(bounds[:, 0], kind="stable")].T
    return bool(np.all(hi[:-1] < lo[1:]))


def stopping_time(draws, N, K, delta, method="ppr", prior=None):
    """First t at which the rank order is decided, replaying a draw stream.

    draws is a sequence of 0-based category labels; only the first N-1
    draws are consumed.  Returns N as the never-decided sentinel.
    """
    return AuditState(N, K, delta, method=method, prior=prior).replay(draws)
