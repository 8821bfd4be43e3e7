"""Sampling-without-replacement audit engine.

Hypotheses are integer censuses in G(K, N).  The posterior-prior-ratio
log-wealth is convex in the census, so the active set, the censuses whose
running max stays below ln(1/delta), meets every lattice line in one
contiguous run.  The state keeps one run per line.  The lines are the
rows of G(K-1, N), read as (c_1, ..., c_{K-2}, s) with s = c_0 + c_{K-1};
line i holds the censuses with c_0 in [lo_i, hi_i] and c_{K-1} = s_i - c_0.
So the state has |G(K-1, N)| lines (N + 1 at K = 3), not |G(K, N)| columns.

Each draw rebuilds the drawn category's term table over 0..N, evaluates the
wealth at both ends of every line, moves each excluded end inward (scanning
windows whose width doubles, at most _SCAN_POINTS points per block), and
drops the lines left empty.  An active census had every earlier wealth below
the threshold, so only this draw's wealth is checked.  The wealth is the
kernel's own sum of per-category terms, bit for bit.  The scan is exact
while the computed wealth keeps the run contiguous: along a line an interior
point's wealth is below the larger end's by at least the second difference,
about 1/N^2, far above rounding at N <= 1000.  N >= 10^5 is out of scope: an
end can move by thousands of points in one draw, which needs a bisection
along each line rather than a scan.
"""

from __future__ import annotations

import numpy as np

from .confset import log_threshold
from .simplex import enumerate_grid
from .wealth import _resolve_prior, _wor_finish, _wor_table, _wor_term

METHODS = ("ppr",)

__all__ = [
    "METHODS",
    "AuditState",
    "category_count_bounds",
    "rank_decided",
    "stopping_time",
]

# an excluded end is scanned inward in windows of _FIRST_WIDTH points, then
# twice as many each round; at most _SCAN_POINTS points are evaluated at once
_FIRST_WIDTH = 16
_SCAN_POINTS = 1 << 16


class AuditState:
    """Active-census bookkeeping for one audit replay.  method names the
    WoR wealth and must be one of METHODS."""

    def __init__(self, N, K, delta, method="ppr", prior=None):
        if method not in METHODS:
            raise ValueError(f"unknown WoR method {method!r}; pick from {METHODS}")
        if K < 2:
            raise ValueError("an audit needs K >= 2 categories")
        self.N = N
        self.K = K
        self.threshold = log_threshold(delta)
        self.prior = _resolve_prior(prior, K)
        self.drawn = np.zeros(K, dtype=np.int64)
        self.t = 0
        self._table = _wor_table(N)
        self._values = np.arange(N + 1)
        # terms[j][v]: category j's term at census count v; 0 before any draw
        self._terms = np.zeros((K, N + 1))
        self._finish = None
        lines = enumerate_grid(K - 1, N)
        self._set_runs(np.ascontiguousarray(lines[:, :-1].T), lines[:, -1],
                       np.zeros(lines.shape[0], dtype=np.int64),
                       lines[:, -1].copy())

    def _set_runs(self, mid, s, lo, hi):
        """Store the live lines: mid (K-2, L) holds c_1..c_{K-2}, and c_0
        runs over [lo, hi]."""
        self._mid, self._s, self._lo, self._hi = mid, s, lo, hi
        self._count = int((hi - lo).sum()) + lo.size
        if not lo.size:
            self.bounds = None
            return
        bounds = np.empty((self.K, 2), dtype=np.int64)
        bounds[0] = lo.min(), hi.max()
        for j, c in enumerate(mid, start=1):
            bounds[j] = c.min(), c.max()
        bounds[-1] = (s - hi).min(), (s - lo).max()
        self.bounds = bounds

    def active_censuses(self):
        """The active censuses as (A, K) rows, in the colex order of
        enumerate_grid(K, N): lines in order, c_0 ascending along each."""
        size = self._hi - self._lo + 1
        line = np.repeat(np.arange(size.size), size)
        c0 = np.arange(self._count) - np.repeat(np.cumsum(size) - size - self._lo,
                                                size)
        out = np.empty((self._count, self.K), dtype=np.int64)
        out[:, 0] = c0
        out[:, 1:-1] = self._mid[:, line].T
        out[:, -1] = self._s[line] - c0
        return out

    def active_count(self):
        return self._count

    def _excluded(self, line, c0):
        """Does this draw's wealth reach the threshold at c_0 on the given
        lines (an index array or slice, broadcast against c0)?"""
        terms = self._terms
        total = terms[0][c0]
        for j, c in enumerate(self._mid, start=1):
            total = total + terms[j][c[line]]
        total = total + terms[-1][self._s[line] - c0]
        return self._finish(total) >= self.threshold

    def _scan(self, line, start, stop, step):
        """For each line[n], whose c_0 = start[n] is excluded, the first c_0
        past it, moving by step[n] (+1 or -1) toward stop[n], that is not
        excluded, or stop[n] + step[n] when none is.  The windows start at
        _FIRST_WIDTH points and double, with at most _SCAN_POINTS points
        evaluated at once."""
        out = stop + step
        start = start.copy()
        pending = np.arange(line.size)
        width = _FIRST_WIDTH
        while pending.size:
            per = max(1, _SCAN_POINTS // width)
            left = []
            for b in range(0, pending.size, per):
                p = pending[b:b + per]
                sp, end = step[p, None], stop[p, None]
                c0 = start[p, None] + sp * np.arange(1, width + 1)
                past = (c0 - end) * sp > 0
                excl = past | self._excluded(line[p, None],
                                             np.where(past, end, c0))
                first = excl.argmin(axis=1)
                hit = ~excl[np.arange(p.size), first]
                out[p[hit]] = c0[hit, first[hit]]
                # missed, with points left before stop
                more = ~hit & ((end[:, 0] - c0[:, -1]) * sp[:, 0] > 0)
                start[p[more]] = c0[more, -1]
                left.append(p[more])
            pending = np.concatenate(left)
            width *= 2
        return out

    def absorb(self, category):
        """Record one draw of the given 0-based category; prune exclusions."""
        if self.t >= self.N - 1:
            raise ValueError(f"draw {self.t + 1} is past N-1 = {self.N - 1}")
        if not (0 <= category < self.K):
            raise ValueError("category out of range")
        self.drawn[category] += 1
        self.t += 1
        self._terms[category] = _wor_term(self._table, self._values,
                                          self.drawn[category])
        self._finish = _wor_finish(self._table, self.drawn[:, None], self.N,
                                   self.prior)
        lo, hi = self._lo, self._hi
        out = self._excluded(slice(None), np.stack([lo, hi]))
        if not out.any():
            return self
        # scan each excluded end inward; with the run contiguous, the two
        # scans of one line meet only when the whole line is excluded,
        # and then they cross
        lo_line, hi_line = np.flatnonzero(out[0]), np.flatnonzero(out[1])
        line = np.concatenate([lo_line, hi_line])
        end = self._scan(line, np.concatenate([lo[lo_line], hi[hi_line]]),
                         np.concatenate([hi[lo_line], lo[hi_line]]),
                         np.repeat(np.array([1, -1]), [lo_line.size, hi_line.size]))
        lo, hi = lo.copy(), hi.copy()
        lo[lo_line], hi[hi_line] = end[:lo_line.size], end[lo_line.size:]
        keep = lo <= hi
        self._set_runs(self._mid[:, keep], self._s[keep], lo[keep], hi[keep])
        return self

    def replay(self, draws):
        """Absorb a sequence of 0-based draws, up to t = N-1, until the rank
        order is decided or no census is left; the deciding t, or N."""
        for cat in draws[: self.N - 1 - self.t]:
            self.absorb(int(cat))
            if self.active_count() == 0:
                # every census excluded, the true one included (probability
                # at most delta); no rank decision can be read off
                break
            if rank_decided(self):
                return self.t
        return self.N


def category_count_bounds(state):
    """Per-category [L_j, U_j] over the active censuses."""
    if state.bounds is None:
        raise RuntimeError(
            "no active census remains: coverage failure or misconfiguration "
            f"(N={state.N}, K={state.K}, t={state.t})"
        )
    return state.bounds.copy()


def rank_decided(state):
    """True iff the per-category count intervals are pairwise disjoint."""
    bounds = category_count_bounds(state)
    lo, hi = bounds[np.argsort(bounds[:, 0], kind="stable")].T
    return bool(np.all(hi[:-1] < lo[1:]))


def stopping_time(draws, N, K, delta, prior=None):
    """First t at which the rank order is decided, replaying a draw stream.

    draws is a sequence of 0-based category labels; only the first N-1
    draws are consumed.  Returns N as the never-decided sentinel.
    """
    return AuditState(N, K, delta, prior=prior).replay(draws)
