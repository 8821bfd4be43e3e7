"""Reference forms of the without-replacement wealth, kept beside the tests
that compare the library against them."""

import math

import numpy as np
from scipy.special import gammaln

from simplexcs.confset import log_threshold
from simplexcs.simplex import (
    enumerate_grid,
    rank_many,
    validate_count_vector,
    validate_prob_vector,
)
from simplexcs.wealth import q_kt, wor_log_wealth_many


def perround_wor_log_wealth(draws, m, N, prior=None):
    """Log wealth of the round-by-round WoR plug-in, in closed form.

    Defined for census hypotheses only: N * m must be integer-valued.
    Uses falling factorials; the literal sequential product is kept as a
    test oracle.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2:
        raise ValueError("draws must be a (t, K) array of one-hot vectors")
    for row in draws:
        validate_prob_vector(row)
        if not np.all((row == 0.0) | (row == 1.0)):
            raise ValueError("perround_wor_log_wealth requires one-hot draws")
    counts, t = validate_count_vector(draws.sum(axis=0))
    m = np.asarray(m, dtype=float)
    if t > N - 1:
        raise ValueError("perround_wor_log_wealth requires t <= N - 1")
    nm = N * m
    nmi = np.rint(nm)
    if np.any(np.abs(nm - nmi) > 1e-9):
        raise ValueError("N * m must be integer-valued (census hypothesis)")
    nmi = nmi.astype(np.int64)
    if np.any(nmi < counts):
        return math.inf
    val = q_kt(counts, prior)
    # log (N)_t, falling factorial
    val += float(gammaln(N + 1.0) - gammaln(N - t + 1.0))
    # minus sum_j log (N m_j)_{K_tj}
    val -= float(np.sum(gammaln(nmi + 1.0) - gammaln(nmi - counts + 1.0)))
    return val


def exact_miscoverage(census, delta):
    """The exact probability, over uniform permutations of the census, that
    the PPR log-wealth at the true census reaches ln(1/delta) at some draw
    t <= N - 1, the audit's time-uniform miscoverage.

    The drawn counts k are a Markov chain on G(K, t) with hypergeometric
    steps k -> k + e_j of probability (c_j - k_j) / (N - t).  The mass not
    yet excluded is pushed through it, indexed by colex rank, and the mass
    whose wealth reaches the threshold is summed and dropped.
    """
    census = np.asarray(census, dtype=np.int64)
    K, N = census.size, int(census.sum())
    threshold = log_threshold(delta)
    grid, mass = np.zeros((1, K), dtype=np.int64), np.ones(1)
    missed = 0.0
    for t in range(N - 1):
        nxt = np.zeros(math.comb(t + K, K - 1))
        for j in range(K):
            p = mass * (census[j] - grid[:, j]) / (N - t)
            step = grid.copy()
            step[:, j] += 1
            nxt += np.bincount(rank_many(step[p > 0]), weights=p[p > 0],
                               minlength=nxt.size)
        live = nxt > 0
        grid, mass = enumerate_grid(K, t + 1)[live], nxt[live]
        crossed = wor_log_wealth_many(grid.T, census[:, None], N) >= threshold
        missed += mass[crossed].sum()
        grid, mass = grid[~crossed], mass[~crossed]
    return missed
