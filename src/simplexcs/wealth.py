"""Gambling wealth kernels.

Every kernel returns log-wealth for a candidate mean: the KT mixture for
categorical data, the constant bettor and Cover-style universal portfolio
for probability-vector data, and the without-replacement variants
(plug-in KT, per-round plug-in, posterior-prior ratio).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .numerics import log_multi_beta, logsumexp
from .simplex import (
    GRID_CAP,
    GridCapExceeded,
    enumerate_grid,
    grid_size,
    rank_many,
    validate_count_vector,
    validate_prob_vector,
)

__all__ = [
    "DirichletPrior",
    "q_kt",
    "kt_log_wealth",
    "kt_log_wealth_many",
    "constant_bettor_log_wealth",
    "UPState",
    "wor_mean_transform",
    "wor_kt_log_wealth",
    "perround_wor_log_wealth",
    "ppr_log_wealth",
    "wor_log_wealth_many",
]


class DirichletPrior:
    """Dirichlet mixing weights over constant bets; default alpha = 1/2."""

    def __init__(self, alpha):
        alpha = np.asarray(alpha, dtype=float)
        if alpha.ndim != 1 or alpha.size < 1 or np.any(alpha <= 0.0):
            raise ValueError("Dirichlet prior requires positive alpha")
        self.alpha = alpha
        self.log_beta = log_multi_beta(alpha)

    @classmethod
    def jeffreys(cls, K):
        return cls(np.full(K, 0.5))

    def __repr__(self):
        return f"DirichletPrior({self.alpha.tolist()})"


def _resolve_prior(prior, K):
    if prior is None:
        return DirichletPrior.jeffreys(K)
    if prior.alpha.size != K:
        raise ValueError("prior dimension mismatch")
    return prior


def q_kt(x, prior=None):
    """log of q(x) = B(x + alpha) / B(alpha) for a nonnegative real vector x."""
    x = np.asarray(x, dtype=float)
    prior = _resolve_prior(prior, x.size)
    a = x + prior.alpha
    if np.any(a <= 0.0):
        raise ValueError("q_kt requires x + alpha > 0")
    return log_multi_beta(a) - prior.log_beta


def kt_log_wealth(counts, m, prior=None):
    """Log KT mixture wealth at candidate mean m given the count vector.

    Accepts fractional counts (needed for the KL form at t * mu_hat).
    m_j = 0 with a positive count excludes m with certainty (+inf);
    m_j = 0 with a zero count contributes nothing (0^0 = 1 convention).
    """
    counts = np.asarray(counts, dtype=float)
    m = validate_prob_vector(m)
    if counts.shape != m.shape:
        raise ValueError("kt_log_wealth: dimension mismatch")
    return float(kt_log_wealth_many(counts, m[None, :], prior)[0])


def kt_log_wealth_many(counts, cands, prior=None):
    """Vectorized kt_log_wealth over an (A, K) array of candidate means.

    Coordinates below 0, such as those in [-tol, 0) that
    validate_prob_vector accepts, count as 0.
    """
    counts = np.asarray(counts, dtype=float)
    cands = np.maximum(np.asarray(cands, dtype=float), 0.0)
    q = q_kt(counts, prior)
    with np.errstate(divide="ignore", invalid="ignore"):
        neglog = -np.log(cands)
        terms = np.where(counts[None, :] > 0.0, neglog * counts[None, :], 0.0)
    return terms.sum(axis=1) + q


def constant_bettor_log_wealth(obs, b, m):
    """Log wealth of a constant bettor b against candidate mean m.

    Per-round gain is sum_j b_j y_ij / m_j; a round with zero gain
    bankrupts the bettor (-inf), it is not an error.
    """
    obs = np.asarray(obs, dtype=float)
    if obs.size == 0:
        return 0.0
    if obs.ndim != 2:
        raise ValueError("obs must be a (t, K) array")
    b = validate_prob_vector(b)
    m = validate_prob_vector(m)
    if obs.shape[1] != m.size or b.size != m.size:
        raise ValueError("constant_bettor_log_wealth: dimension mismatch")
    zero = m == 0.0
    if np.any(obs[:, zero] > 0.0):
        raise ValueError("m_j = 0 requires y_ij = 0 for all rounds")
    pos = ~zero
    gains = obs[:, pos] @ (b[pos] / m[pos])
    with np.errstate(divide="ignore"):
        return float(np.sum(np.log(gains)))


# ---------------------------------------------------------------------------
# Universal portfolio dynamic program
# ---------------------------------------------------------------------------

# candidate rows per matmul block in UPState.log_wealth_many
_CHUNK = 256


def _next_grid(grid, t):
    """G(K, t + 1) from G(K, t), as an (M, K) int array in colex order.

    The rows with k_K >= 1 are G(K, t) plus e_K, in order; the rows with
    k_K = 0 are G(K - 1, t + 1), at their colex ranks.  Columns are stored
    contiguously, since every reader takes the grid a column at a time.
    """
    K = grid.shape[1]
    n1 = grid_size(K, t + 1)
    if n1 > GRID_CAP:
        raise GridCapExceeded(
            f"|G({K},{t + 1})| = {n1} exceeds the grid cap of {GRID_CAP} entries"
        )
    face = np.zeros((grid_size(K - 1, t + 1), K), dtype=np.int64)
    face[:, :-1] = enumerate_grid(K - 1, t + 1)
    zero = rank_many(face)
    rest = np.ones(n1, dtype=bool)
    rest[zero] = False
    out = np.empty((n1, K), dtype=np.int64, order="F")
    for j in range(K):
        col = out[:, j]
        col[rest] = grid[:, j]
        col[zero] = face[:, j]
    out[:, -1] += rest
    return out


class UPState:
    """Dynamic-programming state of the universal-portfolio wealth.

    grid holds G(K, t) in colex order and table[r] holds log y^t[k] for its
    row r; entries sum (in probability scale) to 1 whenever all absorbed
    observations lie on the simplex.  States are values: absorb returns a
    new state, and each state owns its grid.
    """

    __slots__ = ("K", "t", "prior", "grid", "table", "_support", "_aug")

    def __init__(self, K, prior=None):
        if K < 2:
            raise ValueError("UPState requires K >= 2")
        self.K = K
        self.prior = _resolve_prior(prior, K)
        self.t = 0
        self.grid = np.zeros((1, K), dtype=np.int64)
        self.table = np.zeros(1)
        # support[j]: some observation had y_j > 0, i.e. some k with
        # k_j >= 1 carries mass
        self._support = np.zeros(K, dtype=bool)
        self._aug = None

    def absorb(self, y):
        """Absorb one simplex-valued observation; returns the new state."""
        y = validate_prob_vector(y)
        if y.size != self.K:
            raise ValueError("observation dimension mismatch")
        grid = _next_grid(self.grid, self.t)
        table = np.full(grid.shape[0], -math.inf)
        for n, j in enumerate(np.flatnonzero(y)):
            # the rows with k_j >= 1, less e_j, are G(K, t) in order
            pos = grid[:, j] >= 1
            term = self.table + math.log(y[j])
            # logaddexp(-inf, x) is exactly x, so the first term is stored
            table[pos] = np.logaddexp(table[pos], term) if n else term
        s = UPState.__new__(UPState)
        s.K, s.prior, s.t, s.grid, s.table = self.K, self.prior, self.t + 1, grid, table
        s._support = self._support | (y > 0.0)
        s._aug = None
        return s

    def _augmented(self):
        """Float [grid | log-weight] block restricted to rows with mass, so
        the weight add rides along with the matmul.  The log-weight of k is
        table[k] + log q(k), the m-independent part of the UP wealth."""
        if self._aug is None:
            grid, table = self.grid, self.table
            alive = table > -math.inf
            if not np.all(alive):
                grid = grid[alive]
                table = table[alive]
            alpha, t = self.prior.alpha, self.t
            q = np.full(table.size, -gammaln(t + alpha.sum()) - self.prior.log_beta)
            lut = gammaln(np.arange(t + 1, dtype=float)[:, None] + alpha)
            for j in range(self.K):
                q += lut[grid[:, j], j]
            aug = np.empty((table.size, self.K + 1))
            aug[:, : self.K] = grid
            aug[:, self.K] = table + q
            self._aug = aug
        return self._aug

    def log_wealth_many(self, cands):
        """Log UP wealth at each row of an (A, K) array of candidate means.

        Coordinates below 0, such as those in [-tol, 0) that
        validate_prob_vector accepts, count as 0.
        """
        cands = np.maximum(np.asarray(cands, dtype=float), 0.0)
        if cands.ndim != 2 or cands.shape[1] != self.K:
            raise ValueError("candidates must be (A, K)")
        A = cands.shape[0]
        if self.t == 0:
            return np.zeros(A)
        aug = self._augmented()
        if aug.shape[0] == 0:
            return np.full(A, -math.inf)
        out = np.empty(A)
        zero_mask = cands == 0.0
        # candidates with a zero coordinate that already carries mass diverge
        diverged = np.any(zero_mask & self._support[None, :], axis=1)
        neglog = np.empty((A, self.K + 1))
        neglog[:, : self.K] = np.where(
            zero_mask, 0.0, -np.log(np.where(zero_mask, 1.0, cands))
        )
        neglog[:, self.K] = 1.0
        for lo in range(0, A, _CHUNK):
            hi = min(lo + _CHUNK, A)
            L = aug @ neglog[lo:hi].T  # (M, chunk)
            mx = L.max(axis=0)
            L -= mx[None, :]
            np.exp(L, out=L)
            out[lo:hi] = mx + np.log(L.sum(axis=0))
        out[diverged] = math.inf
        return out

    def log_wealth(self, m):
        """Log UP wealth at a single candidate mean."""
        m = validate_prob_vector(m)
        return float(self.log_wealth_many(m[None, :])[0])

    def table_mass(self):
        """sum_k exp(table[k]); equals 1 for simplex-valued histories."""
        finite = self.table[self.table > -math.inf]
        if finite.size == 0:
            return 0.0
        return float(np.exp(logsumexp(finite)))


# ---------------------------------------------------------------------------
# Sampling without replacement
# ---------------------------------------------------------------------------


def wor_mean_transform(m, drawn, N):
    """Mean of the remaining population under hypothesis m: (N m - drawn)/(N - t).

    Coordinates may come out negative; an infeasible hypothesis is the
    caller's to exclude, not an error here.
    """
    m = np.asarray(m, dtype=float)
    drawn, t = validate_count_vector(drawn)
    if t >= N:
        raise ValueError("wor_mean_transform requires sum(drawn) < N")
    return (N * m - drawn) / (N - t)


def wor_kt_log_wealth(drawn, m, N, prior=None):
    """Log KT wealth with the final WoR plug-in mean in place of m.

    A category already exhausted (or over-drawn) under m while having been
    drawn diverges to +inf: the census is excluded with certainty.
    """
    drawn, t = validate_count_vector(drawn)
    m = np.asarray(m, dtype=float)
    if m.shape != drawn.shape:
        raise ValueError("wor_kt_log_wealth: dimension mismatch")
    if t > N - 1:
        raise ValueError("wor_kt_log_wealth requires sum(drawn) <= N - 1")
    rem = N * m - drawn
    if np.any((rem <= 0.0) & (drawn >= 1)) or np.any(rem < 0.0):
        return math.inf
    val = q_kt(drawn, prior)
    pos = drawn >= 1
    val -= float(np.sum(drawn[pos] * (np.log(rem[pos]) - math.log(N - t))))
    return val


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


def ppr_log_wealth(drawn, census, prior=None):
    """Log posterior-prior-ratio wealth at an integer census hypothesis."""
    drawn, t = validate_count_vector(drawn)
    census, N = validate_count_vector(census)
    if drawn.shape != census.shape:
        raise ValueError("ppr_log_wealth: dimension mismatch")
    if t > N - 1:
        raise ValueError("ppr_log_wealth requires sum(drawn) <= N - 1")
    if np.any(census < drawn):
        return math.inf
    val = q_kt(drawn, prior)
    log_multinom_full = float(gammaln(N + 1.0) - np.sum(gammaln(census + 1.0)))
    remaining = census - drawn
    log_multinom_rem = float(
        gammaln(N - t + 1.0) - np.sum(gammaln(remaining + 1.0))
    )
    return val + log_multinom_full - log_multinom_rem


def wor_log_wealth_many(drawn, censuses, N, method, prior=None):
    """Vectorized WoR log-wealth of drawn counts against census hypotheses.

    drawn and censuses are category-leading, (K, ...), and pair up by
    broadcasting over the trailing axes.  method "ppr" is ppr_log_wealth and
    "wor-kt" is wor_kt_log_wealth at m = census / N.  A census below the
    drawn counts, and under wor-kt a drawn category the census has
    exhausted, gives +inf.  Log-factorials and log-integers come from tables
    over 0..N; the per-category terms are added in category order.
    """
    drawn = np.asarray(drawn, dtype=np.int64)
    censuses = np.asarray(censuses, dtype=np.int64)
    K = drawn.shape[0]
    prior = _resolve_prior(prior, K)
    t = drawn.sum(axis=0)
    a = drawn + prior.alpha.reshape((K,) + (1,) * (drawn.ndim - 1))
    q = gammaln(a).sum(axis=0) - gammaln(a.sum(axis=0)) - prior.log_beta
    infeasible, total = False, 0.0
    if method == "ppr":
        lgfact = gammaln(np.arange(N + 1, dtype=float) + 1.0)
        for c, d in zip(censuses, drawn, strict=True):
            infeasible = infeasible | (c < d)
            total = total + (lgfact[c] - lgfact[np.maximum(c - d, 0)])
        w = q + (lgfact[N] - lgfact[N - t]) - total
    elif method == "wor-kt":
        logint = np.log(np.maximum(np.arange(N + 1, dtype=float), 1.0))
        for c, d in zip(censuses, drawn, strict=True):
            infeasible = infeasible | (c < d) | ((c == d) & (d >= 1))
            total = total + d * logint[np.maximum(c - d, 1)]
        w = q + (t * logint[N - t] - total)
    else:
        raise ValueError(f"unknown WoR method {method!r}")
    return np.where(infeasible, math.inf, w)
