"""Gambling wealth kernels.

Every kernel returns log-wealth for a candidate mean: the KT mixture for
categorical data, the constant bettor and Cover-style universal portfolio
for probability-vector data, and the posterior-prior ratio (PPR) for
sampling without replacement, whose hypotheses are integer censuses.
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
    validate_prob_vector accepts, count as 0.  The per-coordinate terms
    (_kt_terms, which the harness also evaluates on coordinate levels) are
    summed by _kt_finish.
    """
    counts = np.asarray(counts, dtype=float)
    return _kt_finish(_kt_terms(counts, cands), counts, prior)


def _kt_terms(counts, cands):
    """The per-coordinate terms of the KT log wealth, -k_j ln m_j, elementwise
    over candidates (..., K): 0 where k_j = 0, +inf where m_j = 0 < k_j."""
    cands = np.maximum(np.asarray(cands, dtype=float), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(counts > 0.0, -np.log(cands) * counts, 0.0)


def _kt_finish(terms, counts, prior):
    """The KT log wealth of each row of an (A, K) block of _kt_terms: the
    row sum plus log q(k)."""
    return terms.sum(axis=1) + q_kt(counts, prior)


def constant_bettor_log_wealth(obs, b, m):
    """Log wealth of a constant bettor b against candidate mean m.

    Per-round gain is sum_j b_j y_ij / m_j; a round with zero gain
    bankrupts the bettor (-inf), it is not an error.  The UP wealth is its
    Dirichlet mixture over b; test_criterion_2_empirical_mean_never_excluded
    uses it as the oracle that no constant bet earns at the empirical mean.
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

# UPState.log_wealth_many evaluates its candidates in blocks of _CHUNK rows,
# or of more while the (live table rows, candidates) block stays within
# _PAIRS entries: a one-hot stream's table has one live row, and tables of
# 256 rows or more keep _CHUNK-row blocks
_CHUNK = 256
_PAIRS = 1 << 16


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
        chunk = max(_CHUNK, _PAIRS // aug.shape[0])
        for lo in range(0, A, chunk):
            hi = min(lo + chunk, A)
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


def ppr_log_wealth(drawn, census, prior=None):
    """Log posterior-prior-ratio wealth at an integer census hypothesis:
    one row of wor_log_wealth_many, in the audit engine's shape."""
    drawn, t = validate_count_vector(drawn)
    census, N = validate_count_vector(census)
    if drawn.shape != census.shape:
        raise ValueError("ppr_log_wealth: dimension mismatch")
    if t > N - 1:
        raise ValueError("ppr_log_wealth requires sum(drawn) <= N - 1")
    return float(wor_log_wealth_many(drawn[:, None], census[:, None], N,
                                     prior)[0])


def _wor_table(N):
    """The table of log v! over v = 0..N that the WoR kernel reads."""
    return gammaln(np.arange(N + 1, dtype=float) + 1.0)


def _wor_term(table, c, d):
    """One category's term of the WoR log-wealth, log (c)_d, the falling
    factorial of census counts c against drawn count d (elementwise); -inf
    where c cannot have produced d."""
    term = table[c] - table[np.maximum(c - d, 0)]
    return np.where(c < d, -math.inf, term)


def _wor_finish(table, drawn, N, prior):
    """The map from the summed terms to the log-wealth at these drawn
    counts ((K, ...), category-leading): log q(k) + log (N)_t minus the sum;
    a sum of -inf gives +inf."""
    K = drawn.shape[0]
    prior = _resolve_prior(prior, K)
    t = drawn.sum(axis=0)
    a = drawn + prior.alpha.reshape((K,) + (1,) * (drawn.ndim - 1))
    q = gammaln(a).sum(axis=0) - gammaln(a.sum(axis=0)) - prior.log_beta
    head = q + (table[N] - table[N - t])
    return lambda total: head - total


def wor_log_wealth_many(drawn, censuses, N, prior=None):
    """Vectorized posterior-prior-ratio log-wealth of drawn counts against
    census hypotheses.

    drawn and censuses are category-leading, (K, ...), and pair up by
    broadcasting over the trailing axes.  A census below the drawn counts
    gives +inf.  Log-factorials come from a table over 0..N; the
    per-category terms (_wor_term, which the audit engine also reads) are
    added in category order.
    """
    drawn = np.asarray(drawn, dtype=np.int64)
    censuses = np.asarray(censuses, dtype=np.int64)
    table = _wor_table(N)
    total = 0.0
    for c, d in zip(censuses, drawn, strict=True):
        total = total + _wor_term(table, c, d)
    return _wor_finish(table, drawn, N, prior)(total)
