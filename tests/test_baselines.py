import math

import numpy as np
import pytest

from simplexcs.baselines import (
    bonferroni_membership,
    clopper_pearson_interval,
    coordinate_log_wealths,
    coordinate_log_wealths_many,
    mardia_gate,
    mardia_membership,
    mardia_radius,
    mardia_ball,
    mixture_log_wealth,
    mixture_membership,
    sanov_membership,
    sanov_radius,
)
from simplexcs.confset import simplex_candidate_grid
from simplexcs.harness import Levels, SetRunner
from simplexcs.numerics import kl_divergence, log_binomial_tail
from simplexcs.wealth import DirichletPrior, kt_log_wealth


def test_coordinate_wealths_equal_binary_reduction():
    # coordinate j is the two-horse KT wealth of (k_j, t - k_j) against
    # (m_j, 1 - m_j): at one candidate, and over a block with fractional
    # counts and candidates on the simplex's faces
    prior = DirichletPrior.jeffreys(2)

    def binary(counts, t, m, j):
        return kt_log_wealth(np.array([counts[j], t - counts[j]], dtype=float),
                             np.array([m[j], 1.0 - m[j]]), prior)

    counts = np.array([3, 1, 2])
    m = np.array([0.5, 0.2, 0.3])
    w = coordinate_log_wealths(counts, m)
    for j in range(3):
        assert w[j] == binary(counts, 6, m, j)
    frac = np.array([2.25, 0.0, 1.75])
    cands = np.array([[0.5, 0.2, 0.3], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                      [0.25, 0.5, 0.25]])
    block = coordinate_log_wealths_many(frac, 4, cands, prior)
    for a, m in enumerate(cands):
        for j in range(3):
            assert block[a, j] == binary(frac, 4, m, j)


def test_coordinate_wealths_reject_prior_of_wrong_dimension():
    with pytest.raises(ValueError, match="prior dimension mismatch"):
        coordinate_log_wealths([3, 1, 2], [0.5, 0.2, 0.3], DirichletPrior.jeffreys(3))


def test_bonferroni_membership():
    assert bonferroni_membership(np.zeros(2), 0.05)  # all wealths 1
    # K=2, delta=0.05: per-coordinate threshold K/delta = 40 in wealth scale
    assert not bonferroni_membership(np.log([50.0, 2.0]), 0.05)
    assert bonferroni_membership(np.log([39.0, 39.0]), 0.05)


def test_bonferroni_level_equals_kt2_bonf_set():
    # the kt2-bonf set's threshold is -ln(delta / K); at delta 0.1, K = 3 it
    # is one ulp above ln 3 - ln 0.1, so a coordinate wealth of exactly
    # ln 3 - ln 0.1 is in both
    grid = simplex_candidate_grid(3, 4)
    cs = SetRunner("kt2-bonf", Levels(grid, grid[:0]), 0.1,
                   DirichletPrior.jeffreys(3)).cs
    w = np.array([math.log(3.0) - math.log(0.1), 0.0, 0.0])
    assert w[0] < cs.threshold
    assert bonferroni_membership(w, 0.1)


def test_mixture_membership():
    # mixture wealth (30 + 2)/2 = 16 < 20
    assert mixture_membership(np.log([30.0, 2.0]), 0.05)
    assert not mixture_membership(np.log([39.0, 39.0]), 0.05)
    assert mixture_membership(np.zeros(3), 0.4)
    assert not mixture_membership(np.array([math.inf, 0.0]), 0.05)


def test_mixture_log_wealth_equals_scipy_logsumexp():
    # np.logaddexp.reduce adds the coordinates in order; scipy's logsumexp
    # rescales by the largest: they agree to 1e-12, +inf entries included
    from scipy.special import logsumexp

    rng = np.random.default_rng(47)
    for K in (2, 3, 4, 5):
        w = rng.uniform(-30.0, 60.0, size=(500, K))
        w[::7, K // 2] = math.inf
        want = logsumexp(w, axis=-1) - math.log(K)
        got = mixture_log_wealth(w)
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.max(np.abs(got[finite] - want[finite])) <= 1e-12
        assert np.all(got[~finite] == math.inf)


def test_mixture_strictness_witness():
    # wealths (39, 39) separate the two aggregations: Bonferroni keeps the
    # candidate, the mixture drops it
    w = np.log([39.0, 39.0])
    assert bonferroni_membership(w, 0.05) and not mixture_membership(w, 0.05)


def test_mixture_implies_bonferroni_random():
    rng = np.random.default_rng(43)
    for _ in range(2000):
        K = int(rng.integers(2, 5))
        w = rng.uniform(-5.0, 60.0, size=K)
        delta = float(rng.uniform(0.01, 0.5))
        if mixture_membership(w, delta):
            assert bonferroni_membership(w, delta)


def test_sanov_radius_value():
    assert sanov_radius(10, 3, 0.05) == pytest.approx(
        -math.log(0.05) / 10 + 0.3 * math.log(11.0), rel=1e-12
    )
    assert sanov_radius(10, 3, 0.05) == pytest.approx(1.018937, abs=1e-5)
    assert sanov_radius(10000, 3, 0.05) < sanov_radius(100, 3, 0.05)


def test_sanov_membership_contains_mean():
    mu_hat = np.array([0.5, 0.3, 0.2])
    assert sanov_membership(mu_hat, mu_hat, 10, 0.05)


def test_mardia_gate_and_radius():
    assert mardia_gate(3) == pytest.approx(8.0 * math.pi * (3.0 / math.e) ** 3,
                                           rel=1e-12)
    assert 33 < mardia_gate(3) < 34
    assert mardia_radius(100, 3, 0.05) == pytest.approx(0.02 * math.log(80.0),
                                                        rel=1e-12)
    assert mardia_radius(100, 3, 0.05) == pytest.approx(0.087638, abs=1e-5)


def test_mardia_membership_gate():
    mu_hat = np.array([0.5, 0.3, 0.2])
    assert mardia_membership(mu_hat, mu_hat, 10, 0.05) is None
    assert mardia_membership(mu_hat, mu_hat, 34, 0.05) is True
    # the block form: the whole block below the gate, a KL ball past it
    kl = kl_divergence(mu_hat, simplex_candidate_grid(3, 10))
    assert mardia_ball(kl, 33, 3, 0.05).all()
    inside = mardia_ball(kl, 34, 3, 0.05)
    assert inside.any() and not inside.all()


def test_kt_tighter_than_sanov_balanced():
    from simplexcs.confset import kt_kl_threshold

    for t in (30, 100, 300):
        counts = np.full(3, t / 3.0)
        assert kt_kl_threshold(counts, 0.05) < sanov_radius(t, 3, 0.05)


def test_clopper_pearson_spot_values():
    lo, hi = clopper_pearson_interval(1, 2, 0.1)
    assert lo == pytest.approx(1.0 - math.sqrt(0.95), abs=1e-6)
    assert hi == pytest.approx(math.sqrt(0.95), abs=1e-6)
    assert clopper_pearson_interval(0, 5, 0.1)[0] == 0.0
    assert clopper_pearson_interval(5, 5, 0.1)[1] == 1.0


def test_clopper_pearson_tail_equations():
    # endpoints solve the defining tail equations, for every k <= n <= 60
    for dp in (0.08, 0.05 / 3):
        target = math.log(dp / 2.0)
        for n in range(1, 61):
            for k in range(n + 1):
                lo, hi = clopper_pearson_interval(k, n, dp)
                if k > 0:
                    assert log_binomial_tail(n, k, lo, "upper") == pytest.approx(
                        target, abs=1e-9)
                if k < n:
                    assert log_binomial_tail(n, k, hi, "lower") == pytest.approx(
                        target, abs=1e-9)


def test_clopper_pearson_broadcast_equals_scalar():
    ks = np.array([[0, 1, 7], [13, 29, 30]])
    lo, hi = clopper_pearson_interval(ks, 30, 0.05)
    assert lo.shape == hi.shape == ks.shape
    for idx, k in np.ndenumerate(ks):
        assert (lo[idx], hi[idx]) == clopper_pearson_interval(int(k), 30, 0.05)


def test_clopper_pearson_extreme_counts_exact():
    # at k=0 and k=n one endpoint is exactly 0 or 1 and the other has the
    # closed form (dp/2)^(1/n)
    for n in (1, 2, 9, 60):
        lo, hi = clopper_pearson_interval(0, n, 0.1)
        assert lo == 0.0
        assert hi == pytest.approx(1.0 - 0.05 ** (1.0 / n), rel=1e-12)
        lo, hi = clopper_pearson_interval(n, n, 0.1)
        assert hi == 1.0
        assert lo == pytest.approx(0.05 ** (1.0 / n), rel=1e-12)


def test_clopper_pearson_contains_mle():
    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(0, n + 1))
        lo, hi = clopper_pearson_interval(k, n, 0.1)
        assert lo - 1e-9 <= k / n <= hi + 1e-9


def test_clopper_pearson_validation():
    with pytest.raises(ValueError):
        clopper_pearson_interval(3, 2, 0.1)
    with pytest.raises(ValueError):
        clopper_pearson_interval(1, 2, 0.0)
    with pytest.raises(ValueError):
        clopper_pearson_interval(np.array([0, 3]), 2, 0.1)
