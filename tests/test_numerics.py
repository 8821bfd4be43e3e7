import math

import numpy as np
import pytest

from simplexcs.numerics import (
    kl_divergence,
    log_binomial_tail,
    log_multi_beta,
    shannon_entropy,
)


def test_log_multi_beta_spot_values():
    assert log_multi_beta(np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    assert log_multi_beta(np.array([0.5, 0.5])) == pytest.approx(
        math.log(math.pi), rel=1e-12
    )
    assert log_multi_beta(np.array([1.0, 1.0, 1.0])) == pytest.approx(
        math.log(0.5), rel=1e-12
    )


def test_log_multi_beta_rejects_bad_input():
    with pytest.raises(ValueError):
        log_multi_beta(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        log_multi_beta(np.array([]))


def test_kl_divergence_values():
    p = np.array([0.3, 0.7])
    assert kl_divergence(p, p) == 0.0
    assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
        math.log(2.0), rel=1e-12
    )
    # 0.5 ln 2 + 0.5 ln(2/3)
    assert kl_divergence(
        np.array([0.5, 0.5]), np.array([0.25, 0.75])
    ) == pytest.approx(0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0), rel=1e-12)


def test_kl_divergence_infinite_when_support_escapes():
    assert kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf


def test_kl_divergence_dimension_mismatch():
    with pytest.raises(ValueError):
        kl_divergence(np.array([1.0]), np.array([0.5, 0.5]))


def test_kl_nonnegative_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        assert kl_divergence(p, q) >= 0.0


def test_shannon_entropy_values():
    assert shannon_entropy(np.array([1.0, 0.0])) == 0.0
    assert shannon_entropy(np.array([0.5, 0.5])) == pytest.approx(
        math.log(2.0), rel=1e-12
    )
    expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert shannon_entropy(np.array([0.25, 0.75])) == pytest.approx(
        expected, rel=1e-12
    )
    assert expected == pytest.approx(0.5623351446, abs=1e-9)


def test_shannon_entropy_range():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = rng.dirichlet(np.ones(5))
        h = shannon_entropy(p)
        assert 0.0 <= h <= math.log(5.0) + 1e-12


def test_log_binomial_tail_spot_values():
    assert log_binomial_tail(1, 1, 0.05, "upper") == pytest.approx(
        math.log(0.05), rel=1e-12
    )
    assert log_binomial_tail(2, 1, 0.0, "lower") == pytest.approx(0.0, abs=1e-12)
    assert log_binomial_tail(2, 0, 0.5, "lower") == pytest.approx(
        math.log(0.25), rel=1e-12
    )


def test_log_binomial_tail_complementarity():
    # P(X <= k) + P(X >= k+1) = 1
    n, p = 17, 0.37
    for k in range(n):
        lo = math.exp(log_binomial_tail(n, k, p, "lower"))
        hi = math.exp(log_binomial_tail(n, k + 1, p, "upper"))
        assert lo + hi == pytest.approx(1.0, abs=1e-12)


def test_log_binomial_tail_validation():
    with pytest.raises(ValueError):
        log_binomial_tail(2, 3, 0.5, "lower")
    with pytest.raises(ValueError):
        log_binomial_tail(2, 1, 1.5, "lower")
    with pytest.raises(ValueError):
        log_binomial_tail(2, 1, 0.5, "sideways")
