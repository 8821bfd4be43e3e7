import math

import numpy as np
import pytest

from simplexcs.simplex import (
    GridCapExceeded,
    empirical_mean,
    enumerate_grid,
    grid_size,
    rank,
    rank_many,
    unrank,
    validate_count_vector,
    validate_prob_vector,
)


def test_grid_size_matches_binomial():
    for K in range(1, 6):
        for t in range(0, 10):
            assert grid_size(K, t) == math.comb(t + K - 1, K - 1)


def test_enumerate_grid_base_cases():
    g0 = enumerate_grid(2, 0)
    assert g0.shape == (1, 2)
    assert np.array_equal(g0[0], [0, 0])
    g1 = enumerate_grid(3, 1)
    assert g1.shape == (3, 3)
    assert {tuple(r) for r in g1} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_enumerate_grid_k3_t2():
    g = enumerate_grid(3, 2)
    assert g.shape == (6, 3)
    expected = {(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert {tuple(r) for r in g} == expected


def test_enumerate_grid_rows_sum_to_t():
    for K in (2, 3, 4, 5):
        for t in (0, 1, 3, 7):
            g = enumerate_grid(K, t)
            assert g.shape == (grid_size(K, t), K)
            assert np.all(g.sum(axis=1) == t)
            # all rows distinct
            assert len({tuple(r) for r in g}) == g.shape[0]


def test_enumeration_order_is_colex():
    # colex ascending on the first K-1 coordinates: compare reversed heads
    for K in (3, 4):
        g = enumerate_grid(K, 5)
        heads = [tuple(r[: K - 1][::-1]) for r in g]
        assert heads == sorted(heads)


def test_rank_unrank_identity_exhaustive():
    g = enumerate_grid(3, 4)
    assert g.shape[0] == 15
    for i in range(g.shape[0]):
        assert rank(g[i]) == i
        assert np.array_equal(unrank(i, 3, 4), g[i])


def test_rank_many_matches_enumeration():
    for K in (2, 3, 4, 5):
        for t in (0, 1, 2, 6):
            g = enumerate_grid(K, t)
            assert np.array_equal(rank_many(g), np.arange(g.shape[0]))


def test_rank_k2_is_first_coordinate():
    t = 9
    for j in range(t + 1):
        assert rank(np.array([j, t - j])) == j


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        unrank(grid_size(3, 4), 3, 4)
    with pytest.raises(ValueError):
        unrank(-1, 3, 4)


def test_grid_cap_enforced():
    with pytest.raises(GridCapExceeded):
        enumerate_grid(4, 10, cap=10)


def test_validate_prob_vector():
    p = validate_prob_vector(np.array([0.25, 0.75]))
    assert np.array_equal(p, [0.25, 0.75])
    with pytest.raises(ValueError):
        validate_prob_vector(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        validate_prob_vector(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        validate_prob_vector(np.array([np.nan, 1.0]))
    # a coordinate in [-tol, 0) is projected to 0; the rest is kept as given
    y = validate_prob_vector(np.array([0.5, 0.5 + 5e-10, -5e-10]))
    assert np.array_equal(y, [0.5, 0.5 + 5e-10, 0.0])


def test_validate_count_vector():
    k, t = validate_count_vector(np.array([2, 0, 3]))
    assert t == 5
    assert k.dtype == np.int64
    with pytest.raises(ValueError):
        validate_count_vector(np.array([1.5, 0.5]))
    with pytest.raises(ValueError):
        validate_count_vector(np.array([-1, 2]))


def test_empirical_mean():
    obs = np.array([[0.75, 0.25], [0.25, 0.75]])
    assert np.allclose(empirical_mean(obs), [0.5, 0.5])
    e1 = np.array([[1.0, 0.0]])
    assert np.allclose(empirical_mean(e1), [1.0, 0.0])
    with pytest.raises(ValueError):
        empirical_mean(np.zeros((0, 2)))
