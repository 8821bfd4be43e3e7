import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import simplexcs.wealth
from simplexcs.baselines import coordinate_log_wealths
from simplexcs.simplex import (
    GridCapExceeded,
    enumerate_grid,
    grid_size,
    validate_prob_vector,
)
from simplexcs.wealth import (
    DirichletPrior,
    UPState,
    constant_bettor_log_wealth,
    kt_log_wealth,
    kt_log_wealth_many,
    ppr_log_wealth,
    q_kt,
    wor_log_wealth_many,
)

from oracles import perround_wor_log_wealth


def test_prior_validation():
    p = DirichletPrior.jeffreys(3)
    assert np.allclose(p.alpha, 0.5)
    with pytest.raises(ValueError):
        DirichletPrior(np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        DirichletPrior(np.array([[0.5, 0.5]]))


def test_q_kt_spot_values():
    assert q_kt(np.zeros(2)) == pytest.approx(0.0, abs=1e-12)
    assert q_kt(np.array([1.0, 0.0])) == pytest.approx(math.log(0.5), rel=1e-12)
    assert q_kt(np.array([1.0, 1.0])) == pytest.approx(math.log(0.125), rel=1e-12)


def test_kt_log_wealth_spot_values():
    assert kt_log_wealth(np.zeros(2), np.array([0.3, 0.7])) == pytest.approx(
        0.0, abs=1e-12
    )
    assert kt_log_wealth(
        np.array([1.0, 0.0]), np.array([0.5, 0.5])
    ) == pytest.approx(0.0, abs=1e-12)
    assert kt_log_wealth(
        np.array([2.0, 0.0]), np.array([0.75, 0.25])
    ) == pytest.approx(math.log(2.0 / 3.0), abs=1e-9)
    # the membership spot case: W = 0.5 / 0.02 = 25
    assert kt_log_wealth(
        np.array([1.0, 0.0]), np.array([0.02, 0.98])
    ) == pytest.approx(math.log(25.0), abs=1e-9)


def test_kt_log_wealth_zero_coordinate():
    assert kt_log_wealth(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == math.inf
    # zero count against zero coordinate contributes nothing
    val = kt_log_wealth(np.array([0.0, 2.0]), np.array([0.0, 1.0]))
    assert val == pytest.approx(q_kt(np.array([0.0, 2.0])), abs=1e-12)


def test_kt_log_wealth_many_matches_scalar():
    rng = np.random.default_rng(5)
    counts = np.array([3.0, 1.0, 2.0])
    cands = rng.dirichlet(np.ones(3), size=40)
    many = kt_log_wealth_many(counts, cands)
    for i in range(40):
        assert many[i] == pytest.approx(kt_log_wealth(counts, cands[i]), abs=1e-10)


def test_constant_bettor_spot_values():
    obs = np.array([[0.75, 0.25]])
    m = np.array([0.5, 0.5])
    assert constant_bettor_log_wealth(obs, m, m) == pytest.approx(0.0, abs=1e-12)
    assert constant_bettor_log_wealth(
        obs, np.array([1.0, 0.0]), m
    ) == pytest.approx(math.log(1.5), rel=1e-12)


def test_constant_bettor_zero_gain_bankrupts():
    obs = np.array([[0.0, 1.0]])
    val = constant_bettor_log_wealth(obs, np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    assert val == -math.inf


def test_constant_bettor_one_hot_reduces_to_categorical():
    # one-hot rounds: the per-round gain is b_j / m_j for the drawn category
    rng = np.random.default_rng(3)
    b = rng.dirichlet(np.ones(3))
    m = rng.dirichlet(np.ones(3))
    cats = rng.integers(0, 3, size=12)
    obs = np.zeros((12, 3))
    obs[np.arange(12), cats] = 1.0
    counts = obs.sum(axis=0)
    expected = float(np.sum(counts * (np.log(b) - np.log(m))))
    assert constant_bettor_log_wealth(obs, b, m) == pytest.approx(expected, abs=1e-10)


def test_constant_bettor_at_empirical_mean_bounded():
    # wealth at the plug-in candidate m = empirical mean never exceeds 1
    rng = np.random.default_rng(17)
    for _ in range(300):
        t = rng.integers(1, 12)
        obs = rng.dirichlet(np.ones(3), size=t)
        b = rng.dirichlet(np.ones(3))
        mu_hat = obs.mean(axis=0)
        assert constant_bettor_log_wealth(obs, b, mu_hat) <= 1e-12


# ---------------------------------------------------------------------------
# Universal portfolio
# ---------------------------------------------------------------------------


def test_up_initial_state():
    s = UPState(3)
    assert s.t == 0
    assert s.log_wealth(np.array([0.2, 0.3, 0.5])) == 0.0


def test_up_single_round_table():
    s = UPState(2).absorb(np.array([0.75, 0.25]))
    table = np.exp(s.table)
    grid = s.grid
    for r, row in enumerate(grid):
        if row[0] == 1:
            assert table[r] == pytest.approx(0.75, abs=1e-12)
        else:
            assert table[r] == pytest.approx(0.25, abs=1e-12)


def test_up_single_round_wealth():
    s = UPState(2).absorb(np.array([0.75, 0.25]))
    assert s.log_wealth(np.array([0.25, 0.75])) == pytest.approx(
        math.log(5.0 / 3.0), abs=1e-9
    )


def test_up_two_balanced_rounds_table():
    y = np.array([0.5, 0.5])
    s = UPState(2).absorb(y).absorb(y)
    table = {tuple(k): math.exp(v) for k, v in zip(map(tuple, s.grid), s.table)}
    assert table[(2, 0)] == pytest.approx(0.25, abs=1e-12)
    assert table[(1, 1)] == pytest.approx(0.5, abs=1e-12)
    assert table[(0, 2)] == pytest.approx(0.25, abs=1e-12)


def test_up_table_mass_random_streams():
    rng = np.random.default_rng(23)
    for K in (2, 3, 4):
        s = UPState(K)
        for _ in range(30):
            s = s.absorb(rng.dirichlet(np.ones(K)))
        assert s.table_mass() == pytest.approx(1.0, abs=1e-9)


def test_up_one_hot_equals_kt():
    rng = np.random.default_rng(9)
    for K in (2, 3):
        for t in (1, 3, 5):
            cats = rng.integers(0, K, size=t)
            s = UPState(K)
            counts = np.zeros(K)
            for c in cats:
                y = np.zeros(K)
                y[c] = 1.0
                s = s.absorb(y)
                counts[c] += 1
            # the table collapses to an indicator at the count vector
            alive = np.flatnonzero(s.table > -math.inf)
            assert alive.size == 1
            assert np.array_equal(s.grid[alive[0]], counts.astype(np.int64))
            for _ in range(5):
                m = rng.dirichlet(np.ones(K))
                assert s.log_wealth(m) == pytest.approx(
                    kt_log_wealth(counts, m), abs=1e-9
                )


def test_up_matches_direct_path_sum():
    # exponential-in-t direct sum over all category paths, an independent
    # evaluation of the same mixture integral
    rng = np.random.default_rng(31)
    for K, t in ((2, 5), (3, 4)):
        obs = rng.dirichlet(np.ones(K), size=t)
        m = rng.dirichlet(np.ones(K))
        s = UPState(K)
        for y in obs:
            s = s.absorb(y)
        total = 0.0
        for path in itertools.product(range(K), repeat=t):
            counts = np.bincount(path, minlength=K).astype(float)
            weight = float(np.prod(obs[np.arange(t), path]))
            total += weight * math.exp(kt_log_wealth(counts, m))
        assert s.log_wealth(m) == pytest.approx(math.log(total), abs=1e-9)


def test_up_wealth_one_when_obs_equals_candidate():
    m = np.array([0.3, 0.2, 0.5])
    s = UPState(3)
    for _ in range(7):
        s = s.absorb(m)
    assert s.log_wealth(m) == pytest.approx(0.0, abs=1e-9)


def test_up_diverges_on_zero_coordinate_with_mass():
    s = UPState(2).absorb(np.array([0.75, 0.25]))
    assert s.log_wealth(np.array([0.0, 1.0])) == math.inf


def test_up_log_wealth_many_matches_scalar():
    rng = np.random.default_rng(41)
    s = UPState(3)
    for _ in range(6):
        s = s.absorb(rng.dirichlet(np.ones(3)))
    cands = rng.dirichlet(np.ones(3), size=25)
    many = s.log_wealth_many(cands)
    for i in range(25):
        assert many[i] == pytest.approx(s.log_wealth(cands[i]), abs=1e-10)


def test_up_log_wealth_many_chunks_by_table_size(monkeypatch):
    # the candidates go through the matmul in chunks of _CHUNK rows, or of
    # more while (live table rows) x (chunk rows) stays within _PAIRS: one
    # chunk for a one-hot stream's single live row, 256-row chunks for a
    # dense table.  The BLAS blocking, and so the rounding of
    # each candidate's sum over table rows, may follow the chunk width, so
    # other chunkings agree to 1e-12, not bit for bit
    rng = np.random.default_rng(53)
    cands = rng.dirichlet(np.ones(3), size=700)
    onehot, dense = UPState(3), UPState(3)
    for _ in range(90):
        onehot = onehot.absorb(np.eye(3)[rng.integers(3)])
        dense = dense.absorb(rng.dirichlet(np.ones(3)))
    assert np.count_nonzero(onehot.table > -math.inf) == 1
    assert np.count_nonzero(dense.table > -math.inf) == grid_size(3, 90) > 256
    passes = []  # each chunk takes one log, of its (chunk,) column sums
    log = np.log
    monkeypatch.setattr(np, "log", lambda x, *a, **k: (
        passes.append(np.ndim(x) == 1), log(x, *a, **k))[1])
    want = {}
    for s, n in ((onehot, 1), (dense, 3)):  # 700 = 2 * 256 + 188
        passes.clear()
        want[s] = s.log_wealth_many(cands)
        assert sum(passes) == n
    monkeypatch.undo()
    for chunk, pairs in ((256, 1), (1, 1), (7, 50)):
        monkeypatch.setattr(simplexcs.wealth, "_CHUNK", chunk)
        monkeypatch.setattr(simplexcs.wealth, "_PAIRS", pairs)
        for s, w in want.items():
            assert np.max(np.abs(s.log_wealth_many(cands) - w)) <= 1e-12


def test_up_martingale_mean_close_to_one():
    # under i.i.d. data with mean m, the UP wealth at m is a nonnegative
    # martingale with unit mean; Monte Carlo average should sit near 1
    rng = np.random.default_rng(55)
    m = np.array([0.6, 0.4])
    vals = []
    for _ in range(2000):
        cats = (rng.random(4) > 0.6).astype(int)
        s = UPState(2)
        for c in cats:
            y = np.zeros(2)
            y[c] = 1.0
            s = s.absorb(y)
        vals.append(math.exp(s.log_wealth(m)))
    assert np.mean(vals) == pytest.approx(1.0, abs=0.1)


def test_up_absorb_validates_input():
    s = UPState(3)
    with pytest.raises(ValueError):
        s.absorb(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        s.absorb(np.array([0.7, 0.7, -0.4]))


def _dict_up_table(obs):
    """The UP table by a dict-keyed dynamic program: y^t[k + e_j] gains
    y^{t-1}[k] * y_j, starting from y^0[0] = 1."""
    K = obs.shape[1]
    table = {(0,) * K: 1.0}
    for y in obs:
        new = {}
        for k, v in table.items():
            for j in range(K):
                kj = k[:j] + (k[j] + 1,) + k[j + 1:]
                new[kj] = new.get(kj, 0.0) + v * y[j]
        table = new
    return table


def test_up_table_equals_dict_dp():
    rng = np.random.default_rng(61)
    for K in (4, 5):
        obs = rng.dirichlet(np.full(K, 0.8), size=8)
        for r in (1, 4, 6):
            obs[r] = np.eye(K)[rng.integers(K)]
        s = UPState(K)
        for t in range(1, obs.shape[0] + 1):
            s = s.absorb(obs[t - 1])
            grid = enumerate_grid(K, t)
            assert np.array_equal(s.grid, grid)
            table = _dict_up_table(obs[:t])
            want = np.array([table[tuple(k)] for k in grid])
            assert np.allclose(np.exp(s.table), want, rtol=0.0, atol=1e-12)


def test_up_grid_steps_equal_enumeration():
    for K in (2, 3, 4, 5):
        grid = UPState(K).grid
        assert np.array_equal(grid, enumerate_grid(K, 0))
        for t in range(30):
            grid = simplexcs.wealth._next_grid(grid, t)
            want = enumerate_grid(K, t + 1)
            assert grid.dtype == want.dtype
            assert np.array_equal(grid, want)


def test_up_absorb_checks_grid_cap_before_allocating(monkeypatch):
    y = np.full(4, 0.25)
    s = UPState(4).absorb(y).absorb(y)
    monkeypatch.setattr(simplexcs.wealth, "GRID_CAP", grid_size(4, 3))
    assert s.absorb(y).table.size == grid_size(4, 3)
    monkeypatch.setattr(simplexcs.wealth, "GRID_CAP", grid_size(4, 3) - 1)

    def no_grid(*args, **kwargs):
        raise AssertionError("grid built past the cap")

    monkeypatch.setattr(simplexcs.wealth, "enumerate_grid", no_grid)
    monkeypatch.setattr(simplexcs.wealth, "rank_many", no_grid)
    with pytest.raises(GridCapExceeded):
        s.absorb(y)


# ---------------------------------------------------------------------------
# Without replacement
# ---------------------------------------------------------------------------


def test_perround_spot_values():
    d2 = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert perround_wor_log_wealth(d2, np.array([0.75, 0.25]), 4) == pytest.approx(
        math.log(0.75), abs=1e-9
    )
    d1 = np.array([[1.0, 0.0]])
    assert perround_wor_log_wealth(d1, np.array([0.5, 0.5]), 2) == pytest.approx(
        0.0, abs=1e-9
    )
    assert perround_wor_log_wealth(
        np.zeros((0, 2)), np.array([0.5, 0.5]), 4
    ) == pytest.approx(0.0, abs=1e-12)


def test_perround_rejects_bad_input():
    with pytest.raises(ValueError):
        perround_wor_log_wealth(
            np.array([[0.5, 0.5]]), np.array([0.5, 0.5]), 4
        )
    with pytest.raises(ValueError):
        perround_wor_log_wealth(
            np.array([[1.0, 0.0]]), np.array([0.3, 0.7]), 4
        )


def test_perround_matches_sequential_product():
    # literal replay: round-i bet is the sequential posterior-mean estimate,
    # round-i odds are the reciprocal plug-in mean of the remaining pool
    rng = np.random.default_rng(13)
    alpha = 0.5
    for _ in range(60):
        K = int(rng.integers(2, 4))
        N = int(rng.integers(3, 8))
        census = rng.multinomial(N, np.ones(K) / K)
        if np.any(census == N):
            continue
        m = census / N
        t = int(rng.integers(1, N))
        labels = rng.permutation(np.repeat(np.arange(K), census))[:t]
        drawn = np.zeros(K)
        log_w = 0.0
        feasible = True
        for i, c in enumerate(labels):
            bet = (drawn[c] + alpha) / (i + K * alpha)
            rem = N * m[c] - drawn[c]
            if rem <= 0:
                feasible = False
                break
            log_w += math.log(bet) + math.log(N - i) - math.log(rem)
            drawn[c] += 1
        draws = np.zeros((t, K))
        draws[np.arange(t), labels] = 1.0
        val = perround_wor_log_wealth(draws, m, N)
        if feasible:
            assert val == pytest.approx(log_w, abs=1e-9)
        else:
            assert val == math.inf


def test_ppr_spot_values():
    assert ppr_log_wealth(np.zeros(2), np.array([3, 1])) == pytest.approx(
        0.0, abs=1e-12
    )
    assert ppr_log_wealth(np.array([1, 0]), np.array([1, 1])) == pytest.approx(
        0.0, abs=1e-9
    )
    assert ppr_log_wealth(np.array([2, 0]), np.array([3, 1])) == pytest.approx(
        math.log(0.75), abs=1e-9
    )
    assert ppr_log_wealth(np.array([1, 0]), np.array([0, 2])) == math.inf
    with pytest.raises(ValueError):
        ppr_log_wealth(np.array([1, 1]), np.array([1, 1]))


def test_ppr_equals_perround_small_family():
    # the two formulas are different arrangements of the same value
    for census in map(np.array, [(3, 1), (2, 2), (4, 2), (2, 2, 1)]):
        N = int(census.sum())
        K = census.size
        m = census / N
        for t in range(1, N):
            for labels in itertools.product(range(K), repeat=t):
                counts = np.bincount(labels, minlength=K)
                if np.any(counts > census):
                    continue
                draws = np.zeros((t, K))
                draws[np.arange(t), labels] = 1.0
                a = perround_wor_log_wealth(draws, m, N)
                b = ppr_log_wealth(counts, census)
                assert a == pytest.approx(b, abs=1e-9)


def _row_form_wor_log_wealth(drawn, censuses, N, prior):
    # the kernel as it was written over (..., K) rows: a row sum per census
    a = drawn + prior.alpha
    q = gammaln(a).sum(axis=-1) - gammaln(a.sum(axis=-1)) - prior.log_beta
    t = drawn.sum(axis=-1)
    rem = censuses - drawn
    infeasible = np.any(rem < 0, axis=-1)
    lgfact = gammaln(np.arange(N + 1, dtype=float) + 1.0)
    w = q + (lgfact[N] - lgfact[N - t]) - (
        lgfact[censuses] - lgfact[np.clip(rem, 0, None)]).sum(axis=-1)
    return np.where(infeasible, math.inf, w)


def test_wor_log_wealth_many_equals_row_form():
    # the category-leading kernel adds its terms in category order, which
    # is numpy's row sum for K <= 7: bit-equal there, 1e-9 beyond.  Audit
    # shape: one drawn vector against census columns; replay shape: running
    # counts against one census.
    rng = np.random.default_rng(29)
    for K in range(2, 10):
        prior = DirichletPrior(rng.uniform(0.2, 2.0, K))
        census = rng.integers(0, 40, K)
        census[0] += 2
        N = int(census.sum())
        labels = rng.permutation(np.repeat(np.arange(K), census))
        counts = np.cumsum(np.eye(K, dtype=np.int64)[labels[: N - 1]], axis=0)
        grid = enumerate_grid(K, N) if K <= 3 else np.array(
            [rng.multinomial(N, p) for p in rng.dirichlet(np.ones(K), 2000)]
            + [census])
        drawn = counts[rng.integers(N // 3)]
        pairs = (
            (wor_log_wealth_many(drawn[:, None], grid.T, N, prior),
             _row_form_wor_log_wealth(drawn, grid, N, prior)),
            (wor_log_wealth_many(counts.T, census, N, prior),
             _row_form_wor_log_wealth(counts, census, N, prior)),
        )
        assert np.isinf(pairs[0][1]).any()
        for new, ref in pairs:
            assert np.isfinite(ref).any()
            if K <= 7:
                assert np.array_equal(new, ref)
            else:
                assert np.array_equal(np.isinf(new), np.isinf(ref))
                assert np.allclose(new, ref, rtol=0.0, atol=1e-9)
    with pytest.raises(ValueError):  # K = 2 drawn against K = 3 censuses
        wor_log_wealth_many(np.ones((2, 1), dtype=int), np.ones((3, 4), dtype=int),
                            6)


@st.composite
def _boundary_vectors(draw):
    """A simplex point that the validator accepts, possibly with one
    coordinate in [-tol, 0) balanced by another just above its value."""
    K = draw(st.integers(2, 4))
    w = draw(st.lists(st.integers(0, 4), min_size=K, max_size=K).filter(any))
    p = np.asarray(w, dtype=float) / sum(w)
    i, j = draw(st.permutations(range(K)))[:2]
    eps = draw(st.sampled_from([0.0, 1e-12, 5e-10, 1e-9]))
    if p[i] == 0.0:
        p[i] -= eps
        p[j] += eps
    return p


@settings(max_examples=150, deadline=None)
@given(y=_boundary_vectors(), m=_boundary_vectors(), seed=st.integers(0, 99))
@example(y=np.array([0.5, 0.5 + 5e-10, -5e-10]),
         m=np.array([0.5, 0.5 + 5e-10, -5e-10]), seed=0)
def test_kernels_accept_what_the_validator_accepts(y, m, seed):
    # no crash and no NaN on any input the validator accepts
    if y.size != m.size:
        m = np.full(y.size, 1.0 / y.size)
    validate_prob_vector(y)
    validate_prob_vector(m)
    state = UPState(y.size).absorb(y).absorb(np.full(y.size, 1.0 / y.size))
    assert not math.isnan(state.log_wealth(m))
    assert np.array_equal(state.log_wealth_many(m[None, :]), [state.log_wealth(m)])
    counts = np.random.default_rng(seed).integers(0, 4, size=y.size)
    kt = kt_log_wealth(counts, m)
    kt_many = kt_log_wealth_many(counts, m[None, :])
    assert not math.isnan(kt)
    assert not np.any(np.isnan(kt_many))
    if np.any((m < 0.0) & (counts > 0)):
        assert kt == math.inf
        assert kt_many[0] == math.inf
    assert not np.any(np.isnan(coordinate_log_wealths(counts, m)))
