import itertools
import math
import tracemalloc

import numpy as np
import pytest

from simplexcs.confset import log_threshold
from simplexcs.harness import _truth_covered_wor, gen_wor, trial_rng
from simplexcs.simplex import enumerate_grid
from simplexcs.wealth import ppr_log_wealth, wor_log_wealth_many
from simplexcs.wor import (
    METHODS,
    AuditState,
    category_count_bounds,
    rank_decided,
    stopping_time,
)

from oracles import exact_miscoverage


def test_initial_state_all_active():
    state = AuditState(3, 2, 0.05)
    assert state.active_count() == 4  # C(4, 1)
    bounds = category_count_bounds(state)
    assert np.array_equal(bounds, [[0, 3], [0, 3]])


def test_ppr_single_draw_n2():
    state = AuditState(2, 2, 0.05, method="ppr")
    state.absorb(0)
    act = {tuple(c) for c in state.active_censuses()}
    # (0,2) cannot have produced an e_1 draw; (1,1) has wealth exactly 1
    assert act == {(1, 1), (2, 0)}
    bounds = category_count_bounds(state)
    assert np.array_equal(bounds[0], [1, 2])


def test_absorb_rejects_t_at_population():
    state = AuditState(2, 2, 0.05, method="ppr")
    state.absorb(0)
    with pytest.raises(ValueError):
        state.absorb(0)
    with pytest.raises(ValueError):
        AuditState(3, 2, 0.05).absorb(5)


def test_state_wealth_matches_kernel_functions():
    rng = np.random.default_rng(3)
    census = np.array([4, 3, 2])
    N = int(census.sum())
    labels = gen_wor(census, rng)
    state = AuditState(N, 3, 1e-9)  # tiny delta: no pruning
    drawn = np.zeros(3, dtype=np.int64)
    for t in range(1, N):
        state.absorb(int(labels[t - 1]))
        drawn[labels[t - 1]] += 1
        act = state.active_censuses()
        w = wor_log_wealth_many(drawn[:, None], act.T, N)
        for i in rng.choice(act.shape[0], size=5):
            ref = ppr_log_wealth(drawn, act[i])
            if math.isinf(ref):
                assert math.isinf(w[i])
            else:
                assert w[i] == pytest.approx(ref, abs=1e-9)


def test_rank_decided_requires_disjoint_intervals():
    state = AuditState(4, 2, 0.05, method="ppr")
    assert not rank_decided(state)  # [0,4] vs [0,4]


def test_stopping_time_brute_force_n4():
    # population (3,1) at delta = 0.5, all four draw orders replayed: two
    # majority-first orders decide at t=2; the other two leave the tied
    # census (2,2) active through t=3 and never decide
    N, K = 4, 2
    results = {
        order: stopping_time(list(order), N, K, 0.5)
        for order in sorted(set(itertools.permutations([0, 0, 0, 1])))
    }
    assert results[(0, 0, 0, 1)] == 2
    assert results[(0, 0, 1, 0)] == 2
    assert results[(0, 1, 0, 0)] == N
    assert results[(1, 0, 0, 0)] == N


def test_stopping_time_sentinel():
    # delta so small nothing is ever excluded: the sentinel N is returned
    census = np.array([2, 2])
    t = stopping_time([0, 1, 0], 4, 2, 1e-12)
    assert t == 4


def test_ppr_true_census_coverage():
    # the true census must survive the whole audit in at least 1 - delta of
    # permutations; PPR wealth at the truth is an exact martingale
    census = np.array([5, 3, 2])
    N = int(census.sum())
    delta = 0.1
    failures = 0
    trials = 500
    for perm in range(trials):
        rng = trial_rng(123, perm)
        labels = gen_wor(census, rng)
        drawn = np.zeros(3, dtype=np.int64)
        ok = True
        for t in range(1, N):
            drawn[labels[t - 1]] += 1
            if ppr_log_wealth(drawn, census) >= -math.log(delta):
                ok = False
                break
        failures += not ok
    assert failures / trials <= delta + 3 * math.sqrt(delta * (1 - delta) / trials)


def test_exact_miscoverage_equals_permutation_enumeration():
    # the DP over drawn counts against every distinct label order of small
    # censuses, all equally likely under a uniform permutation, each scored
    # by the harness's coverage flag
    for census, delta in (((3, 2, 1), 0.5), ((4, 3), 0.2), ((4, 2, 1), 0.3)):
        census = np.array(census)
        N, K = int(census.sum()), census.size
        orders = set(itertools.permutations(np.repeat(np.arange(K), census)))
        missed = sum(not _truth_covered_wor(np.array(labels), census, N, K,
                                            delta, None)
                     for labels in orders)
        assert missed > 0
        assert exact_miscoverage(census, delta) == pytest.approx(
            missed / len(orders), abs=1e-12)


def test_empty_active_set_raises_diagnostic():
    # at delta = 0.6 the PPR set of N = 6, K = 2 is empty after the draws
    # 1, 1, 0, 0, 0; no bound or decision can be read off it
    state = AuditState(6, 2, 0.6)
    for label in (1, 1, 0, 0):
        state.absorb(label)
        assert state.active_count() > 0
    state.absorb(0)
    assert state.active_count() == 0
    with pytest.raises(RuntimeError):
        category_count_bounds(state)
    with pytest.raises(RuntimeError):
        rank_decided(state)


@pytest.mark.parametrize("method", METHODS)
def test_audit_state_equals_running_max_oracle_exhaustive(method):
    # every label order of every census with K = 2, N <= 9 and K = 3,
    # N <= 6: after each draw the engine's active censuses (in enumeration
    # order), bounds and decision equal those of a running max of the
    # scalar kernel over all of G(K, N).  The scalar and the vectorized
    # kernel sum in different orders, so the deltas are ones where no
    # wealth of this family lies within rounding of ln(1/delta).
    threshold = {delta: -math.log(delta) for delta in (0.1, 0.2)}
    seen = set()
    for K, n_max in ((2, 9), (3, 6)):
        for N in range(2, n_max + 1):
            grid = enumerate_grid(K, N)
            for labels in itertools.product(range(K), repeat=N - 1):
                drawn = np.zeros(K, dtype=np.int64)
                wealth = []
                for label in labels:
                    drawn[label] += 1
                    wealth.append([ppr_log_wealth(drawn, c) for c in grid])
                running_max = np.maximum.accumulate(np.array(wealth), axis=0)
                for delta, thr in threshold.items():
                    assert np.all(np.abs(running_max - thr) > 1e-9)
                    state = AuditState(N, K, delta, method=method)
                    for t, label in enumerate(labels):
                        state.absorb(label)
                        act = grid[running_max[t] < thr]
                        assert np.array_equal(state.active_censuses(), act)
                        finite = np.isfinite(running_max[t])
                        seen.add(("wealth excludes",
                                  bool(np.any(running_max[t][finite] >= thr))))
                        if act.shape[0] == 0:
                            break
                        lo, hi = act.min(axis=0), act.max(axis=0)
                        assert np.array_equal(category_count_bounds(state),
                                              np.stack([lo, hi], axis=1))
                        disjoint = all(hi[a] < lo[b] or hi[b] < lo[a]
                                       for a, b in itertools.combinations(range(K), 2))
                        assert rank_decided(state) == disjoint
                        seen.add(("decided", disjoint))
    assert seen == {("wealth excludes", False), ("wealth excludes", True),
                    ("decided", False), ("decided", True)}


def test_scalar_ppr_membership_equals_audit_state_at_a_tie():
    # drawn (2,0,0) against the census (2,0,3), N = 5, has wealth exactly 2:
    # the scalar form is one row of the kernel, so at delta 0.5 it excludes
    # that census as the audit does
    drawn, census = np.array([2, 0, 0]), np.array([2, 0, 3])
    assert ppr_log_wealth(drawn, census) == wor_log_wealth_many(
        drawn[:, None], census[:, None], 5)[0]
    assert ppr_log_wealth(drawn, census) >= -math.log(0.5)
    # every label order of length N - 1 at K = 3, N = 5: the running max of
    # the scalar below ln 2 is the audit's active set after every draw
    grid = enumerate_grid(3, 5)
    for labels in itertools.product(range(3), repeat=4):
        state = AuditState(5, 3, 0.5)
        drawn = np.zeros(3, dtype=np.int64)
        running_max = np.full(grid.shape[0], -math.inf)
        for label in labels:
            state.absorb(label)
            drawn[label] += 1
            running_max = np.maximum(
                running_max, [ppr_log_wealth(drawn, c) for c in grid])
            assert np.array_equal(state.active_censuses(),
                                  grid[running_max < -math.log(0.5)])


class ColumnAudit:
    """The audit engine as columns, the oracle for the line engine: every
    census of G(K, N) starts active, and each draw keeps the columns whose
    wealth under the vectorized kernel is below ln(1/delta)."""

    def __init__(self, N, K, delta):
        self.N = N
        self.threshold = log_threshold(delta)
        self.drawn = np.zeros(K, dtype=np.int64)
        self.cols = np.ascontiguousarray(enumerate_grid(K, N).T)

    def absorb(self, category):
        self.drawn[category] += 1
        w = wor_log_wealth_many(self.drawn[:, None], self.cols, self.N)
        self.cols = np.compress(w < self.threshold, self.cols, axis=1)

    def bounds(self):
        return np.stack([self.cols.min(axis=1), self.cols.max(axis=1)], axis=1)


def _disjoint(bounds):
    lo, hi = bounds.T
    return all(hi[a] < lo[b] or hi[b] < lo[a]
               for a, b in itertools.combinations(range(len(lo)), 2))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("delta", [0.05, 0.5])
@pytest.mark.parametrize("census,perms", [
    ((600, 400), 3),
    ((600, 250, 150), 2),
    ((60, 25, 15, 10), 3),
], ids=["K2", "K3", "K4"])
def test_line_engine_equals_column_oracle(census, perms, delta, method):
    # realistic N: after every draw the active censuses (rows and order),
    # the count bounds and the rank decision equal the column oracle's, and
    # so do the stop times
    census = np.array(census)
    N, K = int(census.sum()), census.size
    for perm in range(perms):
        labels = gen_wor(census, trial_rng(41, perm))
        state, oracle = (AuditState(N, K, delta, method=method),
                         ColumnAudit(N, K, delta))
        stop = N
        for t, label in enumerate(labels[: N - 1], start=1):
            state.absorb(int(label))
            oracle.absorb(int(label))
            assert np.array_equal(state.active_censuses(), oracle.cols.T)
            if oracle.cols.shape[1] == 0:
                assert state.active_count() == 0
                break
            assert state.active_count() == oracle.cols.shape[1]
            assert np.array_equal(category_count_bounds(state), oracle.bounds())
            decided = _disjoint(oracle.bounds())
            assert rank_decided(state) == decided
            if decided and stop == N:
                stop = t
        assert stopping_time(labels, N, K, delta) == stop


def test_scan_scratch_is_bounded_at_large_n():
    # N = 10^5, K = 3: the first draw of category 0 excludes c_0 <= 33 on
    # each of the 100,001 lines (PPR wealth N / (3 c_0) >= 1 / delta).
    # Scanning every line's end at once would hold millions of points; the
    # engine evaluates at most a fixed number per block.
    N = 100_000
    state = AuditState(N, 3, 1e-3)
    tracemalloc.start()
    try:
        state.absorb(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert np.array_equal(category_count_bounds(state),
                          [[34, N], [0, N - 34], [0, N - 34]])
    assert state.active_count() == (N - 33) * (N - 32) // 2
