import itertools
import math

import numpy as np
import pytest

from simplexcs.harness import gen_wor, trial_rng
from simplexcs.simplex import enumerate_grid
from simplexcs.wealth import ppr_log_wealth, wor_kt_log_wealth, wor_log_wealth_many
from simplexcs.wor import (
    AuditState,
    category_count_bounds,
    rank_decided,
    stopping_time,
)


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


def test_wor_kt_single_draw_n2_excludes_true_census():
    # the final plug-in kernel diverges for (1,1) once category 1 is
    # exhausted relative to the drawn prefix; a known quirk of this variant
    state = AuditState(2, 2, 0.05, method="wor-kt")
    state.absorb(0)
    act = {tuple(c) for c in state.active_censuses()}
    assert (1, 1) not in act
    assert (2, 0) in act


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
    for method, kernel in (
        ("ppr", lambda d, c: ppr_log_wealth(d, c)),
        ("wor-kt", lambda d, c: wor_kt_log_wealth(d, c / N, N)),
    ):
        state = AuditState(N, 3, 1e-9, method=method)  # tiny delta: no pruning
        drawn = np.zeros(3, dtype=np.int64)
        for t in range(1, N):
            state.absorb(int(labels[t - 1]))
            drawn[labels[t - 1]] += 1
            act = state.active_censuses()
            if act.shape[0] == 0:
                break
            w = wor_log_wealth_many(drawn[:, None], act.T, N, method)
            for i in rng.choice(act.shape[0], size=5):
                ref = kernel(drawn, act[i].astype(float))
                if math.isinf(ref):
                    assert math.isinf(w[i])
                else:
                    assert w[i] == pytest.approx(ref, abs=1e-9)


def test_active_sets_nested_kt_inside_ppr():
    # the plug-in kernel dominates PPR pointwise, so its active set is a
    # subset of PPR's after every draw
    rng = np.random.default_rng(11)
    census = np.array([6, 3, 2])
    N = int(census.sum())
    labels = gen_wor(census, rng)
    kt = AuditState(N, 3, 0.2, method="wor-kt")
    pp = AuditState(N, 3, 0.2, method="ppr")
    for t in range(1, N):
        kt.absorb(int(labels[t - 1]))
        pp.absorb(int(labels[t - 1]))
        kt_act = {tuple(c) for c in kt.active_censuses()}
        pp_act = {tuple(c) for c in pp.active_censuses()}
        assert kt_act <= pp_act


def test_rank_decided_requires_disjoint_intervals():
    state = AuditState(4, 2, 0.05, method="ppr")
    assert not rank_decided(state)  # [0,4] vs [0,4]


def test_stopping_time_brute_force_n4():
    # population (3,1) at delta = 0.5, all four draw orders replayed: two
    # majority-first orders decide at t=2; the other two leave the tied
    # census (2,2) active through t=3 and never decide
    N, K = 4, 2
    results = {
        order: stopping_time(list(order), N, K, 0.5, method="ppr")
        for order in sorted(set(itertools.permutations([0, 0, 0, 1])))
    }
    assert results[(0, 0, 0, 1)] == 2
    assert results[(0, 0, 1, 0)] == 2
    assert results[(0, 1, 0, 0)] == N
    assert results[(1, 0, 0, 0)] == N


def test_stopping_time_sentinel():
    # delta so small nothing is ever excluded: the sentinel N is returned
    census = np.array([2, 2])
    t = stopping_time([0, 1, 0], 4, 2, 1e-12, method="ppr")
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


def _scalar_kernel(method, N):
    if method == "ppr":
        return lambda drawn, census: ppr_log_wealth(drawn, census)
    return lambda drawn, census: wor_kt_log_wealth(drawn, census / N, N)


@pytest.mark.parametrize("method", ["ppr", "wor-kt"])
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
            kernel = _scalar_kernel(method, N)
            for labels in itertools.product(range(K), repeat=N - 1):
                drawn = np.zeros(K, dtype=np.int64)
                wealth = []
                for label in labels:
                    drawn[label] += 1
                    wealth.append([kernel(drawn, c) for c in grid])
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
