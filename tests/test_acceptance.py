"""Acceptance gate: every release criterion, one printed verdict line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict lines
interleaved with the pytest output.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.special import gammaln

from simplexcs.baselines import (
    bonferroni_membership,
    clopper_pearson_interval,
    coordinate_log_wealths,
    mardia_gate,
    mardia_radius,
    mixture_membership,
    sanov_radius,
)
from simplexcs.confset import kt_kl_threshold, membership, simplex_candidate_grid
from simplexcs.harness import (
    ExperimentConfig,
    emit,
    gen_categorical,
    gen_dirichlet,
    run_experiment,
    trial_rng,
)
from simplexcs.numerics import kl_divergence
from simplexcs.simplex import enumerate_grid
from simplexcs.wealth import (
    UPState,
    constant_bettor_log_wealth,
    kt_log_wealth,
    kt_log_wealth_many,
    perround_wor_log_wealth,
    ppr_log_wealth,
    q_kt,
    wor_kt_log_wealth,
    wor_mean_transform,
)

DELTA = 0.05


def _verdict(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


# ---------------------------------------------------------------------------
# 1. Exact small-instance oracles
# ---------------------------------------------------------------------------


def _feasible_sequences(census, t_max):
    """All draw sequences whose running counts stay within the census."""
    K = census.size

    def rec(prefix, counts):
        t = len(prefix)
        if t >= 1:
            yield tuple(prefix), counts.copy()
        if t == t_max:
            return
        for j in range(K):
            if counts[j] < census[j]:
                counts[j] += 1
                prefix.append(j)
                yield from rec(prefix, counts)
                prefix.pop()
                counts[j] -= 1

    yield from rec([], np.zeros(K, dtype=np.int64))


def test_criterion_1_ppr_equals_perround_exhaustive():
    worst = 0.0
    for K in (2, 3):
        for N in range(2, 9):
            for census in enumerate_grid(K, N):
                m = census / N
                for seq, counts in _feasible_sequences(census, N - 1):
                    t = len(seq)
                    draws = np.zeros((t, K))
                    draws[np.arange(t), seq] = 1.0
                    a = perround_wor_log_wealth(draws, m, N)
                    b = ppr_log_wealth(counts, census)
                    worst = max(worst, abs(a - b))
    # infeasible prefixes diverge identically
    assert perround_wor_log_wealth(
        np.array([[1.0, 0.0]]), np.array([0.0, 1.0]), 3
    ) == math.inf
    assert ppr_log_wealth(np.array([1, 0]), np.array([0, 3])) == math.inf
    _verdict(f"PPR == per-round plug-in exhaustively (max gap {worst:.2e})",
             worst < 1e-9)


def test_criterion_1_plugin_dominates_ppr_exhaustive():
    ok = True
    strict = False
    for K in (2, 3):
        for N in range(2, 9):
            for census in enumerate_grid(K, N):
                m = census / N
                seen = set()
                for _, counts in _feasible_sequences(census, N - 1):
                    key = tuple(counts)
                    if key in seen:
                        continue
                    seen.add(key)
                    a = wor_kt_log_wealth(counts, m, N)
                    b = ppr_log_wealth(counts, census)
                    if not (a >= b - 1e-9):
                        ok = False
                    if np.all(census - counts >= 1) and a > b + 1e-9:
                        strict = True
    _verdict("final plug-in wealth dominates PPR, with a strict instance",
             ok and strict)


def test_criterion_1_up_equals_kt_on_one_hot():
    rng = np.random.default_rng(101)
    worst = 0.0
    for K in (2, 3, 4):
        cands = rng.dirichlet(np.ones(K), size=50)

        def rec(state, counts, depth):
            nonlocal worst
            if depth >= 1:
                up = state.log_wealth_many(cands)
                kt = kt_log_wealth_many(counts, cands)
                worst = max(worst, float(np.max(np.abs(up - kt))))
            if depth == 8:
                return
            for j in range(K):
                y = np.zeros(K)
                y[j] = 1.0
                counts[j] += 1
                rec(state.absorb(y), counts, depth + 1)
                counts[j] -= 1

        rec(UPState(K), np.zeros(K), 0)
    _verdict(f"UP == KT on all one-hot sequences (max gap {worst:.2e})",
             worst < 1e-9)


# ---------------------------------------------------------------------------
# 2. Structural invariants
# ---------------------------------------------------------------------------


def test_criterion_2_up_table_mass_is_one():
    rng = np.random.default_rng(7)
    worst = 0.0
    for K in (2, 3, 4):
        s = UPState(K)
        for _ in range(50):
            s = s.absorb(rng.dirichlet(np.ones(K)))
            worst = max(worst, abs(s.table_mass() - 1.0))
    _verdict(f"UP state table mass stays at 1 (max gap {worst:.2e})",
             worst < 1e-9)


def test_criterion_2_empirical_mean_never_excluded():
    rng = np.random.default_rng(13)
    worst = -math.inf
    for _ in range(1000):
        K = int(rng.integers(2, 5))
        t = int(rng.integers(1, 15))
        obs = rng.dirichlet(np.ones(K), size=t)
        b = rng.dirichlet(np.ones(K))
        worst = max(worst, constant_bettor_log_wealth(obs, b, obs.mean(axis=0)))
    # every constant bettor earns at most 1 at the plug-in mean, so the
    # mixture does too and the empirical mean always stays in the UP set
    up_ok = True
    for trial in range(10):
        rng2 = trial_rng(99, trial)
        s = UPState(3)
        total = np.zeros(3)
        for t in range(1, 31):
            y = rng2.dirichlet(np.ones(3))
            total += y
            s = s.absorb(y)
            if s.log_wealth(total / t) > 1e-9:
                up_ok = False
    _verdict(
        f"constant-bettor wealth at the empirical mean <= 1 (max log {worst:.2e})"
        " and the mean stays in the UP set",
        worst <= 1e-12 and up_ok,
    )


def test_criterion_2_mixture_set_inside_bonferroni_set():
    rng = np.random.default_rng(19)
    cands = simplex_candidate_grid(3, 15)
    ok = True
    for trial in range(100):
        t = int(rng.integers(1, 40))
        counts = rng.multinomial(t, rng.dirichlet(np.ones(3)))
        for m in cands:
            w = coordinate_log_wealths(counts, m)
            if mixture_membership(w, DELTA) and not bonferroni_membership(w, DELTA):
                ok = False
    # strictness witness: wealths (39, 39) at K=2, delta 0.05
    witness = np.log([39.0, 39.0])
    strict = bonferroni_membership(witness, DELTA) and not mixture_membership(
        witness, DELTA
    )
    _verdict("mixture aggregation set is contained in the Bonferroni set, "
             "strictly at the (39,39) witness", ok and strict)


def test_criterion_2_kl_form_matches_wealth_form():
    rng = np.random.default_rng(23)
    ok = True
    for _ in range(1000):
        K = int(rng.integers(2, 5))
        t = int(rng.integers(1, 30))
        counts = rng.multinomial(t, rng.dirichlet(np.ones(K))).astype(float)
        m = rng.dirichlet(np.ones(K))
        delta = float(rng.uniform(0.01, 0.5))
        by_wealth = membership(kt_log_wealth(counts, m), delta)
        by_kl = kl_divergence(counts / t, m) < kt_kl_threshold(counts, delta)
        if by_wealth != by_kl:
            ok = False
    _verdict("KL-form and wealth-form KT membership agree", ok)


def test_criterion_2_active_sets_are_midpoint_convex():
    rng = np.random.default_rng(29)
    G = 60
    cands = simplex_candidate_grid(3, G)
    keys = {tuple(np.round(c * G).astype(int)): i for i, c in enumerate(cands)}
    ok = True
    for _ in range(50):
        t = int(rng.integers(2, 40))
        counts = rng.multinomial(t, rng.dirichlet(np.ones(3))).astype(float)
        lw = kt_log_wealth_many(counts, cands)
        active = lw < -math.log(DELTA)
        act = np.flatnonzero(active)
        if act.size < 2:
            continue
        for _ in range(200):
            i, j = rng.choice(act, size=2)
            ksum = np.round((cands[i] + cands[j]) * G).astype(int)
            if np.any(ksum % 2):
                continue  # midpoint off the grid
            mid = keys[tuple(ksum // 2)]
            if not active[mid]:
                ok = False
    _verdict("KT active sets are midpoint-convex on the grid", ok)


# ---------------------------------------------------------------------------
# 3. Time-uniform coverage
# ---------------------------------------------------------------------------


def _kt_truth_running_wealth(data, truth):
    counts = np.cumsum(data, axis=0)
    t = np.arange(1, data.shape[0] + 1, dtype=float)
    alpha = np.full(data.shape[1], 0.5)
    q = (
        gammaln(counts + alpha[None, :]).sum(axis=1)
        - gammaln(t + alpha.sum())
        - (gammaln(alpha).sum() - gammaln(alpha.sum()))
    )
    return q - counts @ np.log(truth)


def test_criterion_3_kt_time_uniform_coverage():
    truth = np.array([0.6, 0.25, 0.15])
    trials = 500
    covered = 0
    for trial in range(trials):
        rng = trial_rng(2024, trial)
        data = gen_categorical(truth, 100, rng)
        w = _kt_truth_running_wealth(data, truth)
        covered += bool(np.max(w) < -math.log(DELTA))
    rate = covered / trials
    _verdict(f"KT time-uniform coverage {rate:.3f} >= 0.93", rate >= 0.93)


def test_criterion_3_up_time_uniform_coverage():
    conc = np.array([2.0, 1.0, 0.7])
    truth = conc / conc.sum()
    trials = 500
    covered = 0
    for trial in range(trials):
        rng = trial_rng(4048, trial)
        data = gen_dirichlet(conc, 100, rng)
        s = UPState(3)
        ok = True
        for y in data:
            s = s.absorb(y)
            if s.log_wealth(truth) >= -math.log(DELTA):
                ok = False
                break
        covered += ok
    rate = covered / trials
    _verdict(f"UP time-uniform coverage {rate:.3f} >= 0.93", rate >= 0.93)


# ---------------------------------------------------------------------------
# 4. Stopping-time comparison for audits
# ---------------------------------------------------------------------------


def test_criterion_4_audit_stopping_times_smoke():
    cfg = ExperimentConfig(
        preset="custom", census=(60, 25, 15), trials=200, delta=DELTA,
        seed=17, methods=("wor-kt", "ppr"),
    )
    s = run_experiment(cfg)["summary"]
    ratio = s["mean_stop_ratio"]
    _verdict(f"audit smoke (N=100): mean stop ratio {ratio:.3f} < 1", ratio < 1.0)


@pytest.mark.slow
def test_criterion_4_audit_stopping_times_desk_scale():
    cfg = ExperimentConfig(
        preset="custom", census=(600, 250, 150), trials=100, delta=DELTA,
        seed=11, methods=("wor-kt", "ppr"),
    )
    s = run_experiment(cfg)["summary"]
    ratio = s["mean_stop_ratio"]
    frac = s["frac_kt_no_later"]
    _verdict(
        f"audit desk scale (N=1000): mean stop ratio {ratio:.3f} in [0.60, 0.90], "
        f"plug-in no later on {frac:.2f} >= 0.95 of permutations",
        0.60 <= ratio <= 0.90 and frac >= 0.95,
    )


# ---------------------------------------------------------------------------
# 5. Closed-form spot values
# ---------------------------------------------------------------------------


def test_criterion_5_spot_values():
    checks = []

    def close(a, b, tol=1e-9):
        checks.append(abs(a - b) <= tol)

    close(kt_log_wealth(np.array([1.0, 0.0]), np.array([0.5, 0.5])), 0.0)
    close(kt_log_wealth(np.array([2.0, 0.0]), np.array([0.75, 0.25])),
          math.log(2.0 / 3.0))
    close(kt_log_wealth(np.array([1.0, 0.0]), np.array([0.02, 0.98])),
          math.log(25.0))
    close(q_kt(np.array([1.0, 0.0])), math.log(0.5))
    close(q_kt(np.array([1.0, 1.0])), math.log(0.125))

    up = UPState(2).absorb(np.array([0.75, 0.25]))
    close(up.log_wealth(np.array([0.25, 0.75])), math.log(5.0 / 3.0))

    close(wor_kt_log_wealth(np.array([2, 0]), np.array([0.75, 0.25]), 4),
          math.log(1.5))
    checks.append(
        wor_kt_log_wealth(np.array([1, 0]), np.array([0.5, 0.5]), 2) == math.inf
    )
    close(ppr_log_wealth(np.array([1, 0]), np.array([1, 1])), 0.0)
    close(ppr_log_wealth(np.array([2, 0]), np.array([3, 1])), math.log(0.75))
    d2 = np.array([[1.0, 0.0], [1.0, 0.0]])
    close(perround_wor_log_wealth(d2, np.array([0.75, 0.25]), 4),
          math.log(0.75))
    checks.append(
        np.allclose(
            wor_mean_transform(np.array([0.5, 0.5]), np.array([1, 0]), 4),
            [1.0 / 3.0, 2.0 / 3.0],
        )
    )

    close(sanov_radius(10, 3, DELTA), 1.018937, tol=1e-5)
    close(mardia_radius(100, 3, DELTA), 0.087638, tol=1e-5)
    checks.append(33 < mardia_gate(3) < 34)
    lo, hi = clopper_pearson_interval(1, 2, 0.1)
    close(lo, 0.025321, tol=1e-6)
    close(hi, 0.974679, tol=1e-6)

    _verdict(f"closed-form spot values ({sum(checks)}/{len(checks)} exact)",
             all(checks))


# ---------------------------------------------------------------------------
# 6. Determinism
# ---------------------------------------------------------------------------


def test_criterion_6_deterministic_outputs(tmp_path):
    cfg = ExperimentConfig(
        preset="custom", mu=(0.6, 0.25, 0.15), horizon=25, trials=5,
        delta=DELTA, seed=42, methods=("kt", "kt2-mix", "sanov"),
        grid_resolution=20,
    )
    blobs = []
    for rep in range(2):
        res = run_experiment(cfg)
        csv = tmp_path / f"r{rep}.csv"
        js = tmp_path / f"r{rep}.json"
        emit(res, "csv", str(csv))
        emit(res, "json", str(js))
        blobs.append((csv.read_bytes(), js.read_bytes()))
    ok = blobs[0] == blobs[1]
    _verdict("repeated runs emit byte-identical CSV and JSON", ok)


# ---------------------------------------------------------------------------
# 7. Performance guard
# ---------------------------------------------------------------------------


def test_criterion_7_up_trial_runtime_k4():
    cfg = ExperimentConfig(
        preset="custom", concentration=(2.0, 1.0, 0.7, 0.3), horizon=100,
        trials=1, delta=DELTA, seed=3, methods=("up",), grid_resolution=40,
    )
    t0 = time.perf_counter()
    run_experiment(cfg)
    wall = time.perf_counter() - t0
    _verdict(f"UP K=4 T=100 full trial in {wall:.1f}s < 10s", wall < 10.0)


@pytest.mark.slow
def test_criterion_7_up_trial_runtime_k5():
    cfg = ExperimentConfig(
        preset="custom", concentration=(2.0, 1.0, 0.7, 0.3, 0.5), horizon=100,
        trials=1, delta=DELTA, seed=3, methods=("up",), grid_resolution=20,
    )
    t0 = time.perf_counter()
    run_experiment(cfg)
    wall = time.perf_counter() - t0
    _verdict(f"UP K=5 T=100 full trial in {wall:.0f}s < 600s", wall < 600.0)
