import math

import numpy as np
import pytest

from simplexcs.confset import (
    ConfidenceSet,
    boundary_radius,
    kt_kl_threshold,
    log_threshold,
    membership,
    simplex_candidate_grid,
    thm3b_lower_bound,
    thm3c_asymptotic_threshold,
)
from simplexcs.numerics import kl_divergence
from simplexcs.wealth import kt_log_wealth, kt_log_wealth_many, q_kt


def test_log_threshold():
    assert log_threshold(0.05) == pytest.approx(math.log(20.0), rel=1e-12)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            log_threshold(bad)


def test_membership_strict():
    assert membership(0.0, 0.05)
    assert not membership(math.log(20.0), 0.05)  # boundary excluded
    assert not membership(math.inf, 0.05)
    with pytest.raises(ValueError):
        membership(math.nan, 0.05)


def test_membership_spot_case():
    # counts (1, 0) against m = (0.02, 0.98): wealth 25 >= 20, out
    lw = kt_log_wealth(np.array([1.0, 0.0]), np.array([0.02, 0.98]))
    assert not membership(lw, 0.05)


def test_kl_threshold_spot_value():
    thr = kt_kl_threshold(np.array([2.0, 0.0]), 0.05)
    expected = 0.5 * (math.log(20.0) + math.log(1.0 / 0.375))
    assert thr == pytest.approx(expected, abs=1e-9)
    assert thr == pytest.approx(1.98828, abs=1e-5)
    # the boundary on m_1: D((1,0) || m) = -ln m_1 = thr
    boundary = math.exp(-thr)
    assert boundary == pytest.approx(math.sqrt(0.375 / 20.0), abs=1e-9)


def test_kl_form_equals_wealth_form():
    rng = np.random.default_rng(29)
    for _ in range(1000):
        K = int(rng.integers(2, 5))
        t = int(rng.integers(1, 30))
        counts = rng.multinomial(t, rng.dirichlet(np.ones(K))).astype(float)
        m = rng.dirichlet(np.ones(K))
        delta = float(rng.uniform(0.01, 0.5))
        by_wealth = membership(kt_log_wealth(counts, m), delta)
        by_kl = kl_divergence(counts / t, m) < kt_kl_threshold(counts, delta)
        assert by_wealth == by_kl


def test_thm3b_lower_bound_values():
    b = thm3b_lower_bound(np.array([2, 0]), 0.05)
    assert b[0] == pytest.approx(math.sqrt(0.01875), abs=1e-9)
    assert b[1] == 0.0
    b1 = thm3b_lower_bound(np.array([1, 0]), 0.05)
    assert b1[0] == pytest.approx(0.025, abs=1e-9)


def test_thm3b_bound_tight_on_concentrated_counts():
    # when all mass sits in one category the bound coincides with the
    # exact membership boundary for that coordinate
    counts = np.array([2, 0])
    bound = thm3b_lower_bound(counts, 0.05)
    thr = kt_kl_threshold(counts, 0.05)
    assert bound[0] == pytest.approx(math.exp(-thr), abs=1e-9)


def test_thm3b_bound_is_not_a_membership_certificate():
    # the coordinatewise bound can fail for interior members when K > 2;
    # keep a concrete witness so the limitation stays documented
    counts = np.array([2, 6, 1])
    m = np.array([0.03791641, 0.84695371, 0.11512988])
    bound = thm3b_lower_bound(counts, 0.05)
    assert membership(kt_log_wealth(counts.astype(float), m), 0.05)
    assert m[0] < bound[0]


def test_thm3c_values():
    val = thm3c_asymptotic_threshold(100, 3, 0.05)
    assert val == pytest.approx(math.log(20.0) / 100 + 0.01 * math.log(100.0),
                                abs=1e-9)
    assert val == pytest.approx(0.076009, abs=1e-5)
    # linear in K-1
    v2 = thm3c_asymptotic_threshold(100, 2, 0.05)
    assert v2 - math.log(20.0) / 100 == pytest.approx(
        0.5 * (val - math.log(20.0) / 100), rel=1e-12
    )


def test_thm3c_gap_shrinks():
    # the exact KL radius approaches the two-term asymptote as t grows
    delta = 0.05
    gaps = []
    for t in (1000, 10000):
        counts = np.full(3, t / 3.0)
        gaps.append(
            abs(kt_kl_threshold(counts, delta) - thm3c_asymptotic_threshold(t, 3, delta))
        )
    assert gaps[1] < gaps[0]


def test_candidate_grid():
    cands = simplex_candidate_grid(3, 10)
    assert cands.shape == (66, 3)
    assert np.allclose(cands.sum(axis=1), 1.0)
    assert np.all(cands >= 0.0)
    with pytest.raises(ValueError):  # 0 / 0 would give NaN candidates
        simplex_candidate_grid(3, 0)


def test_confidence_set_lifecycle():
    cands = np.array([[0.0, 1.0], [0.25, 0.75], [0.5, 0.5], [0.75, 0.25], [1.0, 0.0]])
    cs = ConfidenceSet(cands, 0.05)
    assert cs.relative_volume() == 1.0
    # one e_1 draw: wealth at m is 0.5 / m_1, only m_1 = 0 diverges past 20
    counts = np.array([1.0, 0.0])
    cs.update(kt_log_wealth_many(counts, cs.active_candidates()))
    assert not cs.active[0]
    assert np.all(cs.active[1:])


def test_confidence_set_exclusion_is_permanent():
    cands = simplex_candidate_grid(2, 8)
    cs = ConfidenceSet(cands, 0.05)
    counts = np.array([5.0, 0.0])
    cs.update(kt_log_wealth_many(counts, cs.active_candidates()))
    excluded = ~cs.active.copy()
    # later evidence pointing the other way cannot resurrect candidates
    counts2 = np.array([5.0, 5.0])
    cs.update(kt_log_wealth_many(counts2, cs.active_candidates()))
    assert np.all(~cs.active[excluded])


def test_confidence_set_update_validates():
    cs = ConfidenceSet(simplex_candidate_grid(2, 4), 0.05)
    with pytest.raises(ValueError):
        cs.update(np.zeros(3))
    with pytest.raises(ValueError):
        cs.update(np.full(5, math.nan))


def test_compacted_set_equals_mask_oracle():
    # oracle: full-length running max and active mask, updated through the
    # mask each step; the compacted set matches it after every update,
    # including steps that exclude nothing and a rejected NaN update
    rng = np.random.default_rng(67)
    cands = simplex_candidate_grid(3, 12)
    A = cands.shape[0]
    cs = ConfidenceSet(cands, 0.1)
    run_max = np.zeros(A)
    active = np.ones(A, dtype=bool)
    for step in range(40):
        lw = rng.normal(0.0, 0.8, size=int(active.sum())) + 0.04 * step
        if step % 3 == 0:
            lw = np.minimum(lw, run_max[active])  # nothing new crosses
        run_max[active] = np.maximum(run_max[active], lw)
        active = run_max < cs.threshold
        cs.update(lw)
        assert np.array_equal(cs.active, active)
        assert np.array_equal(cs.running_max, run_max)
        assert np.array_equal(cs.active_indices(), np.flatnonzero(active))
        assert np.array_equal(cs.active_candidates(), cands[active])
        assert cs.active_count() == active.sum()
        assert cs.relative_volume() == active.mean()
        if active.any():
            bad = np.zeros(int(active.sum()))
            bad[-1] = math.nan
            with pytest.raises(ValueError):
                cs.update(bad)
    assert 0 < active.sum() < A


def test_relative_volume_spot_case():
    # counts (2, 0), delta 0.05, grid G=4: boundary at m_1 ~ 0.1369
    cands = simplex_candidate_grid(2, 4)
    cs = ConfidenceSet(cands, 0.05).update(
        kt_log_wealth_many(np.array([2.0, 0.0]), cands))
    assert cs.relative_volume() == pytest.approx(0.8, abs=1e-12)
    surviving = cs.candidates[cs.active][:, 0]
    assert set(np.round(surviving, 6)) == {0.25, 0.5, 0.75, 1.0}


def test_to_csv_round_trip(tmp_path):
    cands = simplex_candidate_grid(2, 4)
    cs = ConfidenceSet(cands, 0.05).update(
        kt_log_wealth_many(np.array([2.0, 0.0]), cands))
    path = tmp_path / "set.csv"
    cs.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "m1,m2,running_max_log_wealth,active"
    assert len(lines) == 1 + cands.shape[0]
    actives = [int(row.rsplit(",", 1)[1]) for row in lines[1:]]
    assert sum(actives) == 4


def test_boundary_radius_matches_kl_boundary():
    counts = np.array([2.0, 0.0])
    delta = 0.05
    thr = kt_kl_threshold(counts, delta)
    exact = math.exp(-thr)  # boundary value of m_1 along the edge

    def member(m):
        m = np.clip(m, 0.0, 1.0)
        if abs(m.sum() - 1.0) > 1e-9:
            return False
        return membership(kt_log_wealth(counts, m), delta)

    center = np.array([1.0, 0.0])
    direction = np.array([-1.0, 1.0])
    s = boundary_radius(member, center, direction, iters=40)
    assert 1.0 - s == pytest.approx(exact, abs=1e-6)


def test_active_set_midpoint_convexity():
    # gambling confidence sets are convex: the midpoint of two active grid
    # candidates, snapped to the grid, must be active too
    rng = np.random.default_rng(61)
    G = 20
    cands = simplex_candidate_grid(3, G)
    lookup = {tuple(np.round(c * G).astype(int)): i for i, c in enumerate(cands)}
    for _ in range(10):
        t = int(rng.integers(2, 25))
        counts = rng.multinomial(t, rng.dirichlet(np.ones(3))).astype(float)
        cs = ConfidenceSet(cands, 0.05).update(kt_log_wealth_many(counts, cands))
        act = np.flatnonzero(cs.active)
        for _ in range(200):
            i, j = rng.choice(act, size=2)
            mid = 0.5 * (cands[i] + cands[j])
            key = tuple(np.round(mid * G).astype(int))
            if sum(key) != G or key not in lookup:
                continue  # midpoint falls off the grid
            snapped = np.asarray(key, dtype=float) / G
            if np.max(np.abs(snapped - mid)) > 1e-9:
                continue
            assert cs.active[lookup[key]]
