import itertools
import json
import math

import numpy as np
import pytest

from simplexcs.baselines import (
    clopper_pearson_interval,
    coordinate_log_wealths_many,
    mardia_gate,
    mardia_radius,
    mixture_log_wealth,
    sanov_radius,
)
from simplexcs.confset import simplex_candidate_grid
from simplexcs.harness import (
    ExperimentConfig,
    Levels,
    _cp_bonf_levels,
    _kl_levels,
    _kt2_max_levels,
    _kt2_mix_levels,
    _kt_levels,
    _make_runner,
    _truth_covered_wor,
    apply_preset,
    emit,
    gen_categorical,
    gen_dirichlet,
    gen_wor,
    run_experiment,
    trial_rng,
)
from simplexcs.numerics import kl_divergence
from simplexcs.wealth import DirichletPrior, UPState, _kt_terms, kt_log_wealth_many
from simplexcs.wor import METHODS, AuditState


def _small_cfg(**kw):
    base = dict(
        preset="custom", k=3, mu=(0.6, 0.25, 0.15), horizon=15, trials=3,
        delta=0.05, seed=7, methods=("kt", "sanov"), grid_resolution=12,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_apply_preset_defaults():
    cfg = apply_preset(ExperimentConfig(preset="fig1", k=3))
    assert cfg.mu == (0.6, 0.25, 0.15)
    assert "kt" in cfg.methods and "cp-bonf" in cfg.methods
    cfg2 = apply_preset(ExperimentConfig(preset="fig2"))
    assert cfg2.census == (600, 250, 150)
    assert cfg2.methods == ("ppr",)
    with pytest.raises(ValueError):
        apply_preset(ExperimentConfig(preset="fig3"))
    with pytest.raises(ValueError):
        apply_preset(ExperimentConfig(preset="nope"))


def test_trial_rng_streams_are_stable_and_distinct():
    a = trial_rng(5, 0).random(4)
    b = trial_rng(5, 0).random(4)
    c = trial_rng(5, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gen_categorical_contract():
    rng = trial_rng(0, 0)
    mu = np.array([0.6, 0.25, 0.15])
    data = gen_categorical(mu, 10000, rng)
    assert data.shape == (10000, 3)
    assert np.all(data.sum(axis=1) == 1.0)
    assert np.all((data == 0.0) | (data == 1.0))
    emp = data.mean(axis=0)
    slack = 4.0 * np.sqrt(mu * (1 - mu) / 10000)
    assert np.all(np.abs(emp - mu) <= slack)
    # degenerate mean
    e1 = gen_categorical(np.array([1.0, 0.0]), 50, trial_rng(0, 1))
    assert np.all(e1[:, 0] == 1.0)


def test_gen_dirichlet_contract():
    rng = trial_rng(1, 0)
    data = gen_dirichlet(np.array([2.0, 1.0, 0.5]), 5000, rng)
    assert data.shape == (5000, 3)
    assert np.allclose(data.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(data > 0.0)
    emp = data.mean(axis=0)
    assert np.allclose(emp, np.array([2.0, 1.0, 0.5]) / 3.5, atol=0.02)
    with pytest.raises(ValueError):
        gen_dirichlet(np.array([1.0, 0.0]), 5, rng)


def test_gen_wor_contract():
    census = np.array([2, 2])
    counts = np.zeros(2)
    first = []
    for i in range(2000):
        labels = gen_wor(census, trial_rng(2, i))
        assert np.array_equal(np.bincount(labels, minlength=2), census)
        first.append(labels[0])
    frac = np.mean(np.asarray(first) == 0)
    assert abs(frac - 0.5) < 0.04
    counts  # noqa: B018 - silence unused warning on older linters


def test_simulate_row_counts_and_monotone_volume():
    cfg = _small_cfg()
    res = run_experiment(cfg)
    assert res["kind"] == "simulate"
    rows = res["rows"]
    # (horizon + 1) rows per method per trial
    assert len(rows) == 2 * 3 * 16
    kt_rows = [r for r in rows if r["method"] == "kt" and r["trial"] == 0]
    vols = [r["volume"] for r in kt_rows]
    assert vols[0] == 1.0
    assert all(b <= a + 1e-12 for a, b in zip(vols, vols[1:]))
    # summary curves have horizon + 1 entries
    assert len(res["summary"]["kt"]["mean_volume"]) == 16
    assert res["summary"]["kt"]["time_uniform"] is True
    assert res["summary"]["sanov"]["time_uniform"] is False


def test_simulate_deterministic_outputs(tmp_path):
    cfg = _small_cfg()
    paths = []
    for rep in range(2):
        res = run_experiment(cfg)
        csv = tmp_path / f"out{rep}.csv"
        js = tmp_path / f"out{rep}.json"
        emit(res, "csv", str(csv))
        emit(res, "json", str(js))
        paths.append((csv.read_bytes(), js.read_bytes()))
    assert paths[0][0] == paths[1][0]
    assert paths[0][1] == paths[1][1]


def test_emit_csv_format(tmp_path):
    res = run_experiment(_small_cfg(trials=1, horizon=3))
    path = tmp_path / "rows.csv"
    emit(res, "csv", str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "method,trial,t,volume,covered,active_count,stop_t"
    assert len(lines) == 1 + len(res["rows"])


def test_emit_svg(tmp_path):
    res = run_experiment(_small_cfg(trials=1, horizon=3))
    path = tmp_path / "plot.svg"
    emit(res, "svg", str(path))
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text
    with pytest.raises(ValueError):
        emit(res, "parquet", str(tmp_path / "x"))


def test_emit_svg_audit_histogram(tmp_path):
    # an audit plots one stop-time histogram per method, whose outline
    # runs from t = 1 to N + 1 at the x-axis ends
    res = run_experiment(ExperimentConfig(census=(6, 3, 1), trials=5, seed=2))
    path = tmp_path / "audit.svg"
    emit(res, "svg", str(path))
    text = path.read_text()
    assert text.count("<polyline") == len(res["rows"].methods) == 1
    assert ">ppr</text>" in text and "stop time t" in text
    assert "KT / PPR" not in text
    points = text.split('points="')[1].split('"')[0].split()
    assert points[0] == "50.0,370.0" and points[-1] == "590.0,370.0"


def test_config_json_round_trip(tmp_path):
    cfg = _small_cfg()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = ExperimentConfig.from_json(str(path))
    assert loaded == cfg
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"horizon": 5, "bogus": 1}))
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(str(bad))


def test_wor_experiment_summary():
    cfg = ExperimentConfig(
        preset="custom", census=(12, 5, 3), trials=20, delta=0.05, seed=1,
    )
    res = run_experiment(cfg)
    assert res["kind"] == "wor"
    s = res["summary"]
    assert s["N"] == 20
    assert set(s) == {"population", "N", "mean_stop", "coverage"}
    assert set(s["mean_stop"]) == {"ppr"}
    assert s["coverage"]["ppr"] >= 0.9
    assert s["mean_stop"]["ppr"] == np.mean([r["stop_t"] for r in res["rows"]])
    for r in res["rows"]:
        assert 1 <= r["stop_t"] <= 20
        assert r["time_uniform"] is True


def test_kt_and_up_agree_on_categorical_data():
    # on one-hot streams the two wealth processes coincide, so the
    # confidence sets must match step by step
    cfg_kt = _small_cfg(methods=("kt",), trials=1, horizon=10)
    cfg_up = _small_cfg(methods=("up",), trials=1, horizon=10)
    res_kt = run_experiment(cfg_kt)
    res_up = run_experiment(cfg_up)
    v_kt = [r["volume"] for r in res_kt["rows"]]
    v_up = [r["volume"] for r in res_up["rows"]]
    assert v_kt == v_up


@pytest.mark.parametrize("method", METHODS)
def test_wor_coverage_flag_equals_audit_state_exhaustive(method):
    # every label order of every census with K = 2, 3 and N <= 7: the
    # harness's coverage flag says whether the true census is still in the
    # audit engine's active set after N - 1 draws (none when N = 1)
    outcomes = set()
    for K in (2, 3):
        prior = DirichletPrior.jeffreys(K)
        for N in range(1, 8):
            for labels in itertools.product(range(K), repeat=N):
                census = np.bincount(labels, minlength=K)
                for delta in (0.2, 0.5):
                    state = AuditState(N, K, delta, method=method, prior=prior)
                    for label in labels[:-1]:
                        state.absorb(label)
                    active = np.all(state.active_censuses() == census, axis=1)
                    covered = _truth_covered_wor(np.array(labels), census, N,
                                                 K, delta, prior)
                    assert covered == bool(active.any()), (labels, delta)
                    outcomes.add(covered)
    assert outcomes == {True, False}


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("delta", [0.05, 0.1])
def test_kt2_bonf_set_equals_coordinatewise_running_max(K, delta):
    # oracle: a candidate stays in while every coordinate's running max of
    # the KT(2) log wealth stays below ln(K / delta)
    cands = simplex_candidate_grid(K, {2: 60, 3: 20, 4: 10}[K])
    rng = trial_rng(29, 10 * K)
    truth = rng.dirichlet(np.ones(K))
    # one-hot draws, then probability vectors: fractional counts
    data = np.vstack([gen_categorical(truth, 40, rng),
                      gen_dirichlet(3.0 * truth + 0.2, 20, rng)])
    runner = _make_runner("kt2-bonf", Levels(cands, truth[None, :]), delta,
                          DirichletPrior.jeffreys(K))
    limit = math.log(K) - math.log(delta)
    counts = np.zeros(K)
    run_max = np.zeros(cands.shape)
    truth_max = np.zeros(K)
    excluded = False
    for t, y in enumerate(data, start=1):
        counts = counts + y
        run_max = np.maximum(run_max, coordinate_log_wealths_many(counts, t, cands))
        truth_max = np.maximum(
            truth_max, coordinate_log_wealths_many(counts, t, truth[None, :])[0])
        runner.step(y)
        volume, covered, count = runner.metrics()
        want = np.all(run_max < limit, axis=1)
        assert np.array_equal(runner.cs.active, want), t
        assert (volume, covered, count) == (
            want.mean(), bool(np.all(truth_max < limit)), int(want.sum()))
        excluded |= not want.all()
    assert excluded


def _plain_kl(p, q):
    total = 0.0
    for pj, qj in zip(p, q):
        if pj > 0.0:
            if qj == 0.0:
                return math.inf
            total += pj * (math.log(pj) - math.log(qj))
    return total


@pytest.mark.parametrize("K", [2, 3, 4])
def test_fresh_sets_equal_plain_oracle(K):
    # oracle: at each step the Sanov and Mardia sets are the candidates whose
    # plain-Python KL from the empirical mean is below the radius (Mardia:
    # the whole simplex below its gate), and cp-bonf's is the box of
    # coordinate Clopper-Pearson intervals at delta / K
    delta = 0.1
    cands = simplex_candidate_grid(K, {2: 60, 3: 20, 4: 10}[K])
    rng = trial_rng(31, 10 * K)
    truth = rng.dirichlet(np.ones(K))
    # one-hot draws, then probability vectors: fractional counts; the
    # horizon passes the Mardia gate (t >= 34 at K = 3, t >= 81 at K = 4)
    data = np.vstack([gen_categorical(truth, 50, rng),
                      gen_dirichlet(3.0 * truth + 0.2, 50, rng)])
    assert len(data) >= mardia_gate(K)
    prior = DirichletPrior.jeffreys(K)
    levels = Levels(cands, truth[None, :])
    runners = {m: _make_runner(m, levels, delta, prior)
               for m in ("sanov", "mardia", "cp-bonf")}
    counts = np.zeros(K)
    excluded = set()
    for t, y in enumerate(data, start=1):
        counts = counts + y
        mu_hat = counts / t
        kl = [_plain_kl(mu_hat, m) for m in cands]
        kl_truth = _plain_kl(mu_hat, truth)
        lo, hi = clopper_pearson_interval(np.rint(counts).astype(np.int64), t,
                                          delta / K)

        def in_box(m):
            return all(lo[j] <= m[j] <= hi[j] for j in range(K))

        radius = {"sanov": sanov_radius(t, K, delta)}
        if t >= mardia_gate(K):
            radius["mardia"] = mardia_radius(t, K, delta)
        want = {"mardia": ([True] * len(cands), True),
                "cp-bonf": ([in_box(m) for m in cands], in_box(truth))}
        for m, r in radius.items():
            # no candidate lies so near a radius that rounding could decide it
            assert all(abs(d - r) > 1e-9 for d in kl + [kl_truth]), (m, t)
            want[m] = ([d < r for d in kl], kl_truth < r)
        for m, runner in runners.items():
            runner.step(y)
            mask, covered = want[m]
            assert runner.metrics() == (np.mean(mask), covered, sum(mask)), (m, t)
            if not all(mask):
                excluded.add(m)
    assert excluded == set(runners)


def _level_cases():
    # K = 2..5 on grids with zero coordinates, an off-grid truth, and
    # one-hot (integer, some zero) then fractional counts
    for K, G in ((2, 37), (3, 23), (4, 9), (5, 6)):
        rng = trial_rng(41, K)
        truth = rng.dirichlet(np.ones(K))
        data = np.vstack([gen_categorical(truth, 12, rng),
                          gen_dirichlet(np.full(K, 0.7), 6, rng)])
        yield K, simplex_candidate_grid(K, G), truth, np.cumsum(data, axis=0)


def test_level_tables_equal_block_kernels():
    # each kernel evaluated on the coordinate levels and gathered equals the
    # same kernel on the row-major block of candidates and truth, bit for bit
    jeffreys2 = DirichletPrior.jeffreys(2)
    for K, cands, truth, cumulative in _level_cases():
        block = np.vstack([cands, truth])
        levels = Levels(cands, truth[None, :])
        assert np.array_equal(levels.block, block)
        assert levels.matrix.shape[0] < block.size
        assert np.array_equal(levels.matrix.ravel()[levels.flat], block)
        prior = DirichletPrior(np.full(K, 0.8))
        for t, counts in enumerate(cumulative, start=1):
            terms = _kt_terms(counts, levels.matrix).ravel()[levels.flat]
            assert np.array_equal(terms, _kt_terms(counts, block))
            assert np.array_equal(
                _kt_levels(counts, t, levels.matrix, levels.flat, prior),
                kt_log_wealth_many(counts, block, prior))
            coords = coordinate_log_wealths_many(counts, t, block)
            gathered = coordinate_log_wealths_many(
                counts, t, levels.matrix).ravel()[levels.flat]
            assert np.array_equal(gathered, coords)
            assert np.array_equal(
                _kt2_mix_levels(counts, t, levels.matrix, levels.flat,
                                jeffreys2),
                mixture_log_wealth(coords))
            assert np.array_equal(
                _kt2_max_levels(counts, t, levels.matrix, levels.flat,
                                jeffreys2),
                coords.max(axis=1))
            mu_hat = counts / t
            assert np.array_equal(_kl_levels(mu_hat, levels),
                                  kl_divergence(mu_hat, block))
            lo, hi = clopper_pearson_interval(
                np.rint(counts).astype(np.int64), t, 0.1 / K)
            assert np.array_equal(
                _cp_bonf_levels(counts, t, levels, 0.1),
                np.all((block >= lo) & (block <= hi), axis=1))


def _block_log_wealth(method, K, prior):
    """The parent form of each running-max method: a wealth state and the
    block kernel, evaluated at every candidate each step."""
    if method == "up":
        return UPState(K, prior=prior), lambda s, cands: s.log_wealth_many(cands)
    kernel = {
        "kt": lambda k, t, c: kt_log_wealth_many(k, c, prior),
        "kt2-mix": lambda k, t, c: mixture_log_wealth(
            coordinate_log_wealths_many(k, t, c)),
        "kt2-bonf": lambda k, t, c: coordinate_log_wealths_many(
            k, t, c).max(axis=1),
    }[method]
    return None, kernel


@pytest.mark.parametrize("method", ["kt", "up", "kt2-mix", "kt2-bonf"])
@pytest.mark.parametrize("K", [2, 3, 4])
def test_compacted_set_runner_equals_mask_oracle(method, K):
    # oracle: every candidate is evaluated each step and its running max
    # updated while a mask says it is active; the runner's compacted set
    # has the same mask and running max, and the same coverage, every step
    cands = simplex_candidate_grid(K, {2: 50, 3: 16, 4: 8}[K])
    rng = trial_rng(47, K)
    truth = rng.dirichlet(np.ones(K))
    data = np.vstack([gen_categorical(truth, 30, rng),
                      gen_dirichlet(8.0 * truth, 10, rng)])
    delta = 0.1
    prior = DirichletPrior(np.full(K, 0.5))
    runner = _make_runner(method, Levels(cands, truth[None, :]), delta, prior)
    state, kernel = _block_log_wealth(method, K, prior)
    thr = -math.log(delta / K if method == "kt2-bonf" else delta)
    block = np.vstack([cands, truth])
    run_max = np.zeros(len(block))
    active = np.ones(len(cands), dtype=bool)
    counts = np.zeros(K)
    for t, y in enumerate(data, start=1):
        counts = counts + y
        if state is None:
            lw = kernel(counts, t, block)
        else:
            state = state.absorb(y)
            lw = kernel(state, block)
        live = np.append(active, True)
        run_max[live] = np.maximum(run_max[live], lw[live])
        active = run_max[:-1] < thr
        runner.step(y)
        assert np.array_equal(runner.cs.active, active), t
        if method == "up":  # the matmul's rounding may follow the block width
            assert np.allclose(runner.cs.running_max, run_max[:-1], rtol=0.0,
                               atol=1e-12), t
        else:
            assert np.array_equal(runner.cs.running_max, run_max[:-1]), t
        assert runner.metrics() == (active.mean(), bool(run_max[-1] < thr),
                                    int(active.sum())), t
    assert 0 < active.sum() < len(cands)
