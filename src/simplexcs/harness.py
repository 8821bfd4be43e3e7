"""Experiment harness: data generators, method runners, presets, metrics,
and the CSV/JSON/SVG emitters."""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Sequence

import numpy as np
from scipy.special import gammaln

from .baselines import (
    clopper_pearson_interval,
    coordinate_log_wealths_many,
    mardia_gate,
    mardia_radius,
    sanov_radius,
)
from .confset import ConfidenceSet, log_threshold, simplex_candidate_grid
from .numerics import kl_divergence, logsumexp
from .simplex import validate_count_vector, validate_prob_vector
from .wealth import (
    DirichletPrior,
    UPState,
    kt_log_wealth_many,
)
from .wor import AuditState, rank_decided

SIMULATE_METHODS = ("kt", "up", "kt2-mix", "kt2-bonf", "sanov", "mardia", "cp-bonf")
NON_TIME_UNIFORM = {"sanov", "mardia", "cp-bonf"}

DEFAULT_GRID = {2: 100, 3: 100, 4: 40, 5: 20}
_DEFAULT_MU = {
    3: (0.6, 0.25, 0.15),
    4: (0.5, 0.25, 0.15, 0.1),
    5: (0.4, 0.25, 0.15, 0.12, 0.08),
}

__all__ = [
    "ExperimentConfig",
    "trial_rng",
    "gen_categorical",
    "gen_dirichlet",
    "gen_wor",
    "Rows",
    "run_experiment",
    "emit",
]


@dataclasses.dataclass
class ExperimentConfig:
    preset: str = "custom"
    k: int = 3
    horizon: int = 100
    trials: int = 100
    delta: float = 0.05
    mu: tuple | None = None
    concentration: tuple | None = None
    census: tuple | None = None
    methods: tuple = ()
    seed: int = 0
    grid_resolution: int | None = None
    alpha: float = 0.5
    out: str | None = None
    svg: str | None = None

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            raw = json.load(fh)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for key in ("mu", "concentration", "census", "methods"):
            if raw.get(key) is not None:
                raw[key] = tuple(raw[key])
        return cls(**raw)

    def to_dict(self):
        d = dataclasses.asdict(self)
        for key in ("mu", "concentration", "census", "methods"):
            if d[key] is not None:
                d[key] = list(d[key])
        return d


def apply_preset(cfg):
    """Fill preset defaults; returns a new resolved config."""
    cfg = dataclasses.replace(cfg)
    if cfg.preset == "fig1":
        cfg.horizon = cfg.horizon or 100
        cfg.methods = tuple(cfg.methods) or (
            "kt", "kt2-mix", "kt2-bonf", "sanov", "mardia", "cp-bonf",
        )
        if cfg.mu is None:
            if cfg.k not in _DEFAULT_MU:
                raise ValueError("fig1 preset needs --mu for this K")
            cfg.mu = _DEFAULT_MU[cfg.k]
    elif cfg.preset == "fig2":
        if cfg.census is None:
            cfg.census = (600, 250, 150)
        cfg.methods = tuple(cfg.methods) or ("wor-kt", "ppr")
    elif cfg.preset == "fig3":
        if cfg.concentration is None:
            raise ValueError(
                "fig3 preset requires explicit Dirichlet concentration parameters"
            )
        cfg.methods = tuple(cfg.methods) or ("up", "kt2-mix", "kt2-bonf")
    elif cfg.preset != "custom":
        raise ValueError(f"unknown preset {cfg.preset!r}")
    if cfg.census is not None:
        cfg.census = tuple(int(c) for c in cfg.census)
        cfg.k = len(cfg.census)
        cfg.methods = tuple(cfg.methods) or ("wor-kt", "ppr")
    else:
        if cfg.mu is not None:
            cfg.mu = tuple(float(x) for x in cfg.mu)
            cfg.k = len(cfg.mu)
        if cfg.concentration is not None:
            cfg.concentration = tuple(float(x) for x in cfg.concentration)
            cfg.k = len(cfg.concentration)
        cfg.methods = tuple(cfg.methods) or ("kt",)
        if cfg.mu is None and cfg.concentration is None:
            if cfg.k not in _DEFAULT_MU:
                raise ValueError("need --mu, --conc, or --census")
            cfg.mu = _DEFAULT_MU[cfg.k]
    if cfg.grid_resolution is None:
        cfg.grid_resolution = DEFAULT_GRID.get(cfg.k, 20)
    if not (0.0 < cfg.delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    return cfg


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def trial_rng(seed, trial_index):
    """Independent per-trial stream: a fixed mix of (seed, trial_index)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial_index),))
    )


def gen_categorical(mu, T, rng):
    """T i.i.d. one-hot draws with mean mu, as a (T, K) float array."""
    mu = validate_prob_vector(mu)
    cum = np.cumsum(mu)
    cum[-1] = 1.0
    cats = np.searchsorted(cum, rng.random(T), side="right")
    out = np.zeros((T, mu.size))
    out[np.arange(T), cats] = 1.0
    return out


def gen_dirichlet(conc, T, rng):
    """T i.i.d. Dirichlet draws via normalized gamma variates."""
    conc = np.asarray(conc, dtype=float)
    if np.any(conc <= 0.0):
        raise ValueError("concentration parameters must be positive")
    g = rng.standard_gamma(conc, size=(T, conc.size))
    return g / g.sum(axis=1, keepdims=True)


def gen_wor(census, rng):
    """A uniformly random permutation of the census, as 0-based labels."""
    census, N = validate_count_vector(census)
    labels = np.repeat(np.arange(census.size), census)
    return rng.permutation(labels)


# ---------------------------------------------------------------------------
# Method runners (one trial each)
# ---------------------------------------------------------------------------


class KTRunner:
    """KT mixture wealth at the active candidates, with the truth evaluated
    in the same block."""

    def __init__(self, candidates, truth, delta, prior):
        self.cs = ConfidenceSet(candidates, delta)
        self.counts = np.zeros(candidates.shape[1])
        self.truth = truth
        self.prior = prior
        self.truth_max = 0.0
        self.threshold = log_threshold(delta)

    def _absorb(self, y):
        self.counts = self.counts + y

    def _log_wealth_many(self, cands):
        return kt_log_wealth_many(self.counts, cands, self.prior)

    def step(self, y):
        self._absorb(y)
        block = np.vstack([self.cs.active_candidates(), self.truth[None, :]])
        lw = self._log_wealth_many(block)
        self.cs.update(lw[:-1])
        self.truth_max = max(self.truth_max, float(lw[-1]))

    def metrics(self):
        return (
            self.cs.relative_volume(),
            self.truth_max < self.threshold,
            int(self.cs.active.sum()),
        )


class UPRunner(KTRunner):
    """Universal-portfolio wealth through the UPState dynamic program."""

    def __init__(self, candidates, truth, delta, prior):
        super().__init__(candidates, truth, delta, prior)
        self.state = UPState(candidates.shape[1], prior=prior)

    def _absorb(self, y):
        self.state = self.state.absorb(y)

    def _log_wealth_many(self, cands):
        return self.state.log_wealth_many(cands)


class KT2Runner:
    """Coordinatewise KT(2) wealths aggregated by mixture or Bonferroni."""

    def __init__(self, candidates, truth, delta, aggregation):
        self.cands = candidates
        self.truth = truth
        self.mix = aggregation == "mix"
        A, K = candidates.shape
        self.K = K
        self.counts = np.zeros(K)
        self.t = 0
        self.prior = DirichletPrior.jeffreys(2)
        self.active = np.ones(A, dtype=bool)
        if self.mix:
            self.run_max = np.zeros(A)
            self.truth_max = 0.0
            self.limit = log_threshold(delta)
        else:
            self.run_max = np.zeros((A, K))
            self.truth_max = np.zeros(K)
            self.limit = math.log(K) + log_threshold(delta)

    def step(self, y):
        self.counts = self.counts + y
        self.t += 1
        idx = np.flatnonzero(self.active)
        block = np.vstack([self.cands[idx], self.truth[None, :]])
        w = coordinate_log_wealths_many(self.counts, self.t, block, self.prior)
        if self.mix:
            w = logsumexp(w, axis=1) - math.log(self.K)
        rm = np.maximum(self.run_max[idx], w[:-1])
        self.run_max[idx] = rm
        below = rm < self.limit
        self.active[idx] = below if self.mix else np.all(below, axis=1)
        self.truth_max = np.maximum(self.truth_max, w[-1])

    def metrics(self):
        covered = bool(np.all(self.truth_max < self.limit))
        return float(self.active.mean()), covered, int(self.active.sum())


class _FreshSetRunner:
    """Base for the non-time-uniform baselines: sets are rebuilt each step."""

    def __init__(self, candidates, truth, delta):
        self.cands = candidates
        self.truth = truth
        self.delta = delta
        self.counts = np.zeros(candidates.shape[1])
        self.t = 0
        self._volume = 1.0
        self._covered = True
        self._count = candidates.shape[0]

    def step(self, y):
        self.counts = self.counts + y
        self.t += 1
        mask, covered = self._evaluate()
        self._volume = float(mask.mean())
        self._covered = bool(covered)
        self._count = int(mask.sum())

    def metrics(self):
        return self._volume, self._covered, self._count

    def _kl_to_candidates(self):
        mu_hat = self.counts / self.t
        pos = mu_hat > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            logc = np.log(self.cands[:, pos])
        kl = np.sum(
            mu_hat[pos][None, :] * (np.log(mu_hat[pos])[None, :] - logc), axis=1
        )
        return np.nan_to_num(kl, nan=np.inf, posinf=np.inf)

    def _kl_to_truth(self):
        return kl_divergence(self.counts / self.t, self.truth)


class SanovRunner(_FreshSetRunner):
    def _evaluate(self):
        r = sanov_radius(self.t, self.cands.shape[1], self.delta)
        return self._kl_to_candidates() < r, self._kl_to_truth() < r


class MardiaRunner(_FreshSetRunner):
    def _evaluate(self):
        K = self.cands.shape[1]
        if self.t < mardia_gate(K):
            # below the applicability gate the method makes no claim:
            # report the vacuous full-simplex set
            return np.ones(self.cands.shape[0], dtype=bool), True
        r = mardia_radius(self.t, K, self.delta)
        return self._kl_to_candidates() < r, self._kl_to_truth() < r


class CPBonfRunner(_FreshSetRunner):
    """Product of coordinate Clopper-Pearson intervals at delta/K."""

    def _evaluate(self):
        K = self.cands.shape[1]
        lo, hi = clopper_pearson_interval(
            np.rint(self.counts).astype(np.int64), self.t, self.delta / K
        )
        mask = np.all((self.cands >= lo[None, :]) & (self.cands <= hi[None, :]), axis=1)
        covered = bool(np.all((self.truth >= lo) & (self.truth <= hi)))
        return mask, covered


def _make_runner(method, candidates, truth, delta, prior):
    if method == "kt":
        return KTRunner(candidates, truth, delta, prior)
    if method == "up":
        return UPRunner(candidates, truth, delta, prior)
    if method == "kt2-mix":
        return KT2Runner(candidates, truth, delta, "mix")
    if method == "kt2-bonf":
        return KT2Runner(candidates, truth, delta, "bonf")
    if method == "sanov":
        return SanovRunner(candidates, truth, delta)
    if method == "mardia":
        return MardiaRunner(candidates, truth, delta)
    if method == "cp-bonf":
        return CPBonfRunner(candidates, truth, delta)
    raise ValueError(f"unknown method {method!r}; pick from {SIMULATE_METHODS}")


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _simulate(cfg):
    K = cfg.k
    T = cfg.horizon
    prior = DirichletPrior(np.full(K, cfg.alpha))
    candidates = simplex_candidate_grid(K, cfg.grid_resolution)
    if cfg.concentration is not None:
        conc = np.asarray(cfg.concentration)
        truth = conc / conc.sum()
    else:
        truth = np.asarray(cfg.mu)
    shape = (len(cfg.methods), cfg.trials, T + 1)
    volume = np.ones(shape)
    covered = np.ones(shape, dtype=bool)
    active = np.full(shape, candidates.shape[0], dtype=np.int64)
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        if cfg.concentration is not None:
            data = gen_dirichlet(cfg.concentration, T, rng)
        else:
            data = gen_categorical(truth, T, rng)
        runners = [
            _make_runner(m, candidates, truth, cfg.delta, prior)
            for m in cfg.methods
        ]
        for t in range(1, T + 1):
            for i, runner in enumerate(runners):
                runner.step(data[t - 1])
                cell = (i, trial, t)
                volume[cell], covered[cell], active[cell] = runner.metrics()
    rows = Rows(cfg.methods, np.broadcast_to(np.arange(T + 1), shape), volume,
                covered, active)
    return {"kind": "simulate", "config": cfg.to_dict(), "rows": rows,
            "summary": _summarize_simulate(rows)}


def _row(method, trial, t, volume, covered, active_count, stop_t=None):
    return {
        "method": method,
        "trial": trial,
        "t": t,
        "volume": volume,
        "covered": bool(covered),
        "active_count": active_count,
        "stop_t": stop_t,
        "time_uniform": method not in NON_TIME_UNIFORM,
    }


class Rows(Sequence):
    """The rows of a result, stored as columns of shape (methods, trials,
    steps): steps is T + 1 for a simulation and 1 for an audit.

    A read-only sequence: item i is the plain dict that _row builds, with
    Python int, float, bool or None values, in the order trial, step,
    method.  `volume` and `stop_t` are None where a result has no such
    column.  copy.deepcopy gives a list of the row dicts, which may be edited.
    """

    def __init__(self, methods, t, volume, covered, active_count, stop_t=None):
        self.methods = tuple(methods)
        self.t = t
        self.volume = volume
        self.covered = covered
        self.active_count = active_count
        self.stop_t = stop_t

    def __len__(self):
        return self.covered.size

    def __deepcopy__(self, memo):
        return list(self)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # negative indices, IndexError past the end
        M, _, S = self.covered.shape
        trial, rest = divmod(i, S * M)
        cell = (rest % M, trial, rest // M)

        def value(column):
            return None if column is None else column[cell].item()

        return _row(self.methods[cell[0]], trial, value(self.t),
                    value(self.volume), value(self.covered),
                    value(self.active_count), value(self.stop_t))


def _trial_mean(a):
    """Mean over trials at each step of a (trials, steps) array.  Each mean
    runs along the last axis of a contiguous (steps, trials) copy, so it sums
    in the same order as np.mean over one step's list of values."""
    return np.ascontiguousarray(a.T).mean(axis=1)


def _summarize_simulate(rows):
    summary = {}
    for i, m in enumerate(rows.methods):
        covered = rows.covered[i]
        summary[m] = {
            "mean_volume": _trial_mean(rows.volume[i]),
            "per_step_coverage": _trial_mean(covered),
            # time-uniform coverage: trial flag never dropped up to t
            "time_uniform_coverage": _trial_mean(
                np.logical_and.accumulate(covered, axis=1)),
            "time_uniform": m not in NON_TIME_UNIFORM,
        }
    return summary


def _truth_covered_wor(labels, census, N, K, delta, method, prior):
    """Does the true census stay active through t = N-1 under this kernel?"""
    census = np.asarray(census, dtype=np.int64)
    onehot = np.zeros((N, K))
    onehot[np.arange(N), labels] = 1.0
    counts = np.cumsum(onehot, axis=0)[: N - 1]  # K_t for t = 1..N-1
    ts = np.arange(1, N, dtype=float)
    alpha = prior.alpha
    qv = (
        gammaln(counts + alpha[None, :]).sum(axis=1)
        - gammaln(ts + alpha.sum())
        - prior.log_beta
    )
    rem = census[None, :] - counts
    if method == "wor-kt":
        bad = np.any((rem <= 0) & (counts >= 1), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(counts >= 1, counts * np.log(np.clip(rem, 1e-300, None)), 0.0)
        w = qv + ts * np.log(N - ts) - term.sum(axis=1)
        w[bad] = math.inf
    else:
        bad = np.any(rem < 0, axis=1)
        w = (
            qv
            + gammaln(N + 1.0)
            - gammaln(N - ts + 1.0)
            - (gammaln(census + 1.0)[None, :] - gammaln(np.clip(rem, 0, None) + 1.0)).sum(axis=1)
        )
        w[bad] = math.inf
    return bool(np.max(w) < log_threshold(delta))


def _run_wor(cfg):
    census = np.asarray(cfg.census, dtype=np.int64)
    N = int(census.sum())
    K = census.size
    prior = DirichletPrior(np.full(K, cfg.alpha))
    shape = (len(cfg.methods), cfg.trials, 1)
    stops = np.full(shape, N, dtype=np.int64)
    covered = np.empty(shape, dtype=bool)
    active = np.empty(shape, dtype=np.int64)
    for perm in range(cfg.trials):
        rng = trial_rng(cfg.seed, perm)
        labels = gen_wor(census, rng)
        for i, m in enumerate(cfg.methods):
            state = AuditState(N, K, cfg.delta, method=m, prior=prior)
            for t in range(1, N):
                state.absorb(int(labels[t - 1]))
                if state.active_count() == 0:
                    # all censuses excluded; no decision is readable
                    break
                if rank_decided(state):
                    stops[i, perm, 0] = t
                    break
            covered[i, perm, 0] = _truth_covered_wor(
                labels, census, N, K, cfg.delta, m, prior)
            active[i, perm, 0] = state.active_count()
    rows = Rows(cfg.methods, stops, None, covered, active, stop_t=stops)
    stop = {m: stops[i, :, 0] for i, m in enumerate(cfg.methods)}
    summary = {
        "population": census.tolist(),
        "N": N,
        "mean_stop": {m: float(np.mean(stop[m])) for m in cfg.methods},
        "coverage": {m: float(np.mean(covered[i]))
                     for i, m in enumerate(cfg.methods)},
    }
    if "wor-kt" in stop and "ppr" in stop:
        ratio = stop["wor-kt"] / stop["ppr"]
        summary["stop_ratio_kt_over_ppr"] = ratio.tolist()
        summary["mean_stop_ratio"] = float(np.mean(ratio))
        summary["frac_kt_no_later"] = float(np.mean(stop["wor-kt"] <= stop["ppr"]))
    return {"kind": "wor", "config": cfg.to_dict(), "rows": rows, "summary": summary}


def run_experiment(config):
    """Run a resolved or raw ExperimentConfig; returns the result bundle."""
    cfg = apply_preset(config)
    if cfg.census is not None:
        return _run_wor(cfg)
    return _simulate(cfg)


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("method", "trial", "t", "volume", "covered", "active_count", "stop_t")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _jsonable(obj):
    """json.dump hook: rows as their dicts, arrays as lists."""
    if isinstance(obj, Rows):
        return list(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def emit(result, fmt, path):
    """Write the result bundle as csv, json, or svg."""
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for r in result["rows"]:
                fh.write(",".join(_fmt(r[c]) for c in CSV_COLUMNS) + "\n")
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump(result, fh, sort_keys=True, indent=2, default=_jsonable)
            fh.write("\n")
    elif fmt == "svg":
        _emit_svg(result, path)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return path


def _emit_svg(result, path, width=640, height=420):
    """Minimal line chart: mean volume (simulate) or stop-time ratios (wor)."""
    pad = 50
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
               "#17becf"]
    if result["kind"] == "simulate":
        summary = result["summary"]
        T = len(next(iter(summary.values()))["mean_volume"]) - 1
        for i, (m, s) in enumerate(sorted(summary.items())):
            pts = []
            for t, v in enumerate(s["mean_volume"]):
                x = pad + (width - 2 * pad) * (t / max(T, 1))
                y = height - pad - (height - 2 * pad) * v
                pts.append(f"{x:.1f},{y:.1f}")
            dash = '' if s["time_uniform"] else ' stroke-dasharray="6,4"'
            parts.append(
                f'<polyline fill="none" stroke="{palette[i % len(palette)]}"'
                f'{dash} points="{" ".join(pts)}"/>'
            )
            parts.append(
                f'<text x="{width - pad + 2}" y="{pad + 14 * i}" font-size="11" '
                f'fill="{palette[i % len(palette)]}">{m}</text>'
            )
        parts.append(
            f'<text x="{width // 2}" y="{height - 12}" font-size="12">t</text>'
        )
        parts.append(
            f'<text x="8" y="{height // 2}" font-size="12" '
            f'transform="rotate(-90 12,{height // 2})">relative volume</text>'
        )
    else:
        ratios = result["summary"].get("stop_ratio_kt_over_ppr", [])
        if ratios:
            nbins = 20
            hist, edges = np.histogram(ratios, bins=nbins, range=(0.0, 2.0))
            top = max(int(hist.max()), 1)
            bw = (width - 2 * pad) / nbins
            for i, h in enumerate(hist):
                x = pad + i * bw
                bh = (height - 2 * pad) * (h / top)
                parts.append(
                    f'<rect x="{x:.1f}" y="{height - pad - bh:.1f}" '
                    f'width="{bw - 1:.1f}" height="{bh:.1f}" fill="#1f77b4"/>'
                )
        parts.append(
            f'<text x="{width // 2 - 60}" y="{height - 12}" font-size="12">'
            "stop-time ratio KT / PPR</text>"
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
