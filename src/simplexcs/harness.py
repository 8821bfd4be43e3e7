"""Experiment harness: data generators, method runners, presets, metrics,
and the CSV/JSON/SVG emitters."""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Sequence

import numpy as np

from .baselines import (
    clopper_pearson_interval,
    coordinate_log_wealths_many,
    mardia_set,
    mixture_log_wealth,
    sanov_set,
)
from .confset import ConfidenceSet, log_threshold, simplex_candidate_grid
from .simplex import validate_count_vector, validate_prob_vector
from .wealth import (
    DirichletPrior,
    UPState,
    kt_log_wealth_many,
    wor_log_wealth_many,
)
from . import wor
# rank_decided stays a name here: perfbench/tracing.py patches it
from .wor import AuditState, rank_decided  # noqa: F401

SIMULATE_METHODS = ("kt", "up", "kt2-mix", "kt2-bonf", "sanov", "mardia", "cp-bonf")

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


def check_census(census):
    """The census as a tuple of ints; ValueError unless it has 2 or more
    nonnegative integer counts with a positive total."""
    try:
        counts, N = validate_count_vector(census)
    except (TypeError, ValueError):
        N = 0
    if N < 1 or len(census) < 2:
        raise ValueError(f"census {tuple(census)} needs 2 or more nonnegative "
                         "integer counts with a positive total")
    return tuple(int(c) for c in counts)


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
        cfg.methods = tuple(cfg.methods) or wor.METHODS
    elif cfg.preset == "fig3":
        if cfg.concentration is None:
            raise ValueError(
                "fig3 preset requires explicit Dirichlet concentration parameters"
            )
        cfg.methods = tuple(cfg.methods) or ("up", "kt2-mix", "kt2-bonf")
    elif cfg.preset != "custom":
        raise ValueError(f"unknown preset {cfg.preset!r}")
    if cfg.census is not None:
        cfg.census = check_census(cfg.census)
        cfg.k = len(cfg.census)
        cfg.methods = tuple(cfg.methods) or wor.METHODS
    else:
        if cfg.mu is not None:
            cfg.mu = tuple(float(x) for x in cfg.mu)
            cfg.k = len(cfg.mu)
            try:
                validate_prob_vector(cfg.mu)
            except ValueError:
                raise ValueError(f"mu {cfg.mu} is not a probability vector "
                                 "of 2 or more entries") from None
        if cfg.concentration is not None:
            cfg.concentration = tuple(float(x) for x in cfg.concentration)
            cfg.k = len(cfg.concentration)
            if cfg.k < 2 or not (np.all(np.isfinite(cfg.concentration))
                                 and min(cfg.concentration) > 0.0):
                raise ValueError(f"concentration {cfg.concentration} needs 2 "
                                 "or more positive entries")
        cfg.methods = tuple(cfg.methods) or ("kt",)
        if cfg.mu is None and cfg.concentration is None:
            if cfg.k not in _DEFAULT_MU:
                raise ValueError("need --mu, --conc, or --census")
            cfg.mu = _DEFAULT_MU[cfg.k]
    if cfg.grid_resolution is None:
        cfg.grid_resolution = DEFAULT_GRID.get(cfg.k, 20)
    valid = wor.METHODS if cfg.census is not None else SIMULATE_METHODS
    unknown = [m for m in cfg.methods if m not in valid]
    if unknown:
        raise ValueError(f"unknown method {unknown[0]!r}; pick from {valid}")
    if not (0.0 < cfg.delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    if cfg.grid_resolution < 1:
        raise ValueError("grid resolution must be >= 1")
    if not cfg.alpha > 0.0:
        raise ValueError("alpha must be positive")
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


class _Counts:
    """Running counts of the observations, as a wealth state: absorb(y) and
    log_wealth_many(cands), like UPState.  kernel(counts, t, cands) gives
    the log-wealth of an (A, K) candidate block."""

    def __init__(self, K, kernel):
        self.counts = np.zeros(K)
        self.t = 0
        self.kernel = kernel

    def absorb(self, y):
        self.counts = self.counts + y
        self.t += 1
        return self

    def log_wealth_many(self, cands):
        return self.kernel(self.counts, self.t, cands)


def _kt2_mix(counts, t, cands):
    """Log of the mean of the K coordinatewise KT(2) wealths."""
    return mixture_log_wealth(coordinate_log_wealths_many(counts, t, cands))


def _kt2_max(counts, t, cands):
    """The largest coordinatewise KT(2) log wealth."""
    return coordinate_log_wealths_many(counts, t, cands).max(axis=1)


# running-max methods: name -> wealth state for (K, prior); the kernels are
# looked up when called, so a patched module global is seen
_SET_STATES = {
    "kt": lambda K, prior: _Counts(
        K, lambda counts, t, cands: kt_log_wealth_many(counts, cands, prior)),
    "up": lambda K, prior: UPState(K, prior=prior),
    "kt2-mix": lambda K, prior: _Counts(K, _kt2_mix),
    "kt2-bonf": lambda K, prior: _Counts(K, _kt2_max),
}


def running_set(method, candidates, delta, prior):
    """A fresh wealth state and ConfidenceSet for a running-max method.

    kt2-bonf's set has level delta / K: every coordinate's running max stays
    below ln(K / delta) exactly when the running max of the largest does.
    """
    K = candidates.shape[1]
    if method == "kt2-bonf":
        delta = delta / K
    return _SET_STATES[method](K, prior), ConfidenceSet(candidates, delta)


class SetRunner:
    """A wealth state folded into a ConfidenceSet each step; the truth is
    evaluated in the same block as the active candidates."""

    def __init__(self, method, candidates, truth, delta, prior):
        self.state, self.cs = running_set(method, candidates, delta, prior)
        self.truth = truth
        self.truth_max = 0.0

    def step(self, y):
        self.state = self.state.absorb(y)
        block = np.vstack([self.cs.active_candidates(), self.truth[None, :]])
        lw = self.state.log_wealth_many(block)
        self.cs.update(lw[:-1])
        self.truth_max = max(self.truth_max, float(lw[-1]))

    def metrics(self):
        return (
            self.cs.relative_volume(),
            self.truth_max < self.cs.threshold,
            int(self.cs.active.sum()),
        )


def _cp_bonf_set(counts, t, cands, delta):
    """Product of coordinate Clopper-Pearson intervals at delta / K."""
    lo, hi = clopper_pearson_interval(
        np.rint(counts).astype(np.int64), t, delta / cands.shape[1])
    return np.all((cands >= lo) & (cands <= hi), axis=1)


# non-time-uniform methods, whose rows are not a confidence sequence: name ->
# the mask of an (A, K) candidate block in the set built afresh from
# (counts, t) at level delta
_FRESH_SETS = {
    "sanov": lambda counts, t, cands, delta: sanov_set(counts / t, t, cands, delta),
    "mardia": lambda counts, t, cands, delta: mardia_set(counts / t, t, cands, delta),
    "cp-bonf": _cp_bonf_set,
}


class FreshRunner:
    """A set rebuilt from the running counts each step; the truth is the last
    row of the candidate block, so it is tested by the same call."""

    def __init__(self, method, candidates, truth, delta):
        self.fresh_set = _FRESH_SETS[method]
        self.block = np.vstack([candidates, truth[None, :]])
        self.delta = delta
        self.counts = np.zeros(candidates.shape[1])
        self.t = 0
        self.mask = np.ones(self.block.shape[0], dtype=bool)

    def step(self, y):
        self.counts = self.counts + y
        self.t += 1
        self.mask = self.fresh_set(self.counts, self.t, self.block, self.delta)

    def metrics(self):
        inside = self.mask[:-1]
        return float(inside.mean()), bool(self.mask[-1]), int(inside.sum())


def _make_runner(method, candidates, truth, delta, prior):
    if method in _FRESH_SETS:
        return FreshRunner(method, candidates, truth, delta)
    return SetRunner(method, candidates, truth, delta, prior)


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
        "time_uniform": method not in _FRESH_SETS,
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
            "time_uniform": m not in _FRESH_SETS,
        }
    return summary


def _truth_covered_wor(labels, census, N, K, delta, prior):
    """Does the true census stay active through t = N-1?"""
    counts = np.cumsum(np.eye(K, dtype=np.int64)[labels[: N - 1]], axis=0)
    w = wor_log_wealth_many(counts.T, census, N, prior)
    return bool(np.all(w < log_threshold(delta)))


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
        covered[:, perm, 0] = _truth_covered_wor(labels, census, N, K,
                                                 cfg.delta, prior)
        for i, m in enumerate(cfg.methods):
            state = AuditState(N, K, cfg.delta, method=m, prior=prior)
            stops[i, perm, 0] = state.replay(labels)
            active[i, perm, 0] = state.active_count()
    rows = Rows(cfg.methods, stops, None, covered, active, stop_t=stops)
    summary = {
        "population": census.tolist(),
        "N": N,
        "mean_stop": {m: float(np.mean(stops[i])) for i, m in enumerate(cfg.methods)},
        "coverage": {m: float(np.mean(covered[i]))
                     for i, m in enumerate(cfg.methods)},
    }
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
    """Minimal line chart, one series per method: mean volume against t
    (simulate), or the share of permutations that stop at each t in 1..N,
    in at most 20 bins (wor)."""
    pad = 50
    if result["kind"] == "simulate":
        series = []
        for m, s in sorted(result["summary"].items()):
            v = s["mean_volume"]
            series.append((m, np.arange(len(v)) / max(len(v) - 1, 1), v,
                           not s["time_uniform"]))
        xlabel, ylabel = "t", "relative volume"
    else:
        rows, N = result["rows"], result["summary"]["N"]
        edges = np.linspace(1, N + 1, min(N, 20) + 1)
        series = []
        for i, m in enumerate(rows.methods):
            stops = rows.stop_t[i].ravel()
            share = np.histogram(stops, bins=edges)[0] / stops.size
            # the histogram's outline, from (1, 0) up each bin to (N + 1, 0)
            series.append((m, np.repeat((edges - 1) / N, 2),
                           np.concatenate([[0.0], np.repeat(share, 2), [0.0]]),
                           False))
        xlabel, ylabel = "stop time t", "share of permutations"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
               "#17becf"]
    for i, (m, fx, fy, dashed) in enumerate(series):
        pts = " ".join(f"{pad + (width - 2 * pad) * x:.1f},"
                       f"{height - pad - (height - 2 * pad) * y:.1f}"
                       for x, y in zip(fx, fy))
        dash = ' stroke-dasharray="6,4"' if dashed else ''
        parts.append(
            f'<polyline fill="none" stroke="{palette[i % len(palette)]}"'
            f'{dash} points="{pts}"/>'
        )
        parts.append(
            f'<text x="{width - pad + 2}" y="{pad + 14 * i}" font-size="11" '
            f'fill="{palette[i % len(palette)]}">{m}</text>'
        )
    parts.append(
        f'<text x="{width // 2}" y="{height - 12}" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="8" y="{height // 2}" font-size="12" '
        f'transform="rotate(-90 12,{height // 2})">{ylabel}</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
