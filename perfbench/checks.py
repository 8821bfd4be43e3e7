"""Output checks computed apart from the program.

Each check_* function takes the program's outputs and the inputs it was
given, and returns a list of problems; an empty list means the outputs
passed.  Nothing in this module imports simplexcs: each expected
value is recomputed from its closed form with numpy and scipy, so a fault in
the program cannot also hide in the check.

Near-threshold ties are not faults: a candidate whose running-max
log-wealth lies within TIE_TOL of ln(1/delta) may land on either side, so
counts are compared up to the number of such candidates.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np
from scipy.special import betaincinv, gammaln, logsumexp

TIE_TOL = 1e-9
# the program's Clopper-Pearson bisection stops at width 1e-10
CP_TOL = 1e-9
MASS_TOL = 1e-9
WEALTH_RTOL = 1e-9


def composition_grid(K, G):
    """All k / G with k a nonnegative integer K-vector summing to G, by
    stars and bars (row order differs from the program's colex order)."""
    rows = []
    for bars in itertools.combinations(range(G + K - 1), K - 1):
        edges = (-1,) + bars + (G + K - 1,)
        rows.append([edges[i + 1] - edges[i] - 1 for i in range(K)])
    return np.asarray(rows, dtype=float) / G


def _log_dirichlet_mixture(counts, alpha):
    """log B(counts + alpha) - log B(alpha), over the last axis."""
    a = np.asarray(alpha, dtype=float)
    c = np.asarray(counts, dtype=float)
    return (gammaln(c + a).sum(-1) - gammaln(c.sum(-1) + a.sum())
            - gammaln(a).sum() + gammaln(a.sum()))


def _neg_log_likelihood(k, logm):
    """-sum_j k_j log m_j per candidate, with 0 log 0 = 0 and +inf where
    m_j = 0 but k_j > 0.  k: (K,) counts; logm: (A, K) log candidates."""
    with np.errstate(invalid="ignore"):
        return np.where(k > 0, -k * logm, 0.0).sum(axis=1)


class _RunningSet:
    """A running-max sublevel set {running max < threshold} over candidates;
    records its size and its near-threshold tie count after each step."""

    def __init__(self, shape, threshold):
        self.runmax = np.zeros(shape)
        self.threshold = threshold
        self.active, self.ties = [], []

    def fold(self, log_wealth):
        self.runmax = np.maximum(self.runmax, log_wealth)
        inside = self.runmax < self.threshold
        tie = np.abs(self.runmax - self.threshold) <= TIE_TOL
        if inside.ndim == 2:  # Bonferroni: every coordinate must stay below
            inside, tie = inside.all(axis=1), tie.any(axis=1)
        self.active.append(int(inside.sum()))
        self.ties.append(int(tie.sum()))
        return inside


def _counts_match(name, got, want, ties):
    got, want, ties = np.asarray(got), np.asarray(want), np.asarray(ties)
    bad = np.flatnonzero(np.abs(got - want) > ties)
    if bad.size:
        t = int(bad[0])
        return [f"{name}: active count {int(got[t])} at t={t + 1}, "
                f"closed form gives {int(want[t])} (ties {int(ties[t])})"]
    return []


# ---------------------------------------------------------------------------
# i.i.d. sweep
# ---------------------------------------------------------------------------


def closed_form_sets(onehot, cands, delta, alpha=0.5):
    """Per-step (active counts, tie counts) of the closed-form KT set, the
    coordinatewise KT(2) mixture and Bonferroni sets and the Clopper-Pearson
    box at delta/K, on a one-hot (T, K) stream; plus "nested", whether the
    mixture set lay inside the Bonferroni set at every step.

    Clopper-Pearson bounds come from scipy's inverse regularized incomplete
    beta (the function scipy.stats.beta.ppf evaluates), not a bisection.
    """
    K = onehot.shape[1]
    thr = -math.log(delta)
    with np.errstate(divide="ignore"):
        logm = np.log(cands)
        log1m = np.log1p(-cands)
    kt = _RunningSet(cands.shape[0], thr)
    mix = _RunningSet(cands.shape[0], thr)
    bonf = _RunningSet(cands.shape, thr + math.log(K))
    cp_active, cp_ties = [], []
    nested = True
    dp = delta / K
    k = np.zeros(K)
    for t, y in enumerate(onehot, start=1):
        k = k + y
        kt.fold(_log_dirichlet_mixture(k, np.full(K, alpha))
                + _neg_log_likelihood(k, logm))
        per = np.empty(cands.shape)
        for j in range(K):
            pair = np.array([k[j], t - k[j]])
            per[:, j] = (_log_dirichlet_mixture(pair, [0.5, 0.5])
                         + _neg_log_likelihood(
                             pair, np.stack([logm[:, j], log1m[:, j]], axis=1)))
        with np.errstate(invalid="ignore"):
            mixed = logsumexp(per, axis=1) - math.log(K)
        mixed[np.any(np.isposinf(per), axis=1)] = np.inf
        nested &= bool(np.all(~mix.fold(mixed) | bonf.fold(per)))
        lo = np.where(k > 0, betaincinv(np.maximum(k, 1), t - k + 1, dp / 2),
                      0.0)
        hi = np.where(k < t, betaincinv(k + 1, np.maximum(t - k, 1),
                                        1 - dp / 2), 1.0)
        cp_active.append(int(np.all((cands >= lo) & (cands <= hi),
                                    axis=1).sum()))
        cp_ties.append(int(np.any((np.abs(cands - lo) <= CP_TOL)
                                  | (np.abs(cands - hi) <= CP_TOL),
                                  axis=1).sum()))
    return {"kt": (kt.active, kt.ties), "kt2-mix": (mix.active, mix.ties),
            "kt2-bonf": (bonf.active, bonf.ties),
            "cp-bonf": (cp_active, cp_ties), "nested": nested}


def check_sweep(rows, onehot, cands, delta, methods):
    """The sweep's per-step active counts and volumes against closed forms.

    rows: the program's result rows for one trial; onehot: its (T, K) data;
    cands: the candidate grid (any row order).
    """
    T = onehot.shape[0]
    series = {}
    for r in rows:
        series.setdefault(r["method"], {})[r["t"]] = r
    problems = [f"{m}: rows do not cover t = 0..{T}" for m in methods
                if sorted(series.get(m, {})) != list(range(T + 1))]
    if problems:
        return problems
    counts = {m: [series[m][t]["active_count"] for t in range(1, T + 1)]
              for m in methods}
    problems += [f"{m}: t=0 active count is not the full grid" for m in methods
                 if series[m][0]["active_count"] != cands.shape[0]]
    want = closed_form_sets(onehot, cands, delta)
    # UP equals KT on one-hot data (a property of the paper)
    want["up"] = want["kt"]
    for m in methods:
        if m in want:
            problems += _counts_match(m, counts[m], *want[m])
    if not want["nested"]:
        problems.append("closed-form kt2-mix set leaves the kt2-bonf set")
    if {"kt2-mix", "kt2-bonf"} <= set(methods) and np.any(
            np.asarray(counts["kt2-mix"]) > np.asarray(counts["kt2-bonf"])):
        problems.append("kt2-mix set larger than kt2-bonf set")
    for m in ("kt", "up", "kt2-mix", "kt2-bonf"):
        if m in series:
            vol = [series[m][t]["volume"] for t in range(T + 1)]
            if np.any(np.diff(vol) > 0):
                problems.append(f"{m}: time-uniform volume increases")
    return problems


def check_emitted(csv_path, json_path, result, methods, trials, T):
    """The emitted CSV and JSON parse back to methods x trials x (T+1) rows
    that agree with the in-memory result."""
    problems = []
    want = len(methods) * trials * (T + 1)
    with open(csv_path, newline="") as fh:
        table = list(csv.DictReader(fh))
    keys = {(r["method"], int(r["trial"]), int(r["t"])) for r in table}
    expect = {(m, tr, t) for m in methods for tr in range(trials)
              for t in range(T + 1)}
    if len(table) != want or keys != expect:
        problems.append(f"CSV has {len(table)} rows, want {want} distinct "
                        "(method, trial, t)")
    with open(json_path) as fh:
        doc = json.load(fh)
    if len(doc.get("rows", ())) != want:
        problems.append(f"JSON has {len(doc.get('rows', ()))} rows, want {want}")
    mem = {(r["method"], r["trial"], r["t"]): r["active_count"]
           for r in result["rows"]}
    for r in table:
        k = (r["method"], int(r["trial"]), int(r["t"]))
        if mem.get(k) != int(r["active_count"]):
            problems.append(f"CSV active_count differs from the result at {k}")
            break
    for r in doc.get("rows", ()):
        k = (r["method"], r["trial"], r["t"])
        if mem.get(k) != r["active_count"]:
            problems.append(f"JSON active_count differs from the result at {k}")
            break
    return problems


# ---------------------------------------------------------------------------
# Online UP
# ---------------------------------------------------------------------------


def table_mass(log_table):
    """sum_k exp(log_table[k])."""
    tab = np.asarray(log_table, dtype=float)
    return math.exp(logsumexp(tab)) if tab.size else 0.0


def check_masses(masses):
    """The UP table carries total mass 1 at every step (a conserved
    quantity of simplex-valued histories)."""
    for t, mass in enumerate(masses, start=1):
        if not abs(mass - 1.0) <= MASS_TOL:
            return [f"UP table mass {mass!r} at t={t}"]
    return []


def up_prefix_log_wealth(obs, cands, alpha):
    """UP log-wealth after one or two observations, from Dirichlet moments:
    W = E_b prod_s <b, y_s / m> with b ~ Dir(alpha).  Candidates with a zero
    coordinate get +inf when some observation has mass there."""
    obs = np.asarray(obs, dtype=float)
    a = np.asarray(alpha, dtype=float)
    a0 = a.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = [np.where(y[None, :] > 0, y[None, :] / cands, 0.0)
                  for y in obs]
    if len(obs) == 1:
        w = ratios[0] @ a / a0
    elif len(obs) == 2:
        r1, r2 = ratios
        w = ((r1 @ a) * (r2 @ a) + (r1 * r2) @ a) / (a0 * (a0 + 1.0))
    else:
        raise ValueError("closed form kept for t = 1, 2 only")
    with np.errstate(divide="ignore"):
        return np.log(w)


def check_up_prefix(got, obs, cands, alpha):
    want = up_prefix_log_wealth(obs, cands, alpha)
    got = np.asarray(got, dtype=float)
    t = len(obs)
    if got.shape != want.shape or np.any(np.isnan(got)):
        return [f"UP wealth at t={t}: bad shape or NaN"]
    fin = np.isfinite(want)
    if np.any(got[~fin] != want[~fin]):
        return [f"UP wealth at t={t}: divergence pattern differs"]
    err = np.abs(got[fin] - want[fin]) / np.maximum(1.0, np.abs(want[fin]))
    if err.size and err.max() > WEALTH_RTOL:
        return [f"UP wealth at t={t} off the Dirichlet-moment form by "
                f"{err.max():.3g}"]
    return []


def check_nonincreasing(name, counts):
    c = np.asarray(counts)
    if np.any(np.diff(c) > 0):
        return [f"{name}: active count increases"]
    return []


# ---------------------------------------------------------------------------
# Without-replacement audit
# ---------------------------------------------------------------------------


def _log_comb(n, k):
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def ppr_log_wealth_path(labels, censuses, alpha=0.5):
    """PPR log-wealth after each draw, for each census in an (S, K) array.

    The wealth is the KT prior-predictive probability of the draw sequence
    over its probability under the census, which is the multivariate
    hypergeometric pmf of the counts, prod_j C(c_j, k_j) / C(N, t), divided
    by the number of orderings t! / prod_j k_j!.  labels: (T,) 0-based
    draws.  Returns (S, T), +inf where the draws are impossible.
    """
    censuses = np.asarray(censuses, dtype=float)
    K = censuses.shape[1]
    N = censuses[0].sum()
    counts = np.cumsum(np.eye(K)[np.asarray(labels)], axis=0)  # (T, K)
    t = counts.sum(axis=1)
    q = _log_dirichlet_mixture(counts, np.full(K, alpha))
    orderings = gammaln(t + 1.0) - gammaln(counts + 1.0).sum(axis=1)
    c = censuses[:, None, :]
    feasible = np.all(counts[None] <= c, axis=2)
    hypergeom = (_log_comb(c, np.minimum(counts[None], c)).sum(axis=2)
                 - _log_comb(N, t)[None, :])
    return np.where(feasible, q - (hypergeom - orderings), np.inf)


def check_audit(labels, census, delta, trace, sample, alpha=0.5):
    """Audit outputs against the hypergeometric closed form.

    trace: dict with per-draw arrays "bounds" (T, K, 2) and "decided" (T,),
    and, keyed by checkpoint draw, "members" (bool array over sample rows
    + truth last: the program's membership of those censuses),
    "active_bounds" ((K, 2) min and max of the program's active censuses)
    and "extremes" ((2K, K) active censuses that attain those bounds).
    sample: (S, K) censuses checked with the truth appended as the last row.
    """
    problems = []
    bounds = np.asarray(trace["bounds"])
    decided = np.asarray(trace["decided"], dtype=bool)
    T = bounds.shape[0]
    census = np.asarray(census, dtype=np.int64)
    hyp = np.vstack([np.asarray(sample, dtype=np.int64).reshape(-1, census.size),
                     census[None, :]])
    lw = ppr_log_wealth_path(labels[:T], hyp, alpha)
    thr = -math.log(delta)
    runmax = np.maximum.accumulate(np.maximum(lw, 0.0), axis=1)
    inside = runmax < thr
    tie = np.abs(runmax - thr) <= TIE_TOL
    for draw, members in sorted(trace["members"].items()):
        i = draw - 1
        members = np.asarray(members, dtype=bool)
        bad = (members != inside[:, i]) & ~tie[:, i]
        if np.any(bad):
            which = "truth" if bad[-1] else f"sampled census {hyp[np.argmax(bad)]}"
            problems.append(f"draw {draw}: membership of the {which} "
                            "differs from the PPR closed form")
            break
    counts = np.cumsum(np.eye(census.size, dtype=np.int64)[labels[:T]], axis=0)
    lo, hi = bounds[:, :, 0], bounds[:, :, 1]
    if np.any(np.diff(lo, axis=0) < 0) or np.any(np.diff(hi, axis=0) > 0):
        problems.append("count bounds are not nested over draws")
    if np.any(lo < counts) or np.any(lo > hi):
        problems.append("count bounds below the drawn counts or inverted")
    # every census the closed form keeps active lies inside the bounds
    held = inside & ~tie
    outside = np.any((hyp[:, None, :] < lo[None]) | (hyp[:, None, :] > hi[None]),
                     axis=2)
    if np.any(held & outside):
        row, i = np.argwhere(held & outside)[0]
        which = ("true census" if row == hyp.shape[0] - 1
                 else f"sampled census {hyp[row]}")
        problems.append(f"{which} outside the count bounds at draw {i + 1} "
                        "while active")
    # the bounds are no wider than the active set: at each checkpoint they
    # are its min and max, and the censuses attaining them are in the
    # closed-form PPR set
    for draw in sorted(trace["active_bounds"]):
        if not np.array_equal(bounds[draw - 1], trace["active_bounds"][draw]):
            problems.append(f"draw {draw}: count bounds differ from the "
                            "active censuses' min and max")
            break
    if trace["extremes"]:
        draws = sorted(trace["extremes"])
        ext = np.vstack([trace["extremes"][d] for d in draws])
        ext_max = np.maximum.accumulate(
            np.maximum(ppr_log_wealth_path(labels[:T], ext, alpha), 0.0), axis=1)
        per = len(ext) // len(draws)
        for n, draw in enumerate(draws):
            rows = ext_max[n * per:(n + 1) * per, draw - 1]
            if np.any(rows >= thr + TIE_TOL):
                problems.append(f"draw {draw}: a census attaining the count "
                                "bounds is excluded by the PPR closed form")
                break
    for i in range(T):
        order = np.argsort(lo[i], kind="stable")
        disjoint = bool(np.all(hi[i][order[:-1]] < lo[i][order[1:]]))
        if disjoint != decided[i]:
            problems.append(f"draw {i + 1}: rank decision {bool(decided[i])} "
                            f"but disjoint intervals {disjoint}")
            break
    first = np.flatnonzero(decided)
    # with the truth still active its counts lie in the intervals, so
    # disjoint intervals must rank the categories as the truth does
    if first.size and inside[-1, first[0]] and not tie[-1, first[0]]:
        i = int(first[0])
        by_bounds = np.argsort(-lo[i], kind="stable")
        by_truth = np.argsort(-census, kind="stable")
        if not np.array_equal(by_bounds, by_truth):
            problems.append(f"ranking decided at draw {i + 1} is not the "
                            "true ranking")
    return problems
