"""The benchmark's workloads.

Each workload runs rounds of one operation each: one trial of the sweep,
one online UP stream, or one audit permutation.  For round r,

* prepare(r) builds the round's inputs and a fresh program state from
  (seed, r), outside any timed span;
* execute(ctx) runs the program on them, timing only the program calls,
  and returns an Outcome together with what the checks need;
* check(ctx, outcome) compares the outputs with checks.py and returns the
  list of problems (empty when the outputs are right).

The program is called through its module attributes (harness.emit,
wor.rank_decided, ...), so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

import checks
from simplexcs import confset, harness, wealth, wor


@dataclasses.dataclass
class Outcome:
    seconds: float          # wall time of the timed program calls
    final_active: int       # hypotheses still active at the operation's end
    data: dict              # what check() needs


def round_rng(seed, r):
    """The generator for round r of a run with this seed."""
    return np.random.default_rng([seed, r])


class Sweep:
    """iid-k3-sweep: the batch simulation behind the paper's Fig. 1.

    One round is harness.run_experiment on one K=3 categorical trial with
    every i.i.d. method, then harness.emit of the CSV and JSON.
    """

    name = "iid-k3-sweep"
    MU = (0.6, 0.25, 0.15)
    T = 100
    GRID = 100
    DELTA = 0.05
    METHODS = ("kt", "up", "kt2-mix", "kt2-bonf", "sanov", "mardia", "cp-bonf")

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.csv_path = os.path.join(out_dir, f"{self.name}.csv")
        self.json_path = os.path.join(out_dir, f"{self.name}.json")
        self.cands = checks.composition_grid(len(self.MU), self.GRID)

    def prepare(self, r):
        trial_seed = int(round_rng(self.seed, r).integers(2**31))
        return harness.ExperimentConfig(
            mu=self.MU, horizon=self.T, trials=1, seed=trial_seed,
            methods=self.METHODS, grid_resolution=self.GRID, delta=self.DELTA,
        )

    def execute(self, cfg):
        t0 = time.perf_counter()
        result = harness.run_experiment(cfg)
        harness.emit(result, "csv", self.csv_path)
        harness.emit(result, "json", self.json_path)
        t2 = time.perf_counter()
        final = sum(r["active_count"] for r in result["rows"] if r["t"] == self.T)
        return Outcome(t2 - t0, final, {"result": result})

    def check(self, cfg, out):
        result = out.data["result"]
        onehot = harness.gen_categorical(
            self.MU, self.T, harness.trial_rng(cfg.seed, 0))
        problems = checks.check_sweep(result["rows"], onehot, self.cands,
                                      self.DELTA, self.METHODS)
        problems += checks.check_emitted(self.csv_path, self.json_path, result,
                                         self.METHODS, 1, self.T)
        return problems


class UPOnline:
    """up-k5-online: an online UP confidence set at K=5.

    One round is a stream of STEPS Dirichlet observations; each step absorbs
    the observation, evaluates the wealth at the active candidates plus the
    truth, updates the set and reads off its size.
    """

    name = "up-k5-online"
    CONC = (2.0, 1.0, 0.7, 0.3, 0.5)
    GRID = 20
    STEPS = 50
    DELTA = 0.05
    WARMUP_ROUND = -1

    def __init__(self, seed, out_dir):
        self.seed = seed
        conc = np.asarray(self.CONC)
        self.truth = conc / conc.sum()
        self.cands = confset.simplex_candidate_grid(conc.size, self.GRID)
        self.check_cands = checks.composition_grid(conc.size, self.GRID)

    def prepare(self, r):
        # the warm-up stream is the same on every seed, so that its cost,
        # part of setup_s, does not vary with the seed's data
        rng = (round_rng(0, 2**20) if r == self.WARMUP_ROUND
               else round_rng(self.seed, r))
        return {
            "obs": rng.dirichlet(self.CONC, size=self.STEPS),
            "state": wealth.UPState(len(self.CONC)),
            "cs": confset.ConfidenceSet(self.cands, self.DELTA),
        }

    def warm_up(self):
        """One untimed stream, so the program's per-(K, t) grid caches are
        filled before the measured rounds, as in a long-running process."""
        self.execute(self.prepare(self.WARMUP_ROUND))

    def execute(self, ctx):
        state, cs, truth = ctx["state"], ctx["cs"], self.truth
        seconds, active, masses, prefix = 0.0, [], [], []
        for t, y in enumerate(ctx["obs"], start=1):
            t0 = time.perf_counter()
            state = state.absorb(y)
            block = np.vstack([cs.active_candidates(), truth[None, :]])
            lw = state.log_wealth_many(block)
            cs.update(lw[:-1])
            n_active = int(np.count_nonzero(cs.active))
            seconds += time.perf_counter() - t0
            active.append(n_active)
            masses.append(checks.table_mass(state.table))
            if t <= 2:
                prefix.append(state)
        return Outcome(seconds, active[-1],
                       {"active": active, "masses": masses, "prefix": prefix,
                        "alpha": state.prior.alpha})

    def check(self, ctx, out):
        d = out.data
        problems = checks.check_masses(d["masses"])
        problems += checks.check_nonincreasing("UP set", d["active"])
        for t, state in enumerate(d["prefix"], start=1):
            got = state.log_wealth_many(self.check_cands)
            problems += checks.check_up_prefix(got, ctx["obs"][:t],
                                               self.check_cands, d["alpha"])
        return problems


class Audit:
    """audit-n1000-stream: a PPR audit of the census (600, 250, 150).

    One round streams the first DRAWS ballots of a random permutation in the
    order of `wor --stream`: absorb, count bounds, rank decision per draw.
    The stream ends early if no census remains active.
    """

    name = "audit-n1000-stream"
    CENSUS = (600, 250, 150)
    DRAWS = 700
    DELTA = 0.05
    CHECK_EVERY = 25
    SAMPLE = 48

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.census = np.asarray(self.CENSUS, dtype=np.int64)
        self.N = int(self.census.sum())

    def _sample(self, rng):
        """Censuses checked against the closed form: half drawn uniformly
        from G(K, N), half from a Dirichlet-multinomial around the truth
        (about 3% spread in each share), where exclusions happen late."""
        K, N, half = self.census.size, self.N, self.SAMPLE // 2
        bars = np.sort(np.stack([rng.choice(N + K - 1, K - 1, replace=False)
                                 for _ in range(half)]), axis=1)
        edges = np.hstack([np.full((half, 1), -1), bars,
                           np.full((half, 1), N + K - 1)])
        uniform = np.diff(edges, axis=1) - 1
        shares = rng.dirichlet(self.census * (200.0 / N), size=half)
        near = np.stack([rng.multinomial(N, p) for p in shares])
        return np.vstack([uniform, near])

    def prepare(self, r):
        rng = round_rng(self.seed, r)
        labels = rng.permutation(np.repeat(np.arange(self.census.size),
                                           self.census))
        sample = self._sample(rng)
        hyp = np.vstack([sample, self.census[None, :]])
        return {
            "labels": labels,
            "sample": sample,
            "keys": self._keys(hyp),
            "state": wor.AuditState(self.N, self.census.size, self.DELTA,
                                    method="ppr"),
        }

    def _keys(self, censuses):
        dims = (self.N + 1,) * (self.census.size - 1)
        return np.ravel_multi_index(tuple(censuses[:, :-1].T), dims)

    def execute(self, ctx):
        state = ctx["state"]
        seconds, bounds, decided = 0.0, [], []
        members, active_bounds, extremes = {}, {}, {}
        first = None
        for t in range(1, self.DRAWS + 1):
            t0 = time.perf_counter()
            state.absorb(int(ctx["labels"][t - 1]))
            if state.active_count() == 0:
                # every census excluded, which PPR allows with probability
                # at most delta; like harness.run_experiment, the audit
                # ends here, as no bound can be read off
                seconds += time.perf_counter() - t0
                break
            b = wor.category_count_bounds(state)
            d = wor.rank_decided(state)
            seconds += time.perf_counter() - t0
            bounds.append(b)
            decided.append(d)
            if d and first is None:
                first = t
            if t % self.CHECK_EVERY == 0 or t == first:
                act = state.active_censuses()
                members[t] = np.isin(ctx["keys"], self._keys(act))
                active_bounds[t] = np.stack([act.min(axis=0), act.max(axis=0)],
                                            axis=1)
                extremes[t] = act[np.concatenate([act.argmin(axis=0),
                                                  act.argmax(axis=0)])]
        return Outcome(seconds, state.active_count(),
                       {"bounds": np.asarray(bounds), "decided": decided,
                        "members": members, "active_bounds": active_bounds,
                        "extremes": extremes, "first_decision": first})

    def check(self, ctx, out):
        return checks.check_audit(ctx["labels"], self.census, self.DELTA,
                                  out.data, ctx["sample"])


WORKLOADS = {w.name: w for w in (Sweep, UPOnline, Audit)}
