"""Command line interface.

Subcommands: simulate (i.i.d. experiments), wor (without-replacement
audits, batch or streaming), wealth (one-shot log-wealth evaluation),
confset (dump a realized confidence set as CSV).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from .boxreduce import embed
from .confset import simplex_candidate_grid
from .harness import DEFAULT_GRID, ExperimentConfig, apply_preset, check_census, emit
from .harness import Levels, SetRunner, run_experiment
from .simplex import GridCapExceeded
from .wealth import DirichletPrior, UPState, kt_log_wealth, ppr_log_wealth
from .wor import AuditState, category_count_bounds, rank_decided


def _floats(s):
    return tuple(float(x) for x in s.split(","))


def _ints(s):
    return tuple(int(x) for x in s.split(","))


def load_observations(path, K=None, box=False):
    """Observation CSV: one row per step; a single integer category
    (1-based) or K decimals (simplex), or K-1 decimals with box=True."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            vals = [float(x) for x in line.split(",")]
            rows.append(vals)
    if not rows:
        raise ValueError(f"no observations in {path}")
    if box:
        return np.array([embed(np.array(r)) for r in rows])
    if len(rows[0]) == 1:
        cats = np.array([int(r[0]) - 1 for r in rows])
        if K is None:
            K = int(cats.max()) + 1
        bad = cats[(cats < 0) | (cats >= K)]
        if bad.size:
            raise ValueError(f"category {bad[0] + 1} is not in 1..{K}")
        out = np.zeros((len(cats), K))
        out[np.arange(len(cats)), cats] = 1.0
        return out
    return np.array(rows)


def _cmd_simulate(args):
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = ExperimentConfig()
    for name, val in (
        ("preset", args.preset), ("k", args.k), ("mu", args.mu),
        ("concentration", args.conc), ("horizon", args.t),
        ("trials", args.trials), ("delta", args.delta), ("seed", args.seed),
        ("methods", tuple(args.methods.split(",")) if args.methods else None),
        ("grid_resolution", args.grid), ("alpha", args.alpha),
    ):
        if val is not None:
            setattr(cfg, name, val)
    return _run("simulate", cfg, args.out, args.svg)


def _run(cmd, cfg, out=None, svg=None):
    """Run an experiment, write its artifacts and print its summary line:
    the audit summary, or each method's final mean volume.  A config that
    apply_preset rejects, or a grid over GRID_CAP, exits 2 with a one-line
    error."""
    try:
        cfg = apply_preset(cfg)
        result = run_experiment(cfg)
    except (ValueError, GridCapExceeded) as exc:
        print(f"{cmd}: {exc}", file=sys.stderr)
        return 2
    if out:
        emit(result, "csv", out)
        emit(result, "json", out + ".json")
    if svg:
        emit(result, "svg", svg)
    if result["kind"] == "wor":
        print(json.dumps(result["summary"], sort_keys=True))
    else:
        last = {m: float(s["mean_volume"][-1]) for m, s in result["summary"].items()}
        print(json.dumps({"final_mean_volume": last}, sort_keys=True))
    return 0


def _cmd_wor(args):
    census = _ints(args.census)
    if args.stream:
        return _wor_stream(census, args)
    cfg = ExperimentConfig(
        preset="custom", census=census, trials=args.permutations,
        delta=args.delta, seed=args.seed,
        methods=tuple(args.method.split(",")), alpha=args.alpha,
    )
    return _run("wor", cfg, args.out)


def _wor_stream(census, args):
    """Line protocol: read one 1-based category per line, emit one JSON
    object per line with the updated audit state.  Once every census is
    excluded, the last line has no bounds and the stream stops.  A line that
    is no category in 1..K, or a draw past N-1, exits 2 with a one-line error,
    as does a census or an audit that AuditState rejects."""
    K = len(census)
    try:
        state = AuditState(sum(check_census(census)), K, args.delta,
                           method=args.method,
                           prior=DirichletPrior(np.full(K, args.alpha)))
    except ValueError as exc:
        print(f"wor --stream: {exc}", file=sys.stderr)
        return 2
    with open(args.obs) if args.obs else contextlib.nullcontext(sys.stdin) as src:
        for lineno, line in enumerate(src, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                label = int(line)
                if not 1 <= label <= K:
                    raise ValueError(f"category {label} is not in 1..{K}")
                state.absorb(label - 1)
            except ValueError as exc:
                print(f"wor --stream: line {lineno}: {exc}", file=sys.stderr)
                return 2
            empty = state.active_count() == 0
            print(json.dumps({
                "t": state.t,
                "active_count": state.active_count(),
                "bounds": None if empty else category_count_bounds(state).tolist(),
                "decided": not empty and rank_decided(state),
            }))
            if empty:
                break
    return 0


def _cmd_wealth(args):
    try:
        val = _wealth(args)
    except ValueError as exc:
        print(f"wealth: {exc}", file=sys.stderr)
        return 2
    print(f"{val:.12g}")
    return 0


def _wealth(args):
    m = np.array(_floats(args.m))
    K = m.size
    prior = DirichletPrior(np.full(K, args.alpha))
    obs = load_observations(args.obs, K=K, box=args.box)
    if args.method == "kt":
        return kt_log_wealth(obs.sum(axis=0), m, prior)
    if args.method == "up":
        state = UPState(K, prior=prior)
        for y in obs:
            state = state.absorb(y)
        return state.log_wealth(m)
    if args.n is None:
        raise ValueError("--n (population size) is required for ppr")
    census = np.rint(args.n * m)
    if np.any(np.abs(args.n * m - census) > 1e-9) or census.sum() != args.n:
        raise ValueError(f"--n {args.n} times --m is not an integer census "
                         f"of {args.n}")
    return ppr_log_wealth(obs.sum(axis=0), census.astype(int), prior)


def _cmd_confset(args):
    try:
        obs = load_observations(args.obs, box=args.box)
        K = obs.shape[1]
        G = DEFAULT_GRID.get(K, 20) if args.grid is None else args.grid
        grid = simplex_candidate_grid(K, G)
        runner = SetRunner(args.method, Levels(grid, grid[:0]), args.delta,
                           DirichletPrior(np.full(K, args.alpha)))
        for y in obs:
            runner.step(y)
    except (ValueError, GridCapExceeded) as exc:
        print(f"confset: {exc}", file=sys.stderr)
        return 2
    runner.cs.to_csv(args.out)
    print(json.dumps({"relative_volume": runner.cs.relative_volume()}))
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="simplexcs",
        description="Gambling-based confidence sequences for bounded vectors",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("simulate", help="run an i.i.d. simulation experiment")
    ps.add_argument("--preset", choices=("fig1", "fig2", "fig3", "custom"), default=None)
    ps.add_argument("--config", help="JSON config file; flags override it")
    ps.add_argument("--k", type=int)
    ps.add_argument("--mu", type=_floats)
    ps.add_argument("--conc", type=_floats,
                    help="Dirichlet concentration (probability-vector data)")
    ps.add_argument("--t", type=int)
    ps.add_argument("--trials", type=int)
    ps.add_argument("--delta", type=float)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--methods")
    ps.add_argument("--grid", type=int)
    ps.add_argument("--alpha", type=float)
    ps.add_argument("--out")
    ps.add_argument("--svg")
    ps.set_defaults(func=_cmd_simulate)

    pw = sub.add_parser("wor", help="without-replacement audit experiment")
    pw.add_argument("--census", required=True)
    pw.add_argument("--permutations", type=int, default=100)
    pw.add_argument("--delta", type=float, default=0.05)
    pw.add_argument("--method", default="ppr")
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--alpha", type=float, default=0.5)
    pw.add_argument("--out")
    pw.add_argument("--stream", action="store_true",
                    help="read one category label per line, emit JSON per line")
    pw.add_argument("--obs", help="label file for --stream (default stdin)")
    pw.set_defaults(func=_cmd_wor)

    pv = sub.add_parser("wealth", help="evaluate log-wealth at one candidate")
    pv.add_argument("--method", required=True, choices=("kt", "up", "ppr"))
    pv.add_argument("--obs", required=True)
    pv.add_argument("--m", required=True)
    pv.add_argument("--alpha", type=float, default=0.5)
    pv.add_argument("--n", type=int, help="population size for ppr")
    pv.add_argument("--box", action="store_true")
    pv.set_defaults(func=_cmd_wealth)

    pc = sub.add_parser("confset", help="dump a realized confidence set as CSV")
    pc.add_argument("--method", required=True, choices=("kt", "up"))
    pc.add_argument("--obs", required=True)
    pc.add_argument("--delta", type=float, required=True)
    pc.add_argument("--grid", type=int)
    pc.add_argument("--alpha", type=float, default=0.5)
    pc.add_argument("--box", action="store_true")
    pc.add_argument("--out", required=True)
    pc.set_defaults(func=_cmd_confset)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
