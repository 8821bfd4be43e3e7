"""simplexcs benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
./src.  The run builds the workload's inputs from --seed, then runs whole
rounds (one operation each) until --seconds of wall time have passed,
checks every round's outputs against computations made apart from the
program, and prints one JSON object as the last line of standard output:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  See perfbench/README.md.
"""

import os
import sys
import time

_START = time.perf_counter()

# One BLAS/OpenMP thread, set before numpy is first imported: on a small
# machine a second BLAS thread competes with the process itself.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

# BENCHMARK.json lists the sweep and the audit only; up-k5-online is run by
# hand (see perfbench/README.md)
WORKLOAD_NAMES = ("iid-k3-sweep", "up-k5-online", "audit-n1000-stream")

# (metric, unit) printed by an untraced run
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("final_active", "count"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program(root):
    """Import simplexcs from <root>/src, and from nowhere else."""
    src = os.path.join(root, "src")
    pkg = os.path.join(src, "simplexcs")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"run.py: no simplexcs sources under {src}; run from the "
                 "root of a source checkout")
    sys.path.insert(0, src)
    import simplexcs

    if os.path.dirname(os.path.abspath(simplexcs.__file__)) != os.path.abspath(pkg):
        sys.exit(f"run.py: imported simplexcs from {simplexcs.__file__}, "
                 f"not from {pkg}")


class Tally:
    """Attempted and failed operations, and whether every check passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.outcomes = []

    def run(self, wl, ctx, tracer=None):
        """Execute and check one operation; returns its Outcome or None.
        A running tracer is stopped before the checks."""
        self.attempted += 1
        try:
            out = wl.execute(ctx)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            if tracer is not None:
                tracer.on = False
        problems = wl.check(ctx, out)
        if problems:
            for msg in problems:
                print(f"check failed: {msg}", file=sys.stderr)
            self.failed += 1
            self.correct = False
            return None
        self.outcomes.append(out)
        return out


def untraced_metrics(outcomes, setup_s):
    import numpy as np

    values = {
        "setup_s": setup_s,
        "run_s": float(np.median([o.seconds for o in outcomes])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_active": float(np.median([o.final_active for o in outcomes])),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    import_program(root)

    import numpy as np

    import tracing
    import workloads

    out_dir = os.path.join(root, "perfbench", "_out")
    os.makedirs(out_dir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    first = wl.prepare(0)
    if hasattr(wl, "warm_up"):
        wl.warm_up()
    setup_s = time.perf_counter() - _START

    tally = Tally()
    tracer = tracing.Tracer().install() if args.trace else None
    traced, overheads = [], []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < args.seconds:
        if tracer is None:
            tally.run(wl, first if r == 0 else wl.prepare(r))
        else:
            # the same inputs untraced and traced, alternating which goes
            # first; only the traced copy (its preparation included) feeds
            # the layer totals
            pair = {}
            for on in ((False, True) if r % 2 == 0 else (True, False)):
                tracer.on = on
                ctx = first if r == 0 and not on else wl.prepare(r)
                pair[on] = tally.run(wl, ctx, tracer)
            if pair[True] is not None:
                traced.append(pair[True])
            if pair[True] is not None and pair[False] is not None:
                overheads.append(pair[True].seconds - pair[False].seconds)
        r += 1

    if not tally.outcomes or (tracer is not None and not traced):
        sys.exit("run.py: no operation succeeded")
    if tracer is None:
        metrics = untraced_metrics(tally.outcomes, setup_s)
    else:
        values = tracer.per_round(len(traced))
        firsts = [o.data["first_decision"] for o in traced
                  if o.data.get("first_decision")]
        values["wor.draws_to_decision"] = float(np.mean(firsts)) if firsts else 0.0
        values["trace.overhead_s"] = float(np.median(overheads)) if overheads else 0.0
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS}
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  round_s=[o.seconds for o in tally.outcomes])
    with open(os.path.join(out_dir, f"{args.workload}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
