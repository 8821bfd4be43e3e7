"""Per-layer tracing: timed wrappers around the program's public functions.

Tracer.install patches each function at the name where the program or the
benchmark looks it up (a module global or a class attribute), so calls
from inside the program are seen as well as calls from the benchmark.  A
wrapper records, while the tracer is on, the call count, the wall time
and, for some layers, a count of the work done (rows, pairs, bytes).
Spans nest: time spent in a traced callee is subtracted from its caller's
self time.  Nothing is patched in an untraced run, so tracing costs
nothing when off.

A name the program no longer defines makes install raise AttributeError,
so a renamed function cannot drop out of the per-layer figures unseen.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

from simplexcs import baselines, confset, harness, simplex, wealth, wor

# (metric, unit) in report order; every traced run prints all of them
LAYER_METRICS = (
    ("simplex.enumerate_grid.calls", "count"),
    ("simplex.enumerate_grid.s", "s"),
    ("simplex.enumerate_grid.rows", "rows"),
    ("simplex.rank_many.calls", "count"),
    ("simplex.rank_many.s", "s"),
    ("simplex.rank_many.rows", "rows"),
    ("wealth.UPState.absorb.calls", "count"),
    ("wealth.UPState.absorb.s", "s"),
    ("wealth.UPState.absorb.table_rows", "rows"),
    ("wealth.UPState.log_wealth_many.calls", "count"),
    ("wealth.UPState.log_wealth_many.s", "s"),
    ("wealth.UPState.log_wealth_many.pairs", "pairs"),
    ("wealth.kt_log_wealth_many.calls", "count"),
    ("wealth.kt_log_wealth_many.s", "s"),
    ("confset.ConfidenceSet.update.calls", "count"),
    ("confset.ConfidenceSet.update.s", "s"),
    ("confset.ConfidenceSet.update.evaluated", "count"),
    ("baselines.clopper_pearson_interval.calls", "count"),
    ("baselines.clopper_pearson_interval.s", "s"),
    ("baselines.log_binomial_tail.calls", "count"),
    ("wor.AuditState.init.s", "s"),
    ("wor.AuditState.absorb.calls", "count"),
    ("wor.AuditState.absorb.s", "s"),
    ("wor.AuditState.absorb.rows_evaluated", "rows"),
    ("wor.AuditState.absorb.rows_excluded", "rows"),
    ("wor.category_count_bounds.calls", "count"),
    ("wor.category_count_bounds.s", "s"),
    ("wor.rank_decided.calls", "count"),
    ("wor.rank_decided.s", "s"),
    ("wor.draws_to_decision", "draws"),
    ("harness.run_experiment.s", "s"),
    ("harness.run_experiment.self_s", "s"),
    ("harness.emit.s", "s"),
    ("harness.emit.bytes", "bytes"),
    ("harness.rows", "rows"),
    ("trace.overhead_s", "s"),
)


def _grid_rows(args, kwargs, result, before):
    return {"simplex.enumerate_grid.rows": result.shape[0]}


def _rank_rows(args, kwargs, result, before):
    return {"simplex.rank_many.rows": len(args[0])}


def _table_rows(args, kwargs, result, before):
    return {"wealth.UPState.absorb.table_rows": result.table.size}


def _pairs(args, kwargs, result, before):
    return {"wealth.UPState.log_wealth_many.pairs":
            args[0].table.size * len(args[1])}


def _evaluated(args, kwargs, result, before):
    return {"confset.ConfidenceSet.update.evaluated": len(args[1])}


def _active_before(args, kwargs):
    return args[0].active_count()


def _audit_rows(args, kwargs, result, before):
    return {"wor.AuditState.absorb.rows_evaluated": before,
            "wor.AuditState.absorb.rows_excluded": before - args[0].active_count()}


def _harness_rows(args, kwargs, result, before):
    return {"harness.rows": len(result["rows"])}


def _emitted_bytes(args, kwargs, result, before):
    return {"harness.emit.bytes": os.path.getsize(result)}


# (owner, attribute, metric prefix, counter, pre-call probe, timed)
_PATCHES = (
    (wealth, "enumerate_grid", "simplex.enumerate_grid", _grid_rows, None, True),
    (wor, "enumerate_grid", "simplex.enumerate_grid", _grid_rows, None, True),
    (confset, "enumerate_grid", "simplex.enumerate_grid", _grid_rows, None, True),
    (wealth, "rank_many", "simplex.rank_many", _rank_rows, None, True),
    (simplex, "rank_many", "simplex.rank_many", _rank_rows, None, True),
    (wealth.UPState, "absorb", "wealth.UPState.absorb", _table_rows, None, True),
    (wealth.UPState, "log_wealth_many", "wealth.UPState.log_wealth_many",
     _pairs, None, True),
    (harness, "kt_log_wealth_many", "wealth.kt_log_wealth_many", None, None,
     True),
    (confset.ConfidenceSet, "update", "confset.ConfidenceSet.update",
     _evaluated, None, True),
    (harness, "clopper_pearson_interval", "baselines.clopper_pearson_interval",
     None, None, True),
    (baselines, "log_binomial_tail", "baselines.log_binomial_tail", None, None,
     False),
    (wor.AuditState, "__init__", "wor.AuditState.init", None, None, True),
    (wor.AuditState, "absorb", "wor.AuditState.absorb",
     _audit_rows, _active_before, True),
    (wor, "category_count_bounds", "wor.category_count_bounds", None, None,
     True),
    (wor, "rank_decided", "wor.rank_decided", None, None, True),
    (harness, "rank_decided", "wor.rank_decided", None, None, True),
    (harness, "run_experiment", "harness.run_experiment", _harness_rows, None,
     True),
    (harness, "emit", "harness.emit", _emitted_bytes, None, True),
)


class Tracer:
    """Collects per-layer totals while `on` is true."""

    def __init__(self):
        self.on = False
        self.totals = defaultdict(float)
        self._children = []  # per open span: time spent in traced callees

    def install(self):
        for owner, attr, prefix, counter, probe, timed in _PATCHES:
            fn = getattr(owner, attr)
            setattr(owner, attr, self._wrap(fn, prefix, counter, probe, timed))
        return self

    def _wrap(self, fn, prefix, counter, probe, timed):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer.totals[prefix + ".calls"] += 1
            if not timed:
                return fn(*args, **kwargs)
            before = probe(args, kwargs) if probe else None
            tracer._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = tracer._children.pop()
                if tracer._children:
                    tracer._children[-1] += dt
                tracer.totals[prefix + ".s"] += dt
                tracer.totals[prefix + ".self_s"] += dt - inner
            if counter:
                for name, value in counter(args, kwargs, result, before).items():
                    tracer.totals[name] += value
            return result

        return traced

    def per_round(self, rounds):
        """Every layer metric as a mean per traced round (0 if never seen)."""
        return {name: self.totals.get(name, 0.0) / rounds
                for name, _ in LAYER_METRICS}
