import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_trace_patch_table_resolves():
    # Tracer.install raises on a name the program no longer defines; read
    # its patch table here, without installing, so that a rename or
    # deletion fails in the test suite rather than in a traced bench run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in tracing._PATCHES
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_traced_run_reaches_every_counted_layer(tmp_path):
    # install the bench's tracer, run a small sweep of every i.i.d. method,
    # an emit, a PPR audit and one audit step, and check that each layer's
    # call counter moved: a kernel no longer looked up where the bench
    # patches it would leave its counter at 0
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from simplexcs import harness, wor

    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, *_ in tracing._PATCHES]
    tracer = tracing.Tracer().install()
    try:
        tracer.on = True
        result = harness.run_experiment(harness.ExperimentConfig(
            mu=(0.6, 0.25, 0.15), horizon=10, trials=1, seed=3,
            methods=harness.SIMULATE_METHODS, grid_resolution=10))
        harness.emit(result, "csv", str(tmp_path / "sweep.csv"))
        harness.run_experiment(harness.ExperimentConfig(
            census=(6, 3, 1), trials=2, seed=1, methods=("ppr",)))
        state = wor.AuditState(10, 3, 0.05, method="ppr")
        state.absorb(0)
        wor.category_count_bounds(state)
        wor.rank_decided(state)
    finally:
        tracer.on = False
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    # nothing in the program calls the binomial tail since Clopper-Pearson
    # became closed form, nor the KT block kernel since the sweep evaluates
    # KT on coordinate levels (harness keeps the name for the patch table)
    unused = {"baselines.log_binomial_tail.calls",
              "wealth.kt_log_wealth_many.calls"}
    missed = [name for name, _ in tracing.LAYER_METRICS
              if name.endswith(".calls") and name not in unused
              and not tracer.totals.get(name, 0) > 0]
    assert missed == []
    assert all(getattr(owner, attr) is original for owner, attr, original in saved)
