"""Emitted CSV and JSON against stored bytes.

The fixtures under tests/fixtures/ were written by the harness before its
results were stored as columns and before Clopper-Pearson became closed
form.  The determinism tests compare a run with itself; these compare with
the stored bytes, so a change to a runner, to the result storage or to an
emitter that moves any digit of the output fails here.  Each fixture is
gzip-compressed; the bytes compared are the decompressed ones.
"""

import gzip
import pathlib

import pytest

from simplexcs.harness import SIMULATE_METHODS, ExperimentConfig, emit, run_experiment

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

GOLDEN = {
    # all seven i.i.d. methods over enough trials that the summary means
    # use pairwise summation, and past the Mardia gate (t >= 34 at K=3)
    "simulate-iid": ExperimentConfig(
        mu=(0.6, 0.25, 0.15), horizon=36, trials=9, seed=5,
        methods=SIMULATE_METHODS, grid_resolution=10,
    ),
    # probability-vector data: fractional counts in every runner
    "simulate-dirichlet": ExperimentConfig(
        concentration=(2.0, 1.0, 0.5), horizon=12, trials=3, seed=3,
        methods=SIMULATE_METHODS, grid_resolution=10,
    ),
    # one trial of the benchmark's Fig. 1 sweep: T=100 on a resolution-100 grid
    "sweep-k3": ExperimentConfig(
        mu=(0.6, 0.25, 0.15), horizon=100, trials=1, seed=1234,
        methods=SIMULATE_METHODS, grid_resolution=100,
    ),
    "wor-ppr": ExperimentConfig(
        census=(12, 5, 3), trials=10, seed=1, methods=("ppr",),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_emitted_bytes_match_fixture(name, tmp_path):
    result = run_experiment(GOLDEN[name])
    for fmt in ("csv", "json"):
        path = tmp_path / f"{name}.{fmt}"
        emit(result, fmt, str(path))
        want = gzip.decompress((FIXTURES / f"{name}.{fmt}.gz").read_bytes())
        assert path.read_bytes() == want, f"{name}.{fmt} differs from the fixture"
