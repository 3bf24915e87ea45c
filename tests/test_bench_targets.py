"""The traced benchmark patches names in the package; they must all exist.

bench/layers.py swaps public names such as ``fpe_solver.ThreadPoolExecutor``
and ``particle_sim.w1_distance`` for traced wrappers.  Entering and leaving
its context here fails as soon as one of those names is renamed or removed.
"""

import importlib
from pathlib import Path

from nemytskii_lab import cli, fpe_solver, particle_sim

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_instrumentation_enters_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    originals = (fpe_solver.ThreadPoolExecutor, particle_sim.frozen_density,
                 particle_sim.w1_distance, cli.run_scenario)
    with layers.instrumented(spans.SpanRecorder()):
        assert particle_sim.frozen_density is not originals[1]
    assert (fpe_solver.ThreadPoolExecutor, particle_sim.frozen_density,
            particle_sim.w1_distance, cli.run_scenario) == originals
