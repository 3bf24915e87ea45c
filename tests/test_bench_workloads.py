"""One operation of each benchmark workload gives its pinned output bytes.

bench/workloads.py builds each workload from its default seed and digests
what one operation writes.  The digests (prefixes of their sha256) and the
chains' Newton iteration totals are pinned here, so a change that moves one
bit of the benchmark's output, or one Newton iteration of its chains, fails
in tier-1 and not only when the benchmark runs.

The pins hold for numpy 2.4.6 and scipy 1.17.1.  Another numpy or LAPACK
may round differently: re-pin only after checking that the move comes from
the libraries and not from the program.
"""

import importlib
from pathlib import Path

import pytest

from nemytskii_lab import fpe_solver

BENCH = Path(__file__).resolve().parents[1] / "bench"

# workload: (digest prefix, Newton iterations of its chains; None without one)
PINS = {
    "fpe-barenblatt": ("35e9400b9c5f008c", 2061),
    "fpe-contraction": ("e0aaf3f0b42c5252", 2661),
    "particles": ("22bc83efb8e6ab34", None),
    "coupling": ("a963699a3d559480", None),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_one_operation_of_each_workload_is_pinned(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    solve, iters = fpe_solver._newton_stack, []

    def counted(*args, **kwargs):
        solutions = solve(*args, **kwargs)
        iters.extend(sol.newton_iters for sol in solutions)
        return solutions

    monkeypatch.setattr(fpe_solver, "_newton_stack", counted)
    prepared = workloads.WORKLOADS[name](workloads.DEFAULT_SEEDS.get(name),
                                         tmp_path / "work")
    outcome = prepared.run(tmp_path / "out")
    digest, newton = PINS[name]
    assert outcome.digest[:len(digest)] == digest
    assert (sum(iters) if iters else None) == newton
