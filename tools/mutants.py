"""Hand-made mutants of the program, and the tests expected to kill each.

Each mutant names a file of the repository, an exact text that occurs once
in it, the text that replaces it, and the pytest node ids that should fail
on the mutant.  Tier-1 checks that every old text still occurs exactly once
(tests/test_mutant_catalogue.py), so an edit of a mutated line shows up
there and the catalogue cannot rot.

Run the catalogue from the repository root:

    python3 tools/mutants.py              # every mutant
    python3 tools/mutants.py clip-at-zero # only the named ones

The runner copies src/, tests/, bench/ and pyproject.toml into a temporary
directory once, then applies one mutant at a time, runs only that mutant's
tests there with pytest, and restores the file.  A mutant is killed when at
least one of its tests fails; the report names each expected test that
still passed.  The exit status is 1 if a mutant survives.  The byte pins
(tests/test_pinned_outputs.py, tests/test_bench_workloads.py) are named by
no mutant, so a kill here never rests on them.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str          # relative to the repository root
    old: str           # occurs exactly once in path
    new: str
    tests: tuple[str, ...]   # pytest node ids expected to fail


FPE = "src/nemytskii_lab/fpe_solver.py"
PARTICLES = "src/nemytskii_lab/particle_sim.py"

MUTANTS = (
    Mutant("chain-advects-downwind", FPE,
           "ep, em = np.maximum(e_face, 0.0), np.minimum(e_face, 0.0)",
           "em, ep = np.maximum(e_face, 0.0), np.minimum(e_face, 0.0)",
           ("tests/test_acceptance.py::test_criterion_4_linf_bound",
            "tests/test_fpe_solver.py::test_operator_is_the_donor_cell_flux_written_out_at_the_faces")),
    Mutant("chain-b0-doubled", FPE,
           "self.b0 = float(np.asarray(drift.b(0.0)))",
           "self.b0 = 2.0 * float(np.asarray(drift.b(0.0)))",
           ("tests/test_fpe_solver.py::test_constant_b_fast_path_equals_the_general_slope_path",)),
    Mutant("chain-E-half-a-cell-right", FPE,
           "e_face = np.asarray(drift.E(grid.edges), dtype=float)",
           "e_face = np.asarray(drift.E(grid.edges + 0.5 * grid.cell_width), dtype=float)",
           ("tests/test_fpe_solver.py::test_operator_is_the_donor_cell_flux_written_out_at_the_faces",)),
    Mutant("chain-does-not-clip-at-zero", FPE,
           "np.maximum(rows, 0.0, out=outs[:, lo:hi])",
           "np.copyto(outs[:, lo:hi], rows)",
           ("tests/test_fpe_solver.py::test_newton_clips_a_negative_cell_and_reports_the_clipped_mass",)),
    Mutant("chain-beta-prime-scaled", FPE,
           "off = np.multiply(self.m, power, out=self._off)",
           "off = np.multiply(self.m - 1.0, power, out=self._off)",
           ("tests/test_fpe_solver.py::test_shared_power_operator_and_bands_equal_the_spec_beta_ones",
            "tests/test_fpe_solver.py::test_jacobian_bands_match_finite_differences_with_saturating_b")),
    Mutant("chain-predictor-linear", FPE,
           "                outs *= 3.0\n                outs += buffers[(i - 3) % 4]\n",
           "                outs += current\n",
           ("tests/test_fpe_solver.py::test_newton_starts_at_u_then_the_linear_then_the_quadratic_predictor",
            "tests/test_fpe_solver.py::test_barenblatt_chain_newton_telemetry")),
    Mutant("entropy-audit-halves-the-dissipation", FPE,
           "cumulative += (t - prev_t) * dissipation",
           "cumulative += 0.5 * (t - prev_t) * dissipation",
           ("tests/test_fpe_solver.py::test_entropy_audit_is_the_full_row_sum_bit_for_bit",)),
    Mutant("particle-drift-sign-flipped", PARTICLES,
           "drift_term = np.asarray(drift.E(pos), dtype=float)",
           "drift_term = -np.asarray(drift.E(pos), dtype=float)",
           ("tests/test_particle_sim.py::test_em_step_moves_each_particle_by_its_drift_and_its_noise",)),
    Mutant("particle-sigma2-scaled-by-0.8", PARTICLES,
           "sig2 = np.asarray(sigma_squared(spec, dens))",
           "sig2 = 0.8 * np.asarray(sigma_squared(spec, dens))",
           ("tests/test_acceptance.py::test_criterion_7_particle_marginals",)),
    Mutant("particle-bandwidth-tripled", PARTICLES,
           "return max(h, 1e-12)",
           "return 3.0 * max(h, 1e-12)",
           ("tests/test_particle_sim.py::test_silverman_bandwidth_is_the_rule_of_thumb",)),
    Mutant("particle-b-replaced-by-one", PARTICLES,
           "* np.asarray(drift.b(dens), dtype=float) * dt",
           "* 1.0 * dt",
           ("tests/test_particle_sim.py::test_em_step_moves_each_particle_by_its_drift_and_its_noise",)),
    Mutant("particle-kde-bins-shifted-right", PARTICLES,
           "    bins -= 1\n",
           "",
           ("tests/test_particle_sim.py::test_frozen_density_is_exact_on_coarse_grids",
            "tests/test_particle_sim.py::test_frozen_density_lookup_is_np_interp_bit_for_bit")),
)


def _copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        else:
            shutil.copy2(src, dest / name)


def run_mutant(mutant: Mutant, tree: Path) -> tuple[list[str], float]:
    """Apply mutant in tree, run its tests, restore the file; returns the
    expected tests that failed and the seconds taken."""
    target = tree / mutant.path
    original = target.read_text()
    if original.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs "
                         f"{original.count(mutant.old)} times in {mutant.path}")
    target.write_text(original.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    begin = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tree, env=env, capture_output=True, text=True)
    finally:
        target.write_text(original)
    seconds = time.perf_counter() - begin
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{mutant.name}: pytest exited {proc.returncode}\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+?)(?:\[\S*\])?(?: - .*)?$",
                            proc.stdout, flags=re.MULTILINE))
    return [t for t in mutant.tests if t in failed], seconds


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        for mutant in chosen:
            killers, seconds = run_mutant(mutant, tree)
            status = "killed" if killers else "SURVIVED"
            survivors += not killers
            print(f"{mutant.name}: {status} by {len(killers)}/{len(mutant.tests)} "
                  f"tests in {seconds:.1f} s")
            for test in mutant.tests:
                print(f"    {'fails' if test in killers else 'passes'}  {test}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
