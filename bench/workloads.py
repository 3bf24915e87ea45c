"""The benchmark's workloads: inputs from a seed, one operation, its gate.

Each workload builds its inputs from the seed, then runs one operation per
call of ``Prepared.run``: a CLI scenario through ``cli.main`` or the
contraction suite through ``fpe_solver.semigroup_distance``.  An operation
fails when it raises, when the CLI exits non-zero or when its gate fails;
its outputs are digested so repeats of one input can be checked to be
byte-identical (the package's determinism contract).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from nemytskii_lab import cli, fpe_solver, particle_sim
from nemytskii_lab.coefficients import DriftSpec, NonlinearitySpec
from nemytskii_lab.fpe_solver import GridField, SolverConfig

# the workloads that take a seed and their default seeds (fpe-barenblatt is
# deterministic and has none)
DEFAULT_SEEDS = {"fpe-contraction": 2024, "particles": 20240811, "coupling": 7}


class OpFailed(RuntimeError):
    """An operation that completed but did not meet its gate."""


@dataclass
class Outcome:
    seconds: float
    digest: str                # of the outputs that must repeat exactly
    values: dict[str, float]   # gate values worth printing, e.g. l1_err


@dataclass
class Prepared:
    """Inputs built from the seed, ready to run as often as wanted."""

    work: int                       # cell- or particle-steps per operation
    work_name: str                  # cell_steps_per_s or particle_steps_per_s
    run: Callable[[Path], Outcome]  # one operation writing under the path


def describe(err: BaseException) -> str:
    """Message with the step and residual a solver or simulation error carries."""
    parts = [f"{type(err).__name__}: {err}"]
    for attr in ("step", "residual", "particle_index"):
        value = getattr(err, attr, None)
        if value is not None:
            parts.append(f"{attr}={value}")
    return ", ".join(parts)


@contextmanager
def patched(targets):
    """Set owner.attr = replacement for each target; restore on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _catching(fn, caught: list):
    def call(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            caught.append(err)
            raise
    return call


def _digest(outdir: Path) -> str:
    """Hash of every output file, without the report's wall_time record."""
    h = hashlib.sha256()
    for path in sorted(outdir.rglob("*")):
        if not path.is_file():
            continue
        h.update(path.name.encode())
        for line in path.read_bytes().splitlines(keepends=True):
            if not line.startswith(b'{"wall_time"'):
                h.update(line)
    return h.hexdigest()


def _report_rows(outdir: Path) -> dict[str, dict]:
    rows = {}
    report = outdir / "report.ndjson"
    if report.is_file():
        for line in report.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if "check_id" in rec:
                rows[rec["check_id"]] = rec
    return rows


def _cli_workload(config: str, work: int, work_name: str,
                  gate_rows: dict[str, str], workdir: Path) -> Prepared:
    """A CLI scenario; gate_rows maps report rows to the values they report.

    The gate is exit code 0 (every report row passed) and the presence of
    each named row.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / "scenario.cfg"
    config_path.write_text(config, encoding="utf-8")

    def run(outdir: Path) -> Outcome:
        caught: list[BaseException] = []
        with _catch_errors(caught):
            start = time.perf_counter()
            code = cli.main(["run", str(config_path), "--output-dir", str(outdir)])
            seconds = time.perf_counter() - start
        rows = _report_rows(outdir)
        if code == 1:
            raise OpFailed("exit code 1: "
                           + (describe(caught[0]) if caught else "execution error"))
        problems = [f"{r['check_id']}={r['achieved']!r} (tol {r['tolerance']!r})"
                    for r in rows.values() if not r["pass"]]
        problems += [f"no {row} row" for row in gate_rows if row not in rows]
        if code != 0 or problems:
            raise OpFailed(f"exit code {code}: {'; '.join(problems)}")
        values = {name: rows[row]["achieved"] for row, name in gate_rows.items()}
        return Outcome(seconds, _digest(outdir), values)

    return Prepared(work, work_name, run)


def _catch_errors(caught: list):
    """Record exceptions raised by the solver or simulator under the CLI.

    run_scenario turns them into exit code 1; the record keeps their step and
    residual for the failure report.
    """
    return patched([(cli, "step_chain", _catching(cli.step_chain, caught)),
                    (particle_sim, "run", _catching(particle_sim.run, caught)),
                    (particle_sim, "coupling_experiment",
                     _catching(particle_sim.coupling_experiment, caught))])


def fpe_barenblatt(seed: int | None, workdir: Path) -> Prepared:
    """Criterion 2's fine level: one 900-step chain on 4000 cells."""
    n_cells, h, t0, T = 4000, 1e-3, 0.1, 1.0
    config = (f"scenario = fpe-run\nm = 2.0\nt0 = {t0}\nT = {T}\n"
              f"n_cells = {n_cells}\nh = {h}\ntrajectory_format = csv\n")
    steps = max(1, math.ceil((T - t0) / h))
    return _cli_workload(config, n_cells * steps, "cell_steps_per_s",
                         {"l1_error_vs_closed_form": "l1_err"}, workdir)


def particles(seed: int, workdir: Path) -> Prepared:
    """Criterion 7's ensemble (N = 1e5, dt = 1e-3) over 100 steps."""
    n, dt, t0, T = 100_000, 1e-3, 0.1, 0.2
    config = (f"scenario = particle-run\nm = 2.0\nt0 = {t0}\nT = {T}\n"
              f"n_particles = {n}\ndt = {dt}\nseed = {seed}\n")
    steps = int(round((T - t0) / dt))
    return _cli_workload(config, n * steps, "particle_steps_per_s",
                         {"w1_vs_closed_form": "w1_err",
                          "variance_rel_error": "variance_rel_err"}, workdir)


def coupling(seed: int, workdir: Path) -> Prepared:
    """Criterion 8's exact twins (perturbation 0, N = 2e4) over 300 steps."""
    n, dt, t0, T = 20_000, 1e-3, 0.1, 0.4
    config = (f"scenario = coupling\nm = 2.0\nt0 = {t0}\nT = {T}\n"
              f"n_particles = {n}\ndt = {dt}\nperturbation = 0\nseed = {seed}\n")
    steps = int(round((T - t0) / dt))
    return _cli_workload(config, 2 * n * steps, "particle_steps_per_s",
                         {"zero_perturbation_sup": "zero_perturbation_sup"},
                         workdir)


def _inward_tanh(x, amp=0.25):
    return -amp * np.tanh(np.asarray(x, dtype=float))


def _random_probability_field(rng, n=200, lo=-3.0, hi=3.0) -> GridField:
    """Criterion 3's random smooth density on n cells of [lo, hi]."""
    xs = np.linspace(lo, hi, n)
    v = 0.05 * np.exp(-xs**2)
    for k in range(1, 6):
        v += np.abs(rng.normal()) * np.cos(k * xs + rng.uniform(0, 2 * np.pi)) ** 2 \
            * np.exp(-xs**2)
    return GridField(lo, hi, v).normalized()


def fpe_contraction(seed: int, workdir: Path) -> Prepared:
    """Criterion 3's 50 random pairs under criterion 4's inward tanh drift."""
    rng = np.random.default_rng(seed)
    pairs = [(_random_probability_field(rng), _random_probability_field(rng))
             for _ in range(50)]
    amp, T = 0.25, 0.05
    drift = DriftSpec.constant_b(E=_inward_tanh, b0=1.0, sup_norm_E=amp,
                                 div_E_minus_sup=amp,
                                 sup_div_minus_plus_E=1.25 * amp)
    spec = NonlinearitySpec.power_law(2.0)
    config = SolverConfig(lambda_step=5e-3)
    steps = max(1, math.ceil(T / config.lambda_step))
    work = 2 * len(pairs) * pairs[0][0].n_cells * steps

    def run(outdir: Path) -> Outcome:
        start = time.perf_counter()
        ratios = [fpe_solver.semigroup_distance(a, b, T, config, spec, drift)
                  for a, b in pairs]
        seconds = time.perf_counter() - start
        worst = max(ratios)
        if not worst <= 1.0 + 1e-6:
            raise OpFailed(f"worst contraction ratio {worst!r} > 1 + 1e-6")
        digest = hashlib.sha256(np.asarray(ratios).tobytes()).hexdigest()
        return Outcome(seconds, digest, {"worst_ratio": worst})

    return Prepared(work, "cell_steps_per_s", run)


WORKLOADS = {
    "fpe-barenblatt": fpe_barenblatt,
    "fpe-contraction": fpe_contraction,
    "particles": particles,
    "coupling": coupling,
}
