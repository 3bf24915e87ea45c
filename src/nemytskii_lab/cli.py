"""Scenario runner: flat key=value configs in, CSV/NDJSON artifacts out.

Exit codes: 0 when every asserted check passes, 2 when a check fails (the
report is still written in full), 1 on execution errors.  Artifacts being
written when a crash interrupts them keep a ``.partial`` suffix.  Output is
byte-identical across runs of the same config and seed, except for the
trailing wall_time record.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, closed_form, particle_sim
from .coefficients import DriftSpec, NonlinearitySpec, check_hypotheses, lambda_zero
from .fpe_solver import (
    MAX_CLIPPED_MASS,
    NEWTON_TOL,
    GridField,
    SolverConfig,
    entropy_audit,
    step_chain,
    write_trajectory_binary,
)

class ConfigError(ValueError):
    """Carries every validation problem found, not just the first."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass
class Scenario:
    name: str
    params: dict
    output_dir: Path = field(default_factory=lambda: Path("."))

    def __post_init__(self):
        for key, value in self.params.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")


def parse_config(text: str) -> Scenario:
    """Parse flat ``key = value`` lines with # comments into a Scenario.

    Values are typed as int, then float, then bare string.  A non-finite
    number and a key that neither the scenario nor its drift kind reads are
    problems; all problems are collected (with line numbers) before raising.
    """
    problems: list[str] = []
    params: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected key = value, got {raw!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            problems.append(f"line {lineno}: empty key or value")
            continue
        params[key] = _type_value(value)
        if isinstance(params[key], float) and not math.isfinite(params[key]):
            problems.append(f"line {lineno}: {key} must be finite, got {value}")

    drift = params.get("drift", "zero")
    drift_keys = _DRIFT_TABLE[drift][1] if drift in _DRIFT_TABLE else ()
    name = params.pop("scenario", None)
    if name is None:
        problems.append("missing required key 'scenario'")
    elif name not in _SCENARIO_TABLE:
        problems.append(
            f"unknown scenario {name!r}; allowed: {', '.join(SCENARIOS)}")
    else:
        _, required, optional = _SCENARIO_TABLE[name]
        for key in required:
            if key not in params:
                problems.append(f"scenario {name}: missing required key {key!r}")
        known = required + optional + _COMMON_KEYS + drift_keys
        unknown = ", ".join(repr(key) for key in params if key not in known)
        if unknown:
            other = "".join(f"; drift = {kind} also reads {', '.join(keys)}"
                            for kind, (_, keys) in _DRIFT_TABLE.items()
                            if keys and kind != drift)
            problems.append(f"scenario {name}: unknown key(s) {unknown}; "
                            f"known keys: {', '.join(known)}{other}")
    if drift not in _DRIFT_TABLE:
        problems.append(
            f"unknown drift {drift!r}; allowed: {', '.join(_DRIFT_TABLE)}")
    if "m" in params:
        m = params["m"]
        if not isinstance(m, (int, float)) or not m > 1:
            problems.append("m must exceed 1 (power-law exponent range)")
    if problems:
        raise ConfigError(problems)
    out_dir = Path(str(params.pop("output_dir", ".")))
    return Scenario(name=name, params=params, output_dir=out_dir)


def _type_value(value: str):
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

class _Artifact:
    """Write-to-.partial-then-rename file sink."""

    def __init__(self, path: Path):
        self.path = path
        self.partial = path.with_name(path.name + ".partial")
        self.handle = None

    def __enter__(self):
        self.partial.parent.mkdir(parents=True, exist_ok=True)
        self.handle = open(self.partial, "w", encoding="utf-8")
        return self.handle

    def __exit__(self, exc_type, exc, tb):
        self.handle.close()
        if exc_type is None:
            self.partial.replace(self.path)
        return False


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class Check:
    check_id: str
    target: float
    achieved: float
    tolerance: float
    passed: bool

    def as_json(self) -> str:
        return json.dumps({
            "check_id": self.check_id,
            "target": float(self.target),
            "achieved": float(self.achieved),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }, sort_keys=True)


def _flag_check(check_id: str, ok: bool, gated: bool = True) -> Check:
    """A yes/no row: achieved is 1.0 or 0.0; an ungated row always passes."""
    return Check(check_id, 1.0, 1.0 if ok else 0.0, 0.0, bool(ok) or not gated)


def _bound_check(check_id: str, achieved: float, bound: float,
                 target: float | None = None) -> Check:
    return Check(check_id=check_id, target=bound if target is None else target,
                 achieved=achieved, tolerance=bound, passed=bool(achieved <= bound))


def _write_report(path: Path, scenario: Scenario, checks: list[Check],
                  started: float) -> None:
    with _Artifact(path) as fh:
        fh.write(json.dumps({"scenario": scenario.name,
                             "config": {k: scenario.params[k]
                                        for k in sorted(scenario.params)}},
                            sort_keys=True, allow_nan=False) + "\n")
        for check in checks:
            fh.write(check.as_json() + "\n")
        fh.write(json.dumps({"wall_time": time.monotonic() - started}) + "\n")


# ---------------------------------------------------------------------------
# scenario implementations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    """β, the drift and the source-type solution that seeds and checks both legs."""

    spec: NonlinearitySpec
    drift: DriftSpec
    source: closed_form.BarenblattParams

    @property
    def drift_free(self) -> bool:
        """Only then is the source-type solution the oracle for the chain and the particles."""
        return self.drift.sup_norm_E == 0

    def density(self, t: float):
        """x -> the source-type solution at time t."""
        return lambda x: closed_form.barenblatt_eval(self.source, t, x)

    def field(self, t: float, lo: float, hi: float, n_cells: int) -> GridField:
        """The source-type solution at time t, sampled at the cell centres."""
        return GridField.from_function(lo, hi, n_cells, self.density(t))


def _tanh_inward(params) -> DriftSpec:
    amp = float(params.get("drift_amplitude", 0.25))
    return DriftSpec.constant_b(
        E=lambda x: -amp * np.tanh(np.asarray(x, dtype=float)),
        b0=float(params.get("b_constant", 1.0)), sup_norm_E=amp,
        div_E_minus_sup=amp, sup_div_minus_plus_E=1.25 * amp)


# drift kind -> (its builder from the config, the config keys it reads)
_DRIFT_TABLE = {
    "zero": (lambda params: DriftSpec.zero(), ()),
    "tanh_inward": (_tanh_inward, ("drift_amplitude", "b_constant")),
}


def _build_problem(params) -> Problem:
    m = float(params["m"])
    return Problem(
        spec=NonlinearitySpec.power_law(m, zeta=float(params.get("zeta", 0.0))),
        drift=_DRIFT_TABLE[params.get("drift", "zero")][0](params),
        source=closed_form.make_barenblatt(1, m))


def _grid(params) -> tuple[float, float, int]:
    return (float(params.get("lo", -6.0)), float(params.get("hi", 6.0)),
            int(params["n_cells"]))


def _hypothesis_rows(problem: Problem, gated: bool) -> list[Check]:
    """One row per coefficient condition; ungated rows are advisory."""
    prefix = "hypothesis_" if gated else "advisory_hypothesis_"
    clauses = check_hypotheses(problem.spec, problem.drift).clauses
    return [_flag_check(prefix + name, clause["pass"], gated)
            for name, clause in sorted(clauses.items())]


def _w1_row(check_id: str, problem: Problem, positions, t: float, grid) -> Check:
    """W1 of the particles to the source-type solution at time t on grid."""
    ref = problem.field(t, *grid).normalized()
    return _bound_check(check_id, analysis.w1_distance(positions, ref), 0.05, 0.0)


def _run_barenblatt_verify(params, problem: Problem, out: Path) -> list[Check]:
    p = problem.source
    checks = []
    alpha = 1.0 / (p.m + 1.0)
    checks.append(_bound_check("alpha_formula", abs(p.alpha - alpha), 1e-15, 0.0))
    checks.append(_bound_check("k_formula", abs(p.k - alpha * (p.m - 1) / (2 * p.m)), 1e-15, 0.0))
    checks.append(_bound_check("beta_ss_formula", abs(p.beta_ss - alpha), 1e-15, 0.0))
    for t in (0.1, 1.0, 10.0):
        mass = closed_form.barenblatt_mass(p, t)
        checks.append(_bound_check(f"mass_t={t:g}", abs(mass - 1.0), 1e-9, 0.0))
    return checks


def _run_fpe(params, problem: Problem, out: Path) -> list[Check]:
    t0 = float(params["t0"])
    T_final = float(params["T"])
    grid = _grid(params)
    config = SolverConfig(lambda_step=float(params["h"]))
    nu = problem.field(t0, *grid).normalized()
    traj = step_chain(nu, T_final - t0, config, problem.spec, problem.drift)
    times, values = traj.times.tolist(), traj.values   # row i is u at times[i]

    checks = []
    masses = values.sum(axis=1) * nu.cell_width
    checks.append(_bound_check("mass_drift", float(np.max(np.abs(masses - 1.0))), 1e-8, 0.0))
    checks.append(_bound_check("min_value", max(-values.min(), 0.0), 0.0, 0.0))
    # min_value is read after the clip; this row reads the iterate before it.
    # Measured 0.0 on every CLI fpe config; the margin is the solve's
    # residual tolerance, below which the values are not resolved.
    undershoot = max(0.0, -min(info.preclip_min for info in traj.infos))
    checks.append(_bound_check("preclip_undershoot", undershoot, NEWTON_TOL, 0.0))
    checks.append(_bound_check("clipped_mass", traj.total_clipped_mass(),
                               MAX_CLIPPED_MASS, 0.0))
    c = problem.drift.combined_sup()
    # the rows are nonnegative, so their maxima are their sup norms
    linf_cap = max(m / (math.exp(math.sqrt(c) * t) * nu.linf())
                   for t, m in zip(times, values.max(axis=1).tolist()))
    linf_tol = 1.0 + 1e-6 if problem.drift_free else 1.001
    checks.append(_bound_check("linf_growth_ratio", linf_cap, linf_tol, 1.0))
    if problem.drift_free:
        # only the porous-medium equation has the entropy and closed-form oracles
        audit = entropy_audit(traj, problem.spec)
        checks.append(_bound_check("entropy_audit_max",
                                   max(r.audit_value for r in audit), 1e-6, 0.0))
        err = traj.final.l1_distance(problem.field(T_final, *grid))
        checks.append(_bound_check("l1_error_vs_closed_form", err,
                                   float(params.get("l1_tol", 0.02)), 0.0))

    if params.get("trajectory_format", "csv") == "binary":
        write_trajectory_binary(traj, out / "trajectory.bin")
    else:
        stride = max(1, len(times) // 10)
        with _Artifact(out / "trajectory.csv") as fh:
            fh.write("step,t,cell_center,value\n")
            centers = [_fmt(x) for x in nu.centers.tolist()]
            for i in range(0, len(times), stride):
                head = f"{i + 1},{_fmt(times[i])},"
                fh.write("".join([f"{head}{x},{v!r}\n" for x, v in
                                  zip(centers, values[i].tolist())]))
    return checks


def _sim_config(params, problem: Problem) -> particle_sim.SimConfig:
    """SimConfig of a particle scenario started from the source-type solution.

    The L-infinity clamp is twice the source-type solution's peak at t0.
    """
    t0 = float(params["t0"])
    return particle_sim.SimConfig(
        n_particles=int(params["n_particles"]), dt=float(params["dt"]),
        t0=t0, T=float(params["T"]), seed=int(params.get("seed", 0)),
        linf_clamp=2.0 * problem.density(t0)(problem.source.x0))


def _run_particles(params, problem: Problem, out: Path) -> list[Check]:
    dump_stride = int(params.get("dump_stride", 0))
    config = _sim_config(params, problem)
    result = particle_sim.run(config, problem.spec, problem.drift,
                              initial_density=problem.density(config.t0),
                              keep_positions=dump_stride > 0)

    checks = _hypothesis_rows(problem, gated=False)
    if problem.drift_free:
        target_var = closed_form.barenblatt_moment2(problem.source, result.times[-1])
        achieved = result.variances[-1]
        checks.append(_bound_check("variance_rel_error",
                                   abs(achieved - target_var) / target_var, 0.05, 0.0))
        checks.append(_w1_row("w1_vs_closed_form", problem, result.final.positions,
                              result.times[-1], (-6.0, 6.0, 2000)))

    with _Artifact(out / "particles.csv") as fh:
        fh.write("t,statistic,value\n")
        for t, mean, var in zip(result.times, result.means, result.variances):
            fh.write(f"{_fmt(t)},mean,{_fmt(mean)}\n")
            fh.write(f"{_fmt(t)},variance,{_fmt(var)}\n")
    if dump_stride > 0:
        with _Artifact(out / "particles_dump.csv") as fh:
            fh.write("t,particle,position\n")
            for idx in range(0, len(result.position_snapshots), dump_stride):
                head = f"{_fmt(result.times[idx])},"
                fh.write("".join([f"{head}{j},{x!r}\n" for j, x in enumerate(
                    result.position_snapshots[idx].tolist())]))
    return checks


def _run_compare(params, problem: Problem, out: Path) -> list[Check]:
    """The fpe-run checks, plus the particles' W1 row when the source-type
    solution is their oracle (drift-free); a drifted run has none yet."""
    checks = _run_fpe(params, problem, out)
    if problem.drift_free:
        config = _sim_config(params, problem)
        result = particle_sim.run(config, problem.spec, problem.drift,
                                  initial_density=problem.density(config.t0))
        checks.append(_w1_row("w1_particle_vs_closed_form", problem,
                              result.final.positions, config.T, _grid(params)))
    return checks


def _run_regularity(params, problem: Problem, out: Path) -> list[Check]:
    bb = problem.source
    m = bb.m
    p_exp = float(params["p"])
    s_max, condition = closed_form.regularity_threshold(m, p_exp)
    checks = [_flag_check("density_condition", condition, gated=False)]
    grid = np.linspace(-1.2 * bb.support_radius_t1, 1.2 * bb.support_radius_t1,
                       int(params.get("n_grid", 801)))
    profile = np.maximum(bb.C_norm - bb.k * grid**2, 0.0) ** (p_exp / (m - 1.0))
    f = analysis.SampledFunction(grid=grid, values=profile)
    rows = []
    for s in np.arange(0.1, 0.96, 0.05):
        res = analysis.gagliardo_seminorm(f, float(s), m / p_exp)
        e, integrable = closed_form.time_integrability_exponent(bb, p_exp, float(s))
        rows.append((float(s), res.value, res.converged, res.divergent, e, integrable))
        identity = bb.alpha * (m / p_exp) * (2 * p_exp / m - s)
        checks.append(_bound_check(f"exponent_identity_s={s:.2f}",
                                   abs((e + 1.0) - identity), 1e-12, 0.0))
        flip_ok = (e > -1.0) == (s < s_max)
        checks.append(_flag_check(f"integrability_flip_s={s:.2f}", flip_ok))
    with _Artifact(out / "profile.csv") as fh:
        fh.write("s,seminorm,converged,divergent,time_exponent,integrable\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return checks


def _run_coupling(params, problem: Problem, out: Path) -> list[Check]:
    config = _sim_config(params, problem)
    perturbation = float(params["perturbation"])
    records = particle_sim.coupling_experiment(
        config, problem.spec, problem.drift, perturbation,
        initial_density=problem.density(config.t0))
    checks = []
    terminal = records[-1].sup_distance
    if perturbation == 0.0:
        worst = max(r.sup_distance for r in records)
        checks.append(_bound_check("zero_perturbation_sup", worst, 0.0, 0.0))
    else:
        checks.append(_bound_check("terminal_sup_distance", terminal, 1e-2, 0.0))
    with _Artifact(out / "coupling.ndjson") as fh:
        for r in records:
            fh.write(json.dumps({"t": r.t, "sup_distance": r.sup_distance,
                                 "f_delta_mean": r.f_delta_mean},
                                sort_keys=True) + "\n")
    return checks


def _run_hypotheses(params, problem: Problem, out: Path) -> list[Check]:
    checks = _hypothesis_rows(problem, gated=True)
    lam0 = lambda_zero(problem.drift)
    checks.append(_flag_check("lambda_zero_positive", lam0 > 0))
    return checks


# optional config keys of every scenario, read by _build_problem and parse_config;
# each drift kind adds the keys _DRIFT_TABLE lists for it
_COMMON_KEYS = ("zeta", "drift", "output_dir")
_FPE_KEYS = ("lo", "hi", "l1_tol", "trajectory_format")

# scenario name -> (runner, required keys, optional keys besides _COMMON_KEYS)
# in list-scenarios order, as the README's scenario table lists them
_SCENARIO_TABLE = {
    "barenblatt-verify": (_run_barenblatt_verify, ("m",), ()),
    "fpe-run": (_run_fpe, ("m", "t0", "T", "n_cells", "h"), _FPE_KEYS),
    "particle-run": (_run_particles, ("m", "t0", "T", "n_particles", "dt"),
                     ("seed", "dump_stride")),
    "compare": (_run_compare,
                ("m", "t0", "T", "n_cells", "h", "n_particles", "dt"),
                _FPE_KEYS + ("seed",)),
    "regularity-scan": (_run_regularity, ("m", "p"), ("n_grid",)),
    "coupling": (_run_coupling,
                 ("m", "t0", "T", "n_particles", "dt", "perturbation"),
                 ("seed",)),
    "hypotheses-check": (_run_hypotheses, ("m",), ()),
}
SCENARIOS = tuple(_SCENARIO_TABLE)


def run_scenario(scenario: Scenario) -> int:
    """Execute a parsed scenario; returns the process exit code."""
    started = time.monotonic()
    out = scenario.output_dir
    out.mkdir(parents=True, exist_ok=True)
    try:
        runner = _SCENARIO_TABLE[scenario.name][0]
        checks = runner(scenario.params, _build_problem(scenario.params), out)
    except Exception as err:  # noqa: BLE001 - execution error maps to exit 1
        _write_report(out / "report.ndjson", scenario,
                      [Check("execution", 0.0, 1.0, 0.0, False)], started)
        print(f"error: {err}", file=sys.stderr)
        return 1
    _write_report(out / "report.ndjson", scenario, checks, started)
    return 0 if all(c.passed for c in checks) else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nemytskii-lab")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario config")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--output-dir", type=Path, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    sub.add_parser("list-scenarios", help="print the known scenario names")
    hyp_p = sub.add_parser("check-hypotheses", help="run only the hypotheses checks")
    hyp_p.add_argument("config", type=Path)
    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in SCENARIOS:
            print(name)
        return 0

    try:
        scenario = parse_config(args.config.read_text(encoding="utf-8"))
    except ConfigError as err:
        for problem in err.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1

    if args.command == "check-hypotheses":
        scenario = Scenario(name="hypotheses-check", params=scenario.params,
                            output_dir=scenario.output_dir)
    if getattr(args, "output_dir", None) is not None:
        scenario.output_dir = args.output_dir
    if getattr(args, "seed", None) is not None:
        scenario.params["seed"] = args.seed
    return run_scenario(scenario)


if __name__ == "__main__":
    sys.exit(main())
