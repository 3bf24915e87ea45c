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
    GridField,
    SolverConfig,
    entropy_audit,
    step_chain,
    write_trajectory_binary,
)

SCENARIOS = (
    "barenblatt-verify",
    "fpe-run",
    "particle-run",
    "compare",
    "regularity-scan",
    "coupling",
    "hypotheses-check",
)

_REQUIRED_KEYS = {
    "barenblatt-verify": ("m",),
    "fpe-run": ("m", "t0", "T", "n_cells", "h"),
    "particle-run": ("m", "t0", "T", "n_particles", "dt"),
    "compare": ("m", "t0", "T", "n_cells", "h", "n_particles", "dt"),
    "regularity-scan": ("m", "p"),
    "coupling": ("m", "t0", "T", "n_particles", "dt", "perturbation"),
    "hypotheses-check": ("m",),
}


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


def parse_config(text: str) -> Scenario:
    """Parse flat ``key = value`` lines with # comments into a Scenario.

    Values are typed as int, then float, then bare string.  All problems are
    collected (with line numbers) before raising.
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

    name = params.pop("scenario", None)
    if name is None:
        problems.append("missing required key 'scenario'")
    elif name not in SCENARIOS:
        problems.append(
            f"unknown scenario {name!r}; allowed: {', '.join(SCENARIOS)}")
    if name in _REQUIRED_KEYS:
        for key in _REQUIRED_KEYS[name]:
            if key not in params:
                problems.append(f"scenario {name}: missing required key {key!r}")
    if "m" in params:
        m = params["m"]
        if not isinstance(m, (int, float)) or m <= 1:
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
                            sort_keys=True) + "\n")
        for check in checks:
            fh.write(check.as_json() + "\n")
        fh.write(json.dumps({"wall_time": time.monotonic() - started}) + "\n")


# ---------------------------------------------------------------------------
# scenario implementations
# ---------------------------------------------------------------------------

def _power_spec(params) -> NonlinearitySpec:
    return NonlinearitySpec.power_law(float(params["m"]),
                                      zeta=float(params.get("zeta", 0.0)))


def _drift_from(params) -> DriftSpec:
    kind = params.get("drift", "zero")
    if kind == "zero":
        return DriftSpec.zero()
    if kind == "tanh_inward":
        amp = float(params.get("drift_amplitude", 0.25))
        b0 = float(params.get("b_constant", 1.0))
        return DriftSpec.constant_b(
            E=lambda x: -amp * np.tanh(np.asarray(x, dtype=float)),
            b0=b0, sup_norm_E=amp, div_E_minus_sup=amp,
            sup_div_minus_plus_E=1.25 * amp)
    raise ConfigError([f"unknown drift {kind!r}"])


def _run_barenblatt_verify(scenario: Scenario, out: Path) -> list[Check]:
    params = scenario.params
    m = float(params["m"])
    p = closed_form.make_barenblatt(1, m)
    checks = []
    alpha = 1.0 / (m + 1.0)
    checks.append(_bound_check("alpha_formula", abs(p.alpha - alpha), 1e-15, 0.0))
    checks.append(_bound_check("k_formula", abs(p.k - alpha * (m - 1) / (2 * m)), 1e-15, 0.0))
    checks.append(_bound_check("beta_ss_formula", abs(p.beta_ss - alpha), 1e-15, 0.0))
    for t in (0.1, 1.0, 10.0):
        mass = closed_form.barenblatt_mass(p, t)
        checks.append(_bound_check(f"mass_t={t:g}", abs(mass - 1.0), 1e-9, 0.0))
    n_profile = int(params.get("profile_samples", 0))
    if n_profile > 0:
        with _Artifact(out / "profile.csv") as fh:
            fh.write("t,x,u\n")
            for t in (0.1, 1.0, 10.0):
                R = p.support_radius(t)
                for x in np.linspace(p.x0 - 1.2 * R, p.x0 + 1.2 * R, n_profile):
                    fh.write(f"{_fmt(t)},{_fmt(float(x))},"
                             f"{_fmt(closed_form.barenblatt_eval(p, t, float(x)))}\n")
    return checks


def _seed_field(p, t0: float, lo: float, hi: float, n_cells: int) -> GridField:
    fld = GridField.from_function(lo, hi, n_cells,
                                  lambda x: closed_form.barenblatt_eval(p, t0, x))
    return fld.normalized()


def _run_fpe(scenario: Scenario, out: Path) -> list[Check]:
    params = scenario.params
    spec = _power_spec(params)
    drift = _drift_from(params)
    p = closed_form.make_barenblatt(1, spec.m)
    t0 = float(params["t0"])
    T_final = float(params["T"])
    lo = float(params.get("lo", -6.0))
    hi = float(params.get("hi", 6.0))
    n_cells = int(params["n_cells"])
    config = SolverConfig(lambda_step=float(params["h"]),
                          epsilon_reg=float(params.get("epsilon_reg", 1e-12)))
    nu = _seed_field(p, t0, lo, hi, n_cells)
    traj = step_chain(nu, T_final - t0, config, spec, drift)

    checks = []
    masses = [f.mass() for f in traj.fields]
    checks.append(_bound_check("mass_drift", max(abs(m - 1.0) for m in masses), 1e-8, 0.0))
    checks.append(_bound_check("min_value", max(-min(f.values.min() for f in traj.fields), 0.0), 0.0, 0.0))
    # min_value is read after the clip; this row reads the iterate before it.
    # Measured 0.0 on every CLI fpe config; the margin is the solve's
    # residual tolerance, below which the values are not resolved.
    undershoot = max(0.0, -min(info.preclip_min for info in traj.infos))
    checks.append(_bound_check("preclip_undershoot", undershoot,
                               config.newton_tol, 0.0))
    checks.append(_bound_check("clipped_mass", traj.total_clipped_mass(), 1e-6, 0.0))
    c = drift.combined_sup()
    linf_cap = max(f.linf() / (math.exp(math.sqrt(c) * t) * nu.linf())
                   for t, f in zip(traj.times, traj.fields))
    linf_tol = 1.0 + 1e-6 if drift.sup_norm_E == 0 else 1.001
    checks.append(_bound_check("linf_growth_ratio", linf_cap, linf_tol, 1.0))
    if drift.sup_norm_E == 0:
        audit = entropy_audit(traj, spec)
        checks.append(_bound_check("entropy_audit_max",
                                   max(r.audit_value for r in audit), 1e-6, 0.0))
    if params.get("drift", "zero") == "zero":
        ref = GridField.from_function(
            lo, hi, n_cells, lambda x: closed_form.barenblatt_eval(p, T_final, x))
        err = traj.final.l1_distance(ref)
        checks.append(_bound_check("l1_error_vs_closed_form", err,
                                   float(params.get("l1_tol", 0.02)), 0.0))

    if params.get("trajectory_format", "csv") == "binary":
        write_trajectory_binary(traj, out / "trajectory.bin")
    else:
        stride = int(params.get("snapshot_stride", max(1, len(traj.fields) // 10)))
        with _Artifact(out / "trajectory.csv") as fh:
            fh.write("step,t,cell_center,value\n")
            centers = nu.centers
            for i in range(0, len(traj.fields), stride):
                fld = traj.fields[i]
                for x, v in zip(centers, fld.values):
                    fh.write(f"{i + 1},{_fmt(traj.times[i])},{_fmt(float(x))},{_fmt(float(v))}\n")
    return checks


def _particle_setup(params, p, coupling_delta: float = 1e-6):
    """SimConfig of a particle scenario and its Barenblatt density at t0.

    The L-infinity clamp is twice the source-type solution's peak at t0.
    """
    t0 = float(params["t0"])
    config = particle_sim.SimConfig(
        n_particles=int(params["n_particles"]), dt=float(params["dt"]),
        t0=t0, T=float(params["T"]), seed=int(params.get("seed", 0)),
        coupling_delta=coupling_delta,
        linf_clamp=2.0 * p.C_norm * t0 ** (-p.alpha))
    return config, lambda x: closed_form.barenblatt_eval(p, t0, x)


def _run_particles(scenario: Scenario, out: Path) -> list[Check]:
    params = scenario.params
    spec = _power_spec(params)
    drift = _drift_from(params)
    p = closed_form.make_barenblatt(1, spec.m)
    dump_stride = int(params.get("dump_stride", 0))
    config, initial = _particle_setup(params, p)
    result = particle_sim.run(config, spec, drift, initial_density=initial,
                              keep_positions=dump_stride > 0)

    # advisory coefficient-condition rows; they never gate the exit code
    checks = [Check(f"advisory_hypothesis_{name}", 1.0,
                    1.0 if clause["pass"] else 0.0, 0.0, True)
              for name, clause in sorted(check_hypotheses(spec, drift).clauses.items())]
    target_var = closed_form.barenblatt_moment2(p, result.times[-1])
    achieved = result.variances[-1]
    checks.append(_bound_check("variance_rel_error",
                               abs(achieved - target_var) / target_var, 0.05, 0.0))
    w1 = analysis.w1_distance(
        result.final.positions,
        GridField.from_function(-6.0, 6.0, 2000,
                                lambda x: closed_form.barenblatt_eval(
                                    p, result.times[-1], x)).normalized())
    checks.append(_bound_check("w1_vs_closed_form", w1, 0.05, 0.0))

    with _Artifact(out / "particles.csv") as fh:
        fh.write("t,statistic,value\n")
        for t, mean, var in zip(result.times, result.means, result.variances):
            fh.write(f"{_fmt(t)},mean,{_fmt(mean)}\n")
            fh.write(f"{_fmt(t)},variance,{_fmt(var)}\n")
    if dump_stride > 0:
        with _Artifact(out / "particles_dump.csv") as fh:
            fh.write("t,particle,position\n")
            for idx in range(0, len(result.position_snapshots), dump_stride):
                t = result.times[idx]
                for j, pos in enumerate(result.position_snapshots[idx]):
                    fh.write(f"{_fmt(t)},{j},{_fmt(float(pos))}\n")
    return checks


def _run_compare(scenario: Scenario, out: Path) -> list[Check]:
    checks = _run_fpe(scenario, out)
    params = scenario.params
    spec = _power_spec(params)
    p = closed_form.make_barenblatt(1, spec.m)
    config, initial = _particle_setup(params, p)
    result = particle_sim.run(config, spec, _drift_from(params),
                              initial_density=initial)
    ref = GridField.from_function(
        float(params.get("lo", -6.0)), float(params.get("hi", 6.0)),
        int(params["n_cells"]),
        lambda x: closed_form.barenblatt_eval(p, config.T, x)).normalized()
    checks.append(_bound_check(
        "w1_particle_vs_closed_form",
        analysis.w1_distance(result.final.positions, ref), 0.05, 0.0))
    return checks


def _run_regularity(scenario: Scenario, out: Path) -> list[Check]:
    params = scenario.params
    m = float(params["m"])
    p_exp = float(params["p"])
    bb = closed_form.make_barenblatt(1, m)
    s_max, condition = closed_form.regularity_threshold(m, p_exp)
    checks = [Check("density_condition", 1.0, 1.0 if condition else 0.0,
                    0.0, True)]
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
        checks.append(Check(f"integrability_flip_s={s:.2f}", 1.0,
                            1.0 if flip_ok else 0.0, 0.0, flip_ok))
    with _Artifact(out / "profile.csv") as fh:
        fh.write("s,seminorm,converged,divergent,time_exponent,integrable\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return checks


def _run_coupling(scenario: Scenario, out: Path) -> list[Check]:
    params = scenario.params
    spec = _power_spec(params)
    p = closed_form.make_barenblatt(1, spec.m)
    config, initial = _particle_setup(
        params, p, coupling_delta=float(params.get("delta", 1e-6)))
    perturbation = float(params["perturbation"])
    records = particle_sim.coupling_experiment(
        config, spec, _drift_from(params), perturbation,
        initial_density=initial)
    checks = []
    terminal = records[-1].sup_distance
    if perturbation == 0.0:
        worst = max(r.sup_distance for r in records)
        checks.append(_bound_check("zero_perturbation_sup", worst, 0.0, 0.0))
    else:
        checks.append(_bound_check("terminal_sup_distance", terminal,
                                   float(params.get("sup_bound", 1e-2)), 0.0))
    with _Artifact(out / "coupling.ndjson") as fh:
        for r in records:
            fh.write(json.dumps({"t": r.t, "sup_distance": r.sup_distance,
                                 "f_delta_mean": r.f_delta_mean},
                                sort_keys=True) + "\n")
    return checks


def _run_hypotheses(scenario: Scenario, out: Path) -> list[Check]:
    params = scenario.params
    spec = _power_spec(params)
    drift = _drift_from(params)
    report = check_hypotheses(spec, drift)
    checks = [Check(f"hypothesis_{name}", 1.0, 1.0 if clause["pass"] else 0.0,
                    0.0, clause["pass"])
              for name, clause in sorted(report.clauses.items())]
    lam0 = lambda_zero(drift)
    checks.append(Check("lambda_zero_positive", 1.0,
                        1.0 if lam0 > 0 else 0.0, 0.0, lam0 > 0))
    return checks


_RUNNERS = {
    "barenblatt-verify": _run_barenblatt_verify,
    "fpe-run": _run_fpe,
    "particle-run": _run_particles,
    "compare": _run_compare,
    "regularity-scan": _run_regularity,
    "coupling": _run_coupling,
    "hypotheses-check": _run_hypotheses,
}


def run_scenario(scenario: Scenario) -> int:
    """Execute a parsed scenario; returns the process exit code."""
    started = time.monotonic()
    out = scenario.output_dir
    out.mkdir(parents=True, exist_ok=True)
    try:
        checks = _RUNNERS[scenario.name](scenario, out)
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
