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
# step_chain, entropy_audit and write_trajectory_binary are unused here; the
# traced benchmark patches them by name until ROADMAP item 1.
from .fpe_solver import (  # noqa: F401
    NEWTON_TOL,
    GridField,
    SolverConfig,
    chain_steps,
    entropy_audit,
    entropy_recorder,
    step_chain,
    trajectory_binary_writer,
    write_trajectory_binary,
)

# bound of the drift-free chain's l1_error_vs_closed_form row
L1_TOL = 0.02


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
            problem = _value_problem(key, value)
            if problem:
                raise ValueError(problem)


def _value_problem(key: str, value) -> str | None:
    """Why a config value is unusable: not finite, or a count not whole."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"{key} must be finite, got {value!r}"
    counts = ("n_cells", "n_particles", "dump_stride", "seed")  # read by int()
    if key in counts and (not isinstance(value, (int, float)) or value % 1):
        return f"{key} must be a whole number, got {value!r}"
    return None


def parse_config(text: str, overrides: dict | None = None) -> Scenario:
    """Parse flat ``key = value`` lines with # comments into a Scenario.

    Values are typed as int, then float, then bare string.  overrides (the
    command line's values) replace the file's and are checked like them.  A
    non-finite number, a count that is not whole, a key given twice and a key
    that neither the scenario nor its drift kind reads are problems; all
    problems are collected (with line numbers) before raising.
    """
    problems: list[str] = []
    params: dict = {}
    set_on: dict[str, int] = {}   # key -> the line that set it
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
        if key in set_on:
            problems.append(f"line {lineno}: key {key!r} already set on line "
                            f"{set_on[key]}")
            continue
        set_on[key] = lineno
        params[key] = _type_value(value)
        problem = _value_problem(key, params[key])
        if problem:
            problems.append(f"line {lineno}: {problem}")
    params.update(overrides or {})

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
        source=closed_form.make_barenblatt(m))


def _grid(params) -> tuple[float, float, int]:
    return (float(params.get("lo", -6.0)), float(params.get("hi", 6.0)),
            int(params["n_cells"]))


def _hypothesis_rows(problem: Problem, gated: bool) -> list[Check]:
    """One row per coefficient condition; ungated rows are advisory."""
    prefix = "hypothesis_" if gated else "advisory_hypothesis_"
    clauses = check_hypotheses(problem.spec, problem.drift)
    return [_flag_check(prefix + name, clause["pass"], gated)
            for name, clause in sorted(clauses.items())]


def _w1_row(check_id: str, problem: Problem, positions, t: float, grid) -> Check:
    """W1 of the particles to the source-type solution at time t on grid."""
    ref = problem.field(t, *grid).normalized()
    return _bound_check(check_id, analysis.w1_distance(positions, ref), 0.05, 0.0)


def _run_barenblatt_verify(params, problem: Problem, out: Path) -> list[Check]:
    """The quadrature mass of the closed-form profile, which must be 1."""
    return [_bound_check(f"mass_t={t:g}",
                         abs(closed_form.barenblatt_mass(problem.source, t) - 1.0),
                         1e-9, 0.0)
            for t in (0.1, 1.0, 10.0)]


def _run_fpe(params, problem: Problem, out: Path) -> list[Check]:
    trajectory_format = params.get("trajectory_format", "csv")
    if trajectory_format not in ("csv", "binary"):
        raise ValueError("trajectory_format must be csv or binary, "
                         f"got {trajectory_format!r}")
    t0 = float(params["t0"])
    T_final = float(params["T"])
    grid = _grid(params)
    config = SolverConfig(lambda_step=float(params["h"]))
    nu = problem.field(t0, *grid).normalized()
    n_steps, steps = chain_steps((nu,), T_final - t0, config, problem.spec,
                                 problem.drift)

    # each row is reduced, and written, as its step arrives
    dx = nu.cell_width
    growth = math.sqrt(problem.drift.growth_constant())
    nu_linf = nu.linf()
    audit = entropy_recorder(nu, problem.spec) if problem.drift.vanishes else None
    mass_drift = linf_cap = audit_max = -math.inf
    preclip_min = math.inf
    binary = trajectory_format == "binary"
    stride = max(1, n_steps // 10)   # of the CSV's steps
    with _Artifact(out / ("trajectory.bin" if binary else "trajectory.csv")) as fh:
        if binary:
            record = trajectory_binary_writer(fh.buffer, nu, n_steps)  # the binary layer
        else:
            fh.write("step,t,cell_center,value\n")
            centers = [repr(x) for x in nu.centers.tolist()]
        for step in steps:
            (info,) = step.infos
            row = info.values
            if binary:
                record(step.t, row)
            elif step.index % stride == 0:
                head = f"{step.index + 1},{step.t!r},"
                fh.write("".join([f"{head}{x},{v!r}\n" for x, v in
                                  zip(centers, row.tolist())]))
            mass_drift = max(mass_drift, abs(float(row.sum()) * dx - 1.0))
            preclip_min = min(preclip_min, info.preclip_min)
            # the rows are nonnegative, so their maxima are their sup norms
            linf_cap = max(linf_cap, float(row.max())
                           / (math.exp(growth * step.t) * nu_linf))
            if audit is not None:
                audit_max = max(audit_max, audit(step.t, row).audit_value)
    # the last step's row: the finished stream writes no buffer again
    final = GridField(nu.lo, nu.hi, row)

    checks = [_bound_check("mass_drift", mass_drift, 1e-8, 0.0)]
    # The iterates are clipped at 0, and the chain raises once the clipped
    # mass passes its budget, so nonnegativity is gated before the clip.
    # Measured 0.0 on every CLI fpe config; the margin is the solve's
    # residual tolerance, below which the values are not resolved.
    undershoot = max(0.0, -preclip_min)
    checks.append(_bound_check("preclip_undershoot", undershoot, NEWTON_TOL, 0.0))
    linf_tol = 1.0 + 1e-6 if problem.drift.vanishes else 1.001
    checks.append(_bound_check("linf_growth_ratio", linf_cap, linf_tol, 1.0))
    if problem.drift.vanishes:
        # only the porous-medium equation has the entropy and closed-form oracles
        checks.append(_bound_check("entropy_audit_max", audit_max, 1e-6, 0.0))
        err = final.l1_distance(problem.field(T_final, *grid))
        checks.append(_bound_check("l1_error_vs_closed_form", err, L1_TOL, 0.0))
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
    if dump_stride < 0:
        raise ValueError(f"dump_stride must be nonnegative, got {dump_stride}")
    config = _sim_config(params, problem)
    result = particle_sim.run(config, problem.spec, problem.drift,
                              initial_density=problem.density(config.t0),
                              keep_positions=dump_stride > 0)

    checks = _hypothesis_rows(problem, gated=False)
    if problem.drift.vanishes:
        t = result.times[-1]
        target_var = closed_form.barenblatt_moment2(problem.source, t)
        achieved = result.variances[-1]
        checks.append(_bound_check("variance_rel_error",
                                   abs(achieved - target_var) / target_var, 0.05, 0.0))
        # the reference grid spans the source-type support at time t
        half = 1.25 * problem.source.support_radius(t)
        checks.append(_w1_row("w1_vs_closed_form", problem, result.final.positions,
                              t, (-half, half, 2000)))

    with _Artifact(out / "particles.csv") as fh:
        fh.write("t,statistic,value\n")
        for t, mean, var in zip(result.times, result.means, result.variances):
            fh.write(f"{t!r},mean,{mean!r}\n")
            fh.write(f"{t!r},variance,{var!r}\n")
    if dump_stride > 0:
        with _Artifact(out / "particles_dump.csv") as fh:
            fh.write("t,particle,position\n")
            for idx in range(0, len(result.position_snapshots), dump_stride):
                head = f"{result.times[idx]!r},"
                fh.write("".join([f"{head}{j},{x!r}\n" for j, x in enumerate(
                    result.position_snapshots[idx].tolist())]))
    return checks


def _run_compare(params, problem: Problem, out: Path) -> list[Check]:
    """The fpe-run checks, plus the particles' W1 row when the source-type
    solution is their oracle (drift-free); a drifted run has none yet."""
    config = _sim_config(params, problem)   # checked before the chain writes
    checks = _run_fpe(params, problem, out)
    if problem.drift.vanishes:
        result = particle_sim.run(config, problem.spec, problem.drift,
                                  initial_density=problem.density(config.t0))
        # the particles stop at the step nearest T, as particle-run's do
        checks.append(_w1_row("w1_particle_vs_closed_form", problem,
                              result.final.positions, result.final.t, _grid(params)))
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
_FPE_KEYS = ("lo", "hi", "trajectory_format")

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
        # utf-8-sig drops a leading byte-order mark, which some editors write
        text = args.config.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        print(f"config error: {args.config}: {reason}", file=sys.stderr)
        return 1
    seed = getattr(args, "seed", None)
    try:
        scenario = parse_config(text, overrides=None if seed is None else {"seed": seed})
    except ConfigError as err:
        for problem in err.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1

    if args.command == "check-hypotheses":
        scenario = Scenario(name="hypotheses-check", params=scenario.params,
                            output_dir=scenario.output_dir)
    if getattr(args, "output_dir", None) is not None:
        scenario.output_dir = args.output_dir
    return run_scenario(scenario)


if __name__ == "__main__":
    sys.exit(main())
