"""Spans around the calls one nemytskii_lab module makes into another.

``instrumented`` swaps the public names a module calls in another module (and
the scipy banded solve as fpe_solver calls it) for traced wrappers and puts
the originals back on exit; nothing under src/ changes.  Private helpers such
as ``_apply_operator``, ``_jacobian_bands`` and ``_noise_block`` stay
unwrapped, so their time is the self time of the public caller.  Layers are
named after the defining module.
"""

from __future__ import annotations

import numpy as np

from nemytskii_lab import analysis, cli, closed_form, fpe_solver, particle_sim

from spans import SpanRecorder, summarize
from workloads import patched

# coefficient functions whose calls are counted per element
COEFFICIENTS = ("beta_tilde_epsilon", "beta_tilde_epsilon_prime", "cutoff_E",
                "entropy_Psi", "sigma_squared", "mollified_b",
                "mollified_b_prime")

# the counters that must repeat exactly between two traced operations
EXACT_COUNTERS = ("fpe_solver.newton_iters", "fpe_solver.residual_evals",
                  "fpe_solver.solve_banded.calls",
                  "particle_sim.density_lookup.calls",
                  "particle_sim.density_lookup.points",
                  "particle_sim.lookup_useful_ratio")


def _count_elems(name):
    def tally(rec, args, result):
        rec.add(name + ".elems", np.size(args[-1]))
    return tally


def _count_newton(rec, args, result):
    rec.add("fpe_solver.newton_iters", result.newton_iters)


def _trace_lookups(rec, evaluate):
    """Trace the evaluator a frozen density returns.

    A lookup is useful when its query array is a different object from every
    earlier query of the same frozen density; repeating the lookup on the same
    positions is the waste the ratio measures.
    """
    seen: list = []
    traced = rec.wrap(evaluate, "particle_sim.density_lookup")

    def lookup(x):
        rec.add("particle_sim.density_lookup.points", np.size(x))
        if not any(x is prev for prev in seen):
            seen.append(x)
            rec.add("particle_sim.density_lookup.distinct")
        return traced(x)

    return lookup


def _wrap_frozen(rec, frozen_density):
    traced = rec.wrap(frozen_density, "particle_sim.frozen_density")

    def build(*args, **kwargs):
        return _trace_lookups(rec, traced(*args, **kwargs))

    return build


def _handover_pool(rec):
    base = fpe_solver.ThreadPoolExecutor

    class HandoverPool(base):
        """Runs each task under the span that was open when it was submitted."""

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(rec.adopt, rec.current(), fn, *args, **kwargs)

    return HandoverPool


def _targets(rec):
    """(owner, attribute, replacement) for every traced name."""
    out = []

    def trace(owner, attr, layer, tally=None):
        out.append((owner, attr, rec.wrap(getattr(owner, attr),
                                          f"{layer}.{attr}", tally)))

    # fpe_solver and what it calls in coefficients and scipy
    trace(fpe_solver, "resolvent_solve", "fpe_solver", _count_newton)
    trace(fpe_solver, "step_chain", "fpe_solver")
    trace(fpe_solver, "semigroup_distance", "fpe_solver")
    trace(fpe_solver, "solve_banded", "fpe_solver")
    trace(fpe_solver, "lambda_zero", "coefficients")
    for name in COEFFICIENTS:
        if name != "sigma_squared":  # the one particle_sim imports instead
            trace(fpe_solver, name, "coefficients",
                  _count_elems(f"coefficients.{name}"))
    out.append((fpe_solver, "ThreadPoolExecutor", _handover_pool(rec)))

    # particle_sim and what it calls in coefficients and analysis
    out.append((particle_sim, "frozen_density",
                _wrap_frozen(rec, particle_sim.frozen_density)))
    trace(particle_sim, "em_step", "particle_sim")
    trace(particle_sim, "seed_from_density", "particle_sim")
    trace(particle_sim, "run", "particle_sim")
    trace(particle_sim, "coupling_experiment", "particle_sim")
    trace(particle_sim, "sigma_squared", "coefficients",
          _count_elems("coefficients.sigma_squared"))
    trace(particle_sim, "w1_distance", "analysis")

    # what cli calls, by name or through a module attribute
    trace(cli, "run_scenario", "cli")
    trace(cli, "step_chain", "fpe_solver")
    trace(cli, "entropy_audit", "fpe_solver")
    trace(cli, "write_trajectory_binary", "fpe_solver")
    trace(cli, "check_hypotheses", "coefficients")
    trace(cli, "lambda_zero", "coefficients")
    trace(closed_form, "make_barenblatt", "closed_form")
    trace(closed_form, "barenblatt_eval", "closed_form")
    trace(closed_form, "barenblatt_moment2", "closed_form")
    trace(analysis, "w1_distance", "analysis")
    return out


def instrumented(rec: SpanRecorder):
    return patched(_targets(rec))


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics of one traced operation; 0 where a layer did not run."""
    rows = summarize(rec.spans)
    c = rec.counters

    def row(name):
        return rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    out: dict[str, float] = {}
    solves = row("fpe_solver.resolvent_solve")
    residuals = row("coefficients.beta_tilde_epsilon")["calls"]
    iters = c["fpe_solver.newton_iters"]
    out["fpe_solver.resolvent_solve.calls"] = solves["calls"]
    out["fpe_solver.resolvent_solve.self_s"] = solves["self_s"]
    out["fpe_solver.newton_iters"] = iters
    out["fpe_solver.residual_evals"] = residuals
    trials = residuals - solves["calls"]
    out["fpe_solver.linesearch_accept_ratio"] = iters / trials if trials else 0.0
    out["fpe_solver.solve_banded.calls"] = row("fpe_solver.solve_banded")["calls"]
    out["fpe_solver.solve_banded.s"] = row("fpe_solver.solve_banded")["s"]
    out["fpe_solver.step_chain.self_s"] = row("fpe_solver.step_chain")["self_s"]
    out["fpe_solver.semigroup_distance.self_s"] = \
        row("fpe_solver.semigroup_distance")["self_s"]
    out["fpe_solver.entropy_audit.s"] = row("fpe_solver.entropy_audit")["s"]

    for name in COEFFICIENTS:
        key = f"coefficients.{name}"
        r = row(key)
        elems = c[key + ".elems"]
        out[key + ".calls"] = r["calls"]
        out[key + ".s"] = r["s"]
        out[key + ".ns_per_elem"] = r["s"] * 1e9 / elems if elems else 0.0

    lookups = row("particle_sim.density_lookup")
    out["particle_sim.density_lookup.calls"] = lookups["calls"]
    out["particle_sim.density_lookup.s"] = lookups["s"]
    out["particle_sim.density_lookup.points"] = c["particle_sim.density_lookup.points"]
    distinct = c["particle_sim.density_lookup.distinct"]
    out["particle_sim.lookup_useful_ratio"] = \
        distinct / lookups["calls"] if lookups["calls"] else 0.0
    out["particle_sim.frozen_density.s"] = row("particle_sim.frozen_density")["s"]
    out["particle_sim.em_step.self_s"] = row("particle_sim.em_step")["self_s"]
    out["particle_sim.seed_from_density.s"] = row("particle_sim.seed_from_density")["s"]
    out["particle_sim.run.self_s"] = row("particle_sim.run")["self_s"]
    out["particle_sim.coupling_experiment.self_s"] = \
        row("particle_sim.coupling_experiment")["self_s"]

    out["analysis.w1_distance.s"] = row("analysis.w1_distance")["s"]
    out["closed_form.barenblatt_eval.calls"] = row("closed_form.barenblatt_eval")["calls"]
    out["closed_form.barenblatt_eval.s"] = row("closed_form.barenblatt_eval")["s"]
    out["cli.run_scenario.self_s"] = row("cli.run_scenario")["self_s"]
    return out
