"""End-to-end acceptance battery.

Each test enforces one shipping criterion at its stated tolerance and prints
a single PASS/FAIL line so the battery doubles as a human-readable report:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from nemytskii_lab.analysis import (
    SampledFunction,
    gagliardo_seminorm,
    lipschitz_estimate_check,
    maximal_function,
    w1_distance,
)
from nemytskii_lab.closed_form import (
    barenblatt_eval,
    barenblatt_mass,
    barenblatt_moment2,
    make_barenblatt,
    regularity_threshold,
    time_integrability_exponent,
)
from nemytskii_lab.coefficients import DriftSpec, NonlinearitySpec
from nemytskii_lab.fpe_solver import (
    GridField,
    SolverConfig,
    entropy_audit,
    semigroup_distance,
    step_chain,
)
from nemytskii_lab.particle_sim import SimConfig, coupling_experiment, run

SPEC2 = NonlinearitySpec.power_law(2.0)
ZERO_DRIFT = DriftSpec.zero()
P2 = make_barenblatt(2.0)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# -- 1. closed-form exactness --------------------------------------------------

def test_criterion_1_barenblatt_exactness():
    start = time.monotonic()
    p = make_barenblatt(2.0)
    exact = (abs(p.alpha - 1.0 / 3.0) <= 1e-15
             and abs(p.k - 1.0 / 12.0) <= 1e-15
             and abs(p.beta_ss - 1.0 / 3.0) <= 1e-15)
    c_err = abs(p.C_norm - 3.0 ** (1.0 / 3.0) / 4.0)
    mass_err = max(abs(barenblatt_mass(p, t) - 1.0) for t in (0.1, 1.0, 10.0))
    elapsed = time.monotonic() - start
    report("criterion 1 (closed-form exactness)",
           exact and c_err <= 1e-9 and mass_err <= 1e-9 and elapsed < 1.0,
           f"exponents exact={exact}, |C - 3^(1/3)/4|={c_err:.2e}, "
           f"mass err={mass_err:.2e}, runtime={elapsed:.2f}s")


# -- 2. scheme accuracy ----------------------------------------------------------

def _barenblatt_chain(n_cells, h):
    nu = GridField.from_function(-6, 6, n_cells,
                                 lambda x: barenblatt_eval(P2, 0.1, x)).normalized()
    traj = step_chain(nu, 0.9, SolverConfig(lambda_step=h), SPEC2, ZERO_DRIFT)
    ref = GridField.from_function(-6, 6, n_cells,
                                  lambda x: barenblatt_eval(P2, 1.0, x))
    return traj, traj.final.l1_distance(ref)


def test_criterion_2_scheme_accuracy():
    start = time.monotonic()
    _, err_coarse = _barenblatt_chain(2000, 2e-3)
    traj, err_fine = _barenblatt_chain(4000, 1e-3)
    order = math.log2(err_coarse / err_fine)
    elapsed = time.monotonic() - start
    report("criterion 2 (scheme accuracy)",
           err_fine <= 0.02 and order >= 0.5 and elapsed < 300.0,
           f"L1 error={err_fine:.5f} (tol 0.02), refinement order={order:.2f} "
           f"(>=0.5), runtime={elapsed:.0f}s")
    # stash for criterion 5
    test_criterion_2_scheme_accuracy.trajectory = traj


# -- 3. L1 contraction suite ------------------------------------------------------

def _random_probability_field(rng, n=200, lo=-3.0, hi=3.0):
    xs = np.linspace(lo, hi, n)
    v = 0.05 * np.exp(-xs**2)
    for k in range(1, 6):
        v += np.abs(rng.normal()) * np.cos(k * xs + rng.uniform(0, 2 * np.pi)) ** 2 \
            * np.exp(-xs**2)
    return GridField(lo, hi, v).normalized()


def test_criterion_3_contraction_suite():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    cfg = SolverConfig(lambda_step=5e-3)
    worst = 0.0
    for _ in range(50):
        a = _random_probability_field(rng)
        b = _random_probability_field(rng)
        ratio = semigroup_distance(a, b, 0.05, cfg, SPEC2, ZERO_DRIFT)
        worst = max(worst, ratio)
    elapsed = time.monotonic() - start
    report("criterion 3 (L1 contraction suite)",
           worst <= 1.0 + 1e-6 and elapsed < 600.0,
           f"worst ratio={worst:.12f} over 50 pairs (tol 1+1e-6), runtime={elapsed:.0f}s")


# -- 4. sup-norm growth bound ------------------------------------------------------

def test_criterion_4_linf_bound():
    amp = 0.25
    # inward tanh field: sup of (div E)^- + |E| is 1.25*amp, attained where
    # tanh = 1/2; both pieces are known in closed form
    drift = DriftSpec.constant_b(
        E=lambda x: -amp * np.tanh(np.asarray(x, dtype=float)),
        b0=1.0, sup_norm_E=amp, div_E_minus_sup=amp,
        sup_div_minus_plus_E=1.25 * amp)
    nu = GridField.from_function(
        -6, 6, 1000, lambda x: np.exp(-x * x / 2) / math.sqrt(2 * math.pi)).normalized()
    traj = step_chain(nu, 1.0, SolverConfig(lambda_step=1e-3), SPEC2, drift)
    c = drift.combined_sup()
    worst_drift = max(row.max() / (math.exp(math.sqrt(c) * t) * nu.linf())
                      for t, row in zip(traj.times, traj.values))

    traj0 = step_chain(nu, 0.3, SolverConfig(lambda_step=1e-3), SPEC2, ZERO_DRIFT)
    worst_free = traj0.values.max() / nu.linf()
    report("criterion 4 (sup-norm bound)",
           worst_drift <= 1.001 and worst_free <= 1.0 + 1e-6,
           f"drifted ratio={worst_drift:.6f} (tol 1.001), "
           f"drift-free ratio={worst_free:.9f} (tol 1+1e-6)")
    test_criterion_4_linf_bound.trajectory = traj


# -- 5. conservation and positivity -------------------------------------------------

def test_criterion_5_mass_and_positivity():
    traj2 = getattr(test_criterion_2_scheme_accuracy, "trajectory", None)
    traj4 = getattr(test_criterion_4_linf_bound, "trajectory", None)
    assert traj2 is not None and traj4 is not None, "criteria 2 and 4 must run first"
    worst_mass = 0.0
    worst_min = 0.0
    clipped = 0.0
    for traj in (traj2, traj4):
        masses = traj.values.sum(axis=1) * traj.initial.cell_width
        worst_mass = max(worst_mass, float(np.max(np.abs(masses - 1.0))))
        worst_min = min(worst_min, float(traj.values.min()))
        clipped = max(clipped, sum(info.clipped_mass for info in traj.infos))
    report("criterion 5 (mass and positivity)",
           worst_mass <= 1e-8 and worst_min >= 0.0 and clipped <= 1e-6,
           f"mass drift={worst_mass:.2e} (tol 1e-8), min value={worst_min:.2e}, "
           f"clipped mass={clipped:.2e} (tol 1e-6)")


# -- 6. entropy audit ------------------------------------------------------------

def test_criterion_6_entropy_audit():
    nu = GridField.from_function(
        -6, 6, 800, lambda x: np.exp(-x * x / 2) / math.sqrt(2 * math.pi)).normalized()
    traj = step_chain(nu, 0.5, SolverConfig(lambda_step=2e-3), SPEC2, ZERO_DRIFT)
    records = entropy_audit(traj, SPEC2)
    worst = max(r.audit_value for r in records)
    report("criterion 6 (entropy audit)", worst <= 1e-6,
           f"max audit value={worst:.3e} (tol +1e-6) over {len(records)} steps")


# -- 7. particle marginals ----------------------------------------------------------

def test_criterion_7_particle_marginals():
    start = time.monotonic()
    t0 = 0.1
    cfg = SimConfig(n_particles=100_000, dt=1e-3, t0=t0, T=1.0, seed=20240811,
                    linf_clamp=2.0 * P2.C_norm * t0 ** (-P2.alpha))
    res = run(cfg, SPEC2, ZERO_DRIFT,
              initial_density=lambda x: barenblatt_eval(P2, t0, x),
              snapshot_times=np.linspace(t0, 1.0, 19)[1:])
    target = 3.0 ** (4.0 / 3.0) / 5.0
    var_rel = abs(res.variances[-1] - target) / target
    # least-squares slope of ln(variance) against ln(t)
    slope = float(np.polyfit(np.log(res.times), np.log(res.variances), 1)[0])
    ref = GridField.from_function(-6, 6, 2000,
                                  lambda x: barenblatt_eval(P2, 1.0, x)).normalized()
    w1 = w1_distance(res.final.positions, ref)
    elapsed = time.monotonic() - start
    report("criterion 7 (particle marginals)",
           var_rel <= 0.05 and w1 <= 0.05 and abs(slope - 2.0 / 3.0) <= 0.05
           and elapsed < 600.0,
           f"variance rel err={var_rel:.4f} (tol 0.05), W1={w1:.4f} (tol 0.05), "
           f"log-log slope={slope:.4f} (2/3 +- 0.05), runtime={elapsed:.0f}s")


# -- 8. coupling determinism -----------------------------------------------------------

def test_criterion_8_coupling():
    t0 = 0.1
    dens = lambda x: barenblatt_eval(P2, t0, x)
    clamp = 2.0 * P2.C_norm * t0 ** (-P2.alpha)

    cfg_zero = SimConfig(n_particles=20_000, dt=1e-3, t0=t0, T=1.0, seed=7,
                         linf_clamp=clamp)
    rec_zero = coupling_experiment(cfg_zero, SPEC2, ZERO_DRIFT, 0.0, dens)
    zero_exact = max(r.sup_distance for r in rec_zero) == 0.0

    cfg = SimConfig(n_particles=100_000, dt=1e-3, t0=t0, T=1.0, seed=7,
                    linf_clamp=clamp)
    rec = coupling_experiment(cfg, SPEC2, ZERO_DRIFT, 1e-8, dens)
    terminal = rec[-1].sup_distance
    # recorded bound from the frozen-seed run: 4.68e-8 at this configuration
    report("criterion 8 (coupling determinism)",
           zero_exact and terminal <= 1e-2,
           f"zero-perturbation sup identically 0: {zero_exact}, "
           f"terminal sup at 1e-8 kick = {terminal:.3e} (tol 1e-2)")


# -- 9. fractional regularity dichotomy ----------------------------------------------

def test_criterion_9_regularity_dichotomy():
    R = P2.support_radius_t1
    grid = np.linspace(-1.2 * R, 1.2 * R, 801)
    profile = np.maximum(P2.C_norm - P2.k * grid**2, 0.0)
    f = SampledFunction(grid=grid, values=profile)
    stable = True
    for s in np.arange(0.1, 0.951, 0.05):
        res = gagliardo_seminorm(f, float(s), 2.0)
        stable = stable and res.converged and not res.divergent

    rng = np.random.default_rng(99)
    flip_exact = True
    identity_err = 0.0
    for _ in range(100):
        m = rng.uniform(1.1, 5.0)
        pw = rng.uniform(0.1, m)
        s = rng.uniform(0.0, 2.5)
        p = make_barenblatt(m)
        s_max, _ = regularity_threshold(m, pw)
        e, integrable = time_integrability_exponent(p, pw, s)
        identity_err = max(identity_err,
                           abs((e + 1.0) - p.alpha * (m / pw) * (s_max - s)))
        if abs(s - s_max) > 1e-9:
            flip_exact = flip_exact and (integrable == (s < s_max))
    e_boundary, _ = time_integrability_exponent(P2, 1.0, 1.0)
    boundary_exact = abs(e_boundary + 1.0) <= 1e-12
    report("criterion 9 (regularity dichotomy)",
           stable and flip_exact and boundary_exact and identity_err <= 1e-12,
           f"seminorm refinement-stable on s in [0.1,0.95]: {stable}, "
           f"integrability flips at s=2p/m: {flip_exact}, "
           f"identity residual={identity_err:.1e} (tol 1e-12)")


# -- 10. maximal-function suite ---------------------------------------------------------

def test_criterion_10_maximal_suite():
    dx = 0.01
    grid = -2.0 + (np.arange(600) + 0.5) * dx
    const = SampledFunction(grid=grid, values=np.full(600, 2.5))
    c_err = abs(maximal_function(const, math.inf, 0.3) - 2.5)
    indicator = SampledFunction(grid=grid, values=((grid > 0) & (grid < 1)).astype(float))
    # cell edges sit on integer multiples of dx, so the r = 2 window tiles [0, 1]
    i_err_edge = abs(maximal_function(indicator, math.inf, 2.0) - 0.25)

    violations = 0
    worst = 0.0
    rng = np.random.default_rng(31)
    for seed in range(100):
        n = 512
        h = 4.0 / n
        g = -2.0 + (np.arange(n) + 0.5) * h
        slopes = rng.normal(size=n) * rng.integers(0, 2, size=n)
        values = np.concatenate([[0.0], np.cumsum(slopes[:-1] * h)])
        f = SampledFunction(grid=g, values=values, derivative_values=slopes)
        idx = rng.integers(0, n, size=(100, 2))
        pairs = [(float(g[i]), float(g[j])) for i, j in idx if i != j]
        rep = lipschitz_estimate_check(f, pairs, math.inf)
        violations += rep.violations
        worst = max(worst, rep.max_ratio)
    report("criterion 10 (maximal-function suite)",
           i_err_edge <= 1e-6 and c_err <= 1e-6 and violations == 0,
           f"constant case err={c_err:.1e}, indicator case err={i_err_edge:.1e} "
           f"(tol 1e-6), pair-estimate violations={violations}/10000, "
           f"max ratio={worst:.3f}")
