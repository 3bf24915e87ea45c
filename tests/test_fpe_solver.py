import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from nemytskii_lab import fpe_solver
from nemytskii_lab.closed_form import barenblatt_eval, make_barenblatt
from nemytskii_lab.coefficients import (
    DriftSpec,
    NonlinearitySpec,
    entropy_Psi,
    lambda_zero,
)
from nemytskii_lab.fpe_solver import (
    ChainStep,
    GridField,
    ResolventSolution,
    SolverConfig,
    SolverError,
    Trajectory,
    _Operator,
    chain_steps,
    entropy_audit,
    resolvent_solve,
    semigroup_distance,
    step_chain,
)

SPEC = NonlinearitySpec.power_law(2.0)
ZERO_DRIFT = DriftSpec.zero()
P2 = make_barenblatt(2.0)


def gaussian_field(n=512, lo=-6.0, hi=6.0, sigma=1.0):
    return GridField.from_function(
        lo, hi, n, lambda x: np.exp(-x * x / (2 * sigma**2)) / math.sqrt(2 * math.pi * sigma**2))


def random_smooth_field(seed, n=256, lo=-3.0, hi=3.0):
    rng = np.random.default_rng(seed)
    xs = np.linspace(lo, hi, n)
    v = 0.05 * np.exp(-xs**2)
    for k in range(1, 6):
        v += np.abs(rng.normal()) * np.cos(k * xs + rng.uniform(0, 2 * np.pi)) ** 2 * np.exp(-xs**2)
    return GridField(lo, hi, v).normalized()


def tanh_drift(amp):
    return DriftSpec.constant_b(
        E=lambda x: -amp * np.tanh(np.asarray(x, dtype=float)),
        b0=1.0, sup_norm_E=amp, div_E_minus_sup=amp,
        sup_div_minus_plus_E=1.25 * amp)


def saturating_drift(amp):
    # the tanh field with the Nemytskii response b(r) = r/(1 + |r|), whose
    # (b(r) r)' = r(2 + r)/(1 + r)^2 is >= 0 for r >= 0
    return DriftSpec(
        E=lambda x: -amp * np.tanh(np.asarray(x, dtype=float)),
        b=lambda r: np.asarray(r, dtype=float) / (1.0 + np.abs(r)),
        sup_norm_E=amp, sup_norm_b=1.0, div_E_minus_sup=amp,
        sup_div_minus_plus_E=1.25 * amp)


def apply_alone(op, u):
    """A(u) of op, an operator of one row, on a row u of the whole grid."""
    op.jacobian(1e-3, u.size)
    return op.apply(u, np.empty(u.size))


def barenblatt_field(t, n=500, lo=-6.0, hi=6.0):
    return GridField.from_function(lo, hi, n, lambda x: barenblatt_eval(P2, t, x)).normalized()


# -- GridField ----------------------------------------------------------------

def test_grid_field_validation():
    with pytest.raises(ValueError, match="16"):
        GridField(0, 1, np.ones(8))
    with pytest.raises(ValueError, match="nonnegative"):
        GridField(0, 1, np.linspace(-1, 1, 32))
    f = GridField(0, 2, np.ones(16))
    assert f.cell_width == pytest.approx(0.125)
    assert f.mass() == pytest.approx(2.0)


# -- resolvent ----------------------------------------------------------------

def test_resolvent_zero_input():
    f = GridField(-3, 3, np.zeros(64))
    sol = resolvent_solve(f, 1e-3, SPEC, ZERO_DRIFT)
    assert np.all(sol.values == 0.0)


def test_resolvent_mass_conservation():
    f = gaussian_field()
    sol = resolvent_solve(f, 1e-3, SPEC, ZERO_DRIFT)
    # independent summation oracle
    oracle_in = math.fsum(f.values) * f.cell_width
    oracle_out = math.fsum(sol.values) * f.cell_width
    assert abs(oracle_out - oracle_in) <= 1e-10
    assert sol.residual_l1 <= 1e-12


def test_resolvent_l1_contraction_pair():
    a, b = random_smooth_field(1), random_smooth_field(2)
    sa = resolvent_solve(a, 1e-3, SPEC, ZERO_DRIFT)
    sb = resolvent_solve(b, 1e-3, SPEC, ZERO_DRIFT)
    assert replace(a, values=sa.values).l1_distance(replace(b, values=sb.values)) \
        <= a.l1_distance(b) + 1e-10


def test_resolvent_nonnegativity():
    for seed in range(5):
        f = random_smooth_field(seed)
        sol = resolvent_solve(f, 5e-3, SPEC, ZERO_DRIFT)
        assert sol.values.min() >= 0.0
        assert sol.clipped_mass <= 1e-12
        assert sol.preclip_min >= 0.0


def test_newton_clips_a_negative_cell_and_reports_the_clipped_mass():
    # one negative cell of f in the vacuum stays negative through the solve
    # (measured preclip_min -0.049); the clip at 0 must remove it and report
    # its mass.  The solve conserves mass up to its L1 residual, so the mass
    # before the clip, sum(out) dx - clipped_mass, is f's to that and roundoff.
    grid = GridField(-3.0, 3.0, np.zeros(64))
    f = np.maximum(1.0 - grid.centers**2, 0.0)
    f[56] = -0.05
    out = np.empty(grid.n_cells)
    (sol,) = fpe_solver._newton_stack(_Operator(grid, SPEC, ZERO_DRIFT, 1), (f,), (f,),
                                      1e-3, (out,))
    assert sol.values is out
    assert out.min() >= 0.0 and out[56] == 0.0
    assert sol.preclip_min < -0.04 and sol.clipped_mass > 0.0
    dx = grid.cell_width
    assert abs(float(np.sum(out)) * dx - sol.clipped_mass - float(np.sum(f)) * dx) \
        <= sol.residual_l1 + 16 * np.finfo(float).eps


def test_resolvent_step_restriction():
    drift = DriftSpec(E=lambda x: np.ones_like(x), b=lambda r: np.ones_like(r),
                      sup_norm_E=1.0, sup_norm_b=1.0, div_E_minus_sup=0.0,
                      sup_div_minus_plus_E=1.0, b_is_constant=True)
    f = gaussian_field(n=64)
    with pytest.raises(ValueError, match="lambda"):
        resolvent_solve(f, 0.6, SPEC, drift)   # lambda_0 = 0.5 here


def test_resolvent_small_lambda_consistency():
    f = gaussian_field()
    dists = []
    for lam in (1e-2, 1e-3, 1e-4):
        sol = resolvent_solve(f, lam, SPEC, ZERO_DRIFT)
        dists.append(replace(f, values=sol.values).l1_distance(f))
    assert dists[0] > dists[1] > dists[2]
    # O(lambda): each decade shrinks the distance by roughly 10x
    assert 5.0 < dists[0] / dists[1] < 20.0
    assert 5.0 < dists[1] / dists[2] < 20.0


def test_resolvent_newton_failure_carries_residual(monkeypatch):
    monkeypatch.setattr(fpe_solver, "NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(fpe_solver, "NEWTON_TOL", 1e-14)
    f = gaussian_field(n=64)
    with pytest.raises(SolverError) as err:
        resolvent_solve(f, 1e-2, SPEC, ZERO_DRIFT)
    assert math.isfinite(err.value.residual)
    assert "lam=0.01" in str(err.value)
    assert "after 1 iterations" in str(err.value)


def nan_right_drift():
    # E is NaN for x > 0, so every residual is NaN
    return DriftSpec.constant_b(
        E=lambda x: np.where(np.asarray(x) > 0, np.nan, 0.0), b0=1.0,
        sup_norm_E=1.0, div_E_minus_sup=0.0)


def test_resolvent_non_finite_residual_raises():
    f = gaussian_field(n=64)
    with pytest.raises(SolverError, match="non-finite residual") as err:
        resolvent_solve(f, 1e-2, SPEC, nan_right_drift())
    assert math.isnan(err.value.residual)
    assert "lam=0.01" in str(err.value)
    assert "after 0 iterations" in str(err.value)
    with pytest.raises(SolverError) as err:
        step_chain(f.normalized(), 0.1, SolverConfig(lambda_step=1e-2), SPEC,
                   nan_right_drift())
    assert err.value.step == 0


@pytest.mark.parametrize("drift", [ZERO_DRIFT, tanh_drift(0.5)],
                         ids=["zero", "tanh"])
def test_resolvent_one_operator_evaluation_per_residual(monkeypatch, drift):
    calls = 0
    apply_operator = _Operator.apply

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return apply_operator(*args, **kwargs)

    monkeypatch.setattr(_Operator, "apply", counted)
    sol = resolvent_solve(barenblatt_field(0.1), 1e-2, SPEC, drift)
    assert sol.newton_iters > 0
    # one initial residual, one accepted trial per iteration, one per halving
    assert calls == 1 + sol.newton_iters + sol.halvings


def test_resolvent_fallback_telemetry(monkeypatch):
    # a zero Newton step fails all 12 trials, so every iteration halves 12
    # times and then takes the damped fixed-point step
    monkeypatch.setattr(fpe_solver, "_tridiagonal_solve",
                        lambda bands, rhs: (np.zeros_like(rhs), 0))
    sol = resolvent_solve(gaussian_field(n=64), 1e-3, SPEC, ZERO_DRIFT)
    assert sol.fallbacks == sol.newton_iters > 0
    assert sol.halvings == 12 * sol.fallbacks


def test_fixed_point_fallback_that_does_not_lower_the_residual_stalls(monkeypatch):
    # a zero Newton step leaves only the damped fixed-point step
    # u - res/2, which amplifies the high modes of a box when
    # lam/dx^2 = 18 >> 1: the residual rises at once, and the solve stalls
    # at the start, whose residual is lam * |A(f)|_1
    lam = 1e-2
    values = np.zeros(256)
    values[96:160] = 1.0
    f = GridField(-3.0, 3.0, values).normalized()
    assert lam / f.cell_width**2 > 18.0
    alone = _Operator(f, SPEC, ZERO_DRIFT, 1)
    start = f.values + lam * apply_alone(alone, f.values) - f.values
    monkeypatch.setattr(fpe_solver, "_tridiagonal_solve",
                        lambda bands, rhs: (np.zeros_like(rhs), 0))
    with pytest.raises(SolverError, match="stalled after 0 iterations") as err:
        resolvent_solve(f, lam, SPEC, ZERO_DRIFT)
    assert err.value.row == 0
    assert err.value.residual == float(np.sum(np.abs(start)) * f.cell_width)
    assert f"residual {err.value.residual:.3e}" in str(err.value)

    # in a chain the first step solves, and the second stalls at its
    # predictor start
    monkeypatch.undo()
    config = SolverConfig(lambda_step=lam)
    first = step_chain(f, lam, config, SPEC, ZERO_DRIFT)
    passes = first.infos[0].newton_iters
    u1 = first.values[0]
    solve, calls = fpe_solver._tridiagonal_solve, []

    def zero_after_the_first_step(bands, rhs):
        calls.append(rhs.size)
        if len(calls) <= passes:
            return solve(bands, rhs)
        return np.zeros_like(rhs), 0

    monkeypatch.setattr(fpe_solver, "_tridiagonal_solve", zero_after_the_first_step)
    with pytest.raises(SolverError, match="stalled after 0 iterations") as err:
        step_chain(f, 0.05, config, SPEC, ZERO_DRIFT)
    predictor = np.maximum(2.0 * u1 - f.values, 0.0)
    res = predictor + lam * apply_alone(alone, predictor) - u1
    assert (err.value.step, err.value.row) == (1, 0)
    assert err.value.residual == float(np.sum(np.abs(res)) * f.cell_width)


def test_resolvent_failed_tridiagonal_solve_raises(monkeypatch):
    monkeypatch.setattr(fpe_solver, "_tridiagonal_solve",
                        lambda bands, rhs: (rhs, 3))
    with pytest.raises(SolverError, match="gtsv info 3") as err:
        resolvent_solve(gaussian_field(n=64), 1e-2, SPEC, ZERO_DRIFT)
    assert "lam=0.01" in str(err.value) and "after 0 iterations" in str(err.value)


@given(n=st.integers(16, 4096), seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_tridiagonal_solve_is_solve_banded_bit_for_bit(n, seed):
    rng = np.random.default_rng(seed)
    dl, du = rng.uniform(-1.0, 1.0, (2, n - 1))
    d = np.abs(np.concatenate([[0.0], dl])) + np.abs(np.concatenate([du, [0.0]])) \
        + rng.uniform(0.01, 2.0, n)   # diagonally dominant
    d *= rng.choice([-1.0, 1.0], n)
    rhs = rng.normal(size=n)
    ab = np.zeros((3, n))
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    expected = solve_banded((1, 1), ab, rhs)
    x, info = fpe_solver._tridiagonal_solve((dl.copy(), d.copy(), du.copy()), rhs.copy())
    assert info == 0
    assert np.array_equal(x.view(np.int64), expected.view(np.int64))


# -- the drift-free support window ---------------------------------------------

# E = 0 with a positive sup norm takes the advective path, which solves on the
# whole grid and whose advective terms are all exactly 0: the full-grid
# oracle for the drift-free window.
NULL_DRIFT = DriftSpec.constant_b(
    E=lambda x: np.zeros_like(np.asarray(x, dtype=float)), b0=1.0,
    sup_norm_E=1e-9, div_E_minus_sup=0.0)


# E = -0.25 tanh(x) with b = 0: E b vanishes, so the chain has no advection
B_ZERO_DRIFT = DriftSpec.constant_b(
    E=lambda x: -0.25 * np.tanh(np.asarray(x, dtype=float)), b0=0.0,
    sup_norm_E=0.25, div_E_minus_sup=0.25, sup_div_minus_plus_E=0.3125)


def source_field(m, t, n, lo=-6.0, hi=6.0):
    profile = make_barenblatt(m)
    return GridField.from_function(lo, hi, n,
                                   lambda x: barenblatt_eval(profile, t, x)).normalized()


def assert_same_chain(window, full):
    assert np.array_equal(window.values.view(np.int64), full.values.view(np.int64))
    assert [i.newton_iters for i in window.infos] == [i.newton_iters for i in full.infos]
    assert [i.halvings for i in window.infos] == [i.halvings for i in full.infos]


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_drift_free_window_matches_the_full_grid_bit_for_bit(m):
    spec = NonlinearitySpec.power_law(m)
    nu = source_field(m, 0.1, 1000)
    assert nu.values[0] == nu.values[-1] == 0.0
    config = SolverConfig(lambda_step=1e-3)
    assert_same_chain(step_chain(nu, 0.05, config, spec, ZERO_DRIFT),
                      step_chain(nu, 0.05, config, spec, NULL_DRIFT))


def test_drift_free_window_clipped_at_the_wall_matches_the_full_grid():
    # the support runs into the zero-flux wall at lo = -0.5
    nu = source_field(2.0, 0.1, 400, lo=-0.5, hi=3.0)
    assert nu.values[0] > 0.0 and nu.values[-1] == 0.0
    config = SolverConfig(lambda_step=1e-3)
    assert_same_chain(step_chain(nu, 0.05, config, SPEC, ZERO_DRIFT),
                      step_chain(nu, 0.05, config, SPEC, NULL_DRIFT))


def test_drift_free_window_covers_the_start():
    # Newton starts from a profile 170 cells wider than f on each side, beyond
    # the margin, so the window must span both
    f = source_field(2.0, 0.1, 1000)
    start = source_field(2.0, 3.0, 1000).values
    window, full = (fpe_solver._newton_stack(_Operator(f, SPEC, drift, 1), (f.values,),
                                             (start,), 1e-2, (np.empty(f.n_cells),))[0]
                    for drift in (ZERO_DRIFT, NULL_DRIFT))
    assert window.newton_iters == full.newton_iters > 0
    assert window.halvings == full.halvings
    assert np.array_equal(window.values.view(np.int64), full.values.view(np.int64))
    assert (window.clipped_mass, window.preclip_min) == \
        (full.clipped_mass, full.preclip_min)


def test_a_vanishing_drift_runs_the_drift_free_chain(monkeypatch):
    # 800 cells, h = 5e-3 from t0 = 0.1 to 0.5: the same bits and Newton
    # counts as without drift, and every solve on the support window
    nu = source_field(2.0, 0.1, 800)
    config = SolverConfig(lambda_step=5e-3)
    expected = step_chain(nu, 0.4, config, SPEC, ZERO_DRIFT)
    sizes = []
    solve = fpe_solver._tridiagonal_solve

    def recorded(bands, rhs):
        sizes.append(rhs.size)
        return solve(bands, rhs)

    monkeypatch.setattr(fpe_solver, "_tridiagonal_solve", recorded)
    assert_same_chain(step_chain(nu, 0.4, config, SPEC, B_ZERO_DRIFT), expected)
    assert sizes and max(sizes) < nu.n_cells


def test_drift_free_newton_solves_the_support_window_only(monkeypatch):
    sizes = []
    solve = fpe_solver._tridiagonal_solve

    def recorded(bands, rhs):
        sizes.append(rhs.size)
        return solve(bands, rhs)

    monkeypatch.setattr(fpe_solver, "_tridiagonal_solve", recorded)
    config = SolverConfig(lambda_step=1e-3)
    # the first step of the benchmark's chain: m = 2, t0 = 0.1, 4000 cells on
    # [-6, 6], whose support covers 16 percent of them
    step_chain(barenblatt_field(0.1, n=4000), 1e-3, config, SPEC, ZERO_DRIFT)
    assert sizes and max(sizes) < 1000
    sizes.clear()
    # advection couples vacuum cells, so a drifted step solves every cell
    step_chain(barenblatt_field(0.1, n=400), 1e-3, config, SPEC, tanh_drift(0.25))
    assert sizes and set(sizes) == {400}


# One zero-flux resolvent step on random data.  (I + lam*A) is L1-accretive,
# so an iterate with L1 residual r lies within r of the exact solution in L1
# and within r/dx at every cell.  The bounds below are these residual
# budgets (NEWTON_TOL = 1e-12 per solve).  Over 200 random cases of the same
# draw, max(u - v) stayed below -6e-4, the relative mass change below 7e-15
# and the contraction ratio below 0.997.
PROPERTY_TOL = 1e-12


def _property_case(m, amp, lam_frac, seed):
    drift = tanh_drift(amp)
    lam = lam_frac * min(lambda_zero(drift) / 2.0, 1e-2)
    spec = NonlinearitySpec.power_law(m)
    a, b = random_smooth_field(seed, n=128), random_smooth_field(seed + 1, n=128)
    bump = np.random.default_rng(seed + 2).uniform(0.0, 0.5, a.n_cells)
    above = GridField(a.lo, a.hi, a.values + bump)

    def solve(f):
        return replace(f, values=resolvent_solve(f, lam, spec, drift).values)

    return a, b, above, solve


CASES = dict(m=st.floats(1.5, 4.0), amp=st.floats(0.0, 1.0),
             lam_frac=st.floats(0.01, 1.0), seed=st.integers(0, 2**31))


@given(**CASES)
@settings(max_examples=40, deadline=None)
def test_resolvent_comparison_principle(m, amp, lam_frac, seed):
    a, _, above, solve = _property_case(m, amp, lam_frac, seed)
    u, v = solve(a), solve(above)
    assert np.max(u.values - v.values) <= 2 * PROPERTY_TOL / a.cell_width


@given(**CASES)
@settings(max_examples=40, deadline=None)
def test_resolvent_conserves_mass(m, amp, lam_frac, seed):
    a, _, above, solve = _property_case(m, amp, lam_frac, seed)
    for f in (a, above):
        assert abs(solve(f).mass() - f.mass()) <= PROPERTY_TOL * max(1.0, f.mass())


@given(**CASES)
@settings(max_examples=40, deadline=None)
def test_resolvent_l1_contraction(m, amp, lam_frac, seed):
    a, b, _, solve = _property_case(m, amp, lam_frac, seed)
    assert solve(a).l1_distance(solve(b)) <= a.l1_distance(b) + 2 * PROPERTY_TOL


# At amplitude 1 the cell Peclet number |E| dx / beta'(u) of the datum below
# reaches 1.6 on 64 cells and 7.7 on 128, so only upwinded advection keeps the
# resolvent monotone there; downwinding it undershot by -1.1e-2 or stalled
# Newton.  The bounds are the residual budgets above.  Measured over these six
# cases: preclip_min >= -6.2e-19, max(u - w) = 0 and a mass error of 0.
@pytest.mark.parametrize("lam_frac", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [64, 128])
def test_resolvent_is_monotone_at_cell_peclet_above_one(n, lam_frac):
    drift = tanh_drift(1.0)
    lam = lam_frac * lambda_zero(drift)
    f = GridField.from_function(-3.0, 3.0, n, lambda x: 1.0 - (x / 2.0) ** 2).normalized()
    above = GridField(f.lo, f.hi, f.values + 0.05 * (np.abs(f.centers) < 1.5))
    occupied = f.values > 0
    peclet = np.abs(drift.E(f.centers[occupied])) * f.cell_width \
        / SPEC.beta_prime(f.values[occupied])
    assert peclet.max() > 1.5
    u, w = (resolvent_solve(g, lam, SPEC, drift) for g in (f, above))
    assert min(u.preclip_min, w.preclip_min) >= -PROPERTY_TOL / f.cell_width
    assert np.max(u.values - w.values) <= 2 * PROPERTY_TOL / f.cell_width
    for sol, g in ((u, f), (w, above)):
        assert abs(replace(g, values=sol.values).mass() - g.mass()) <= PROPERTY_TOL


# -- chain --------------------------------------------------------------------

def test_step_chain_requires_unit_mass():
    f = GridField(-2, 2, np.ones(32))   # mass 4
    with pytest.raises(ValueError, match="mass"):
        step_chain(f, 0.1, SolverConfig(lambda_step=1e-3), SPEC, ZERO_DRIFT)


def test_step_chain_barenblatt_accuracy_coarse():
    nu = barenblatt_field(0.1)
    traj = step_chain(nu, 0.9, SolverConfig(lambda_step=5e-3), SPEC, ZERO_DRIFT)
    ref = GridField.from_function(-6, 6, 500, lambda x: barenblatt_eval(P2, 1.0, x))
    assert traj.final.l1_distance(ref) <= 0.02
    assert traj.times[-1] == pytest.approx(0.9, abs=1e-12)


def test_step_chain_mass_and_positivity():
    nu = barenblatt_field(0.1)
    traj = step_chain(nu, 0.45, SolverConfig(lambda_step=2.5e-3), SPEC, ZERO_DRIFT)
    masses = traj.values.sum(axis=1) * nu.cell_width
    assert np.max(np.abs(masses - 1.0)) <= 1e-8
    assert traj.values.min() >= 0.0
    assert sum(info.clipped_mass for info in traj.infos) <= 1e-6


@pytest.mark.parametrize("drift", [ZERO_DRIFT, tanh_drift(0.25),
                                   saturating_drift(0.25)],
                         ids=["zero", "tanh", "saturating_b"])
def test_step_chain_conserves_mass_to_roundoff(drift):
    # the operator is in flux form with zero boundary flux and has no
    # absorption term, so each step moves the mass only by rounding
    nu = barenblatt_field(0.1, n=400)
    traj = step_chain(nu, 0.1, SolverConfig(lambda_step=1e-3), SPEC, drift)
    masses = traj.values.sum(axis=1) * nu.cell_width
    assert sum(info.clipped_mass for info in traj.infos) == 0.0
    assert np.max(np.abs(masses - nu.mass())) <= 16 * 2.22e-16


def test_step_chain_linf_nonincreasing_without_drift():
    nu = random_smooth_field(3)
    traj = step_chain(nu, 0.05, SolverConfig(lambda_step=2.5e-3), SPEC, ZERO_DRIFT)
    cap = nu.linf() * (1 + 1e-6)
    assert traj.values.max() <= cap


def test_step_chain_refinement_is_cauchy():
    nu = barenblatt_field(0.1, n=400, lo=-4, hi=4)
    finals = [step_chain(nu, 0.4, SolverConfig(lambda_step=h), SPEC, ZERO_DRIFT).final
              for h in (8e-3, 4e-3, 2e-3)]
    d1 = finals[0].l1_distance(finals[1])
    d2 = finals[1].l1_distance(finals[2])
    assert d1 > d2


def test_step_chain_partial_last_step():
    nu = barenblatt_field(0.1, n=200, lo=-4, hi=4)
    traj = step_chain(nu, 0.025, SolverConfig(lambda_step=1e-2), SPEC, ZERO_DRIFT)
    assert traj.values.shape == (3, 200)
    assert traj.times[-1] == pytest.approx(0.025, abs=1e-14)
    assert np.array_equal(traj.field_at(0.015).values, traj.values[1])
    # a time at a step's end belongs to that step; past T reads the last step
    assert np.array_equal(traj.field_at(traj.times[0]).values, traj.values[0])
    assert np.array_equal(traj.field_at(1.0).values, traj.values[2])


def test_step_chain_keeps_only_the_filled_rows():
    # ceil(0.035 / 0.005) is 8, but 7 steps already reach T, so the eighth,
    # which rounding leaves at most 1e-9 h long, is not taken
    nu = barenblatt_field(0.1, n=200, lo=-4, hi=4)
    traj = step_chain(nu, 0.035, SolverConfig(lambda_step=5e-3), SPEC, ZERO_DRIFT)
    assert traj.values.shape == (7, 200)
    assert traj.times.shape == (7,) and len(traj.infos) == 7
    assert traj.times[-1] == pytest.approx(0.035, abs=1e-14)
    assert np.array_equal(traj.final.values, traj.infos[-1].values)


def test_step_chain_skips_a_last_step_left_by_rounding():
    # the CLI passes T - t0: 0.14 - 0.1 = 0.04000000000000001 puts T/h just
    # above 40, and a 41st step would last 7e-18
    T = 0.14 - 0.1
    nu = barenblatt_field(0.1, n=200, lo=-4, hi=4)
    traj = step_chain(nu, T, SolverConfig(lambda_step=1e-3), SPEC, ZERO_DRIFT)
    assert traj.values.shape == (40, 200)
    assert traj.times.shape == (40,) and len(traj.infos) == 40
    assert abs(traj.times[-1] - T) <= 1e-15


@pytest.mark.parametrize("T", [0.0, -0.05, math.nan])
def test_step_chain_rejects_a_non_positive_horizon(T):
    with pytest.raises(ValueError, match="horizon T"):
        step_chain(barenblatt_field(0.1), T, SolverConfig(lambda_step=1e-3),
                   SPEC, ZERO_DRIFT)


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan])
def test_solver_config_rejects_a_non_positive_step(h):
    with pytest.raises(ValueError, match="lambda_step must be positive"):
        SolverConfig(lambda_step=h)


def test_solver_config_rejects_an_infinite_step():
    # an infinite step once reached step_chain, whose last step then took
    # 0 * inf and failed in Newton with lam = nan
    with pytest.raises(ValueError, match="lambda_step must be positive and finite, got inf"):
        SolverConfig(lambda_step=math.inf)


# lambda_0 = 1/(c + c^(1/2) ||b||) = 0.5 with c = ||b|| = 1
UNIT_DRIFT = DriftSpec(E=lambda x: np.ones_like(x), b=lambda r: np.ones_like(r),
                       sup_norm_E=1.0, sup_norm_b=1.0, div_E_minus_sup=0.0,
                       sup_div_minus_plus_E=1.0, b_is_constant=True)


@pytest.mark.parametrize("lam", [0.5, 0.6])
@pytest.mark.parametrize("solve", [
    lambda f, lam: resolvent_solve(f, lam, SPEC, UNIT_DRIFT),
    lambda f, lam: step_chain(f, 1.0, SolverConfig(lambda_step=lam), SPEC, UNIT_DRIFT),
], ids=["resolvent_solve", "step_chain"])
def test_the_step_restriction_names_lambda_and_lambda_zero(solve, lam):
    message = (f"step lambda = {lam!r} violates the step restriction "
               "0 < lambda < lambda_0 = 0.5")
    with pytest.raises(ValueError, match=re.escape(message)):
        solve(gaussian_field(n=64).normalized(), lam)


_UNIT_MASS = GridField(0.0, 1.0, np.ones(16))
_OTHER_UNIT_MASS = GridField(0.0, 1.0, np.r_[np.full(8, 1.5), np.full(8, 0.5)])


@pytest.mark.parametrize("call, message", [
    (lambda: GridField(1.0, 1.0, np.ones(16)), "need hi > lo"),
    (lambda: GridField(0.0, 1.0, np.r_[np.ones(15), np.inf]),
     "field values must be finite"),
    (lambda: GridField(0.0, 1.0, np.ones(16)).l1_distance(GridField(0.0, 2.0, np.ones(16))),
     "fields live on different grids"),
    (lambda: GridField(0.0, 1.0, np.zeros(16)).normalized(),
     "cannot normalize a zero field"),
    (lambda: chain_steps((), 0.1, SolverConfig(lambda_step=1e-3), SPEC, ZERO_DRIFT),
     "chain_steps needs at least one field"),
    (lambda: GridField(-math.inf, 1.0, np.ones(16)),
     "need hi > lo with finite lo, hi and hi - lo, got lo = -inf and hi = 1.0"),
    (lambda: GridField(0.0, math.inf, np.ones(16)),
     "need hi > lo with finite lo, hi and hi - lo, got lo = 0.0 and hi = inf"),
    (lambda: GridField(-1e308, 1e308, np.ones(16)),
     "need hi > lo with finite lo, hi and hi - lo, got lo = -1e[+]308 and hi = 1e[+]308"),
    (lambda: step_chain(_UNIT_MASS, math.inf, SolverConfig(lambda_step=1e-3), SPEC,
                        ZERO_DRIFT),
     "T = inf and h = 0.001 give no finite step count T/h"),
    (lambda: step_chain(_UNIT_MASS, 0.1, SolverConfig(lambda_step=1e-320), SPEC,
                        ZERO_DRIFT),
     "T = 0.1 and h = 1e-320 give no finite step count T/h"),
    (lambda: semigroup_distance(_UNIT_MASS, _OTHER_UNIT_MASS, math.inf,
                                SolverConfig(lambda_step=1e-3), SPEC, ZERO_DRIFT),
     "T = inf and h = 0.001 give no finite step count T/h"),
    (lambda: semigroup_distance(_UNIT_MASS, _OTHER_UNIT_MASS, 0.1,
                                SolverConfig(lambda_step=1e-320), SPEC, ZERO_DRIFT),
     "T = 0.1 and h = 1e-320 give no finite step count T/h"),
    # coinciding fields are checked like any others before they give 0
    (lambda: semigroup_distance(_UNIT_MASS, _UNIT_MASS, -1.0,
                                SolverConfig(lambda_step=1e-3), SPEC, ZERO_DRIFT),
     "chain horizon T must be positive, got T = -1.0"),
    (lambda: semigroup_distance(_UNIT_MASS, _UNIT_MASS, math.inf,
                                SolverConfig(lambda_step=1e-3), SPEC, ZERO_DRIFT),
     "T = inf and h = 0.001 give no finite step count T/h"),
    (lambda: semigroup_distance(_UNIT_MASS, _UNIT_MASS, 1.0,
                                SolverConfig(lambda_step=0.6), SPEC, UNIT_DRIFT),
     "step lambda = 0.6 violates the step restriction"),
], ids=["hi-not-above-lo", "non-finite", "l1-across-grids", "zero-field", "no-fields",
        "infinite-lo", "infinite-hi", "overflowing-width", "chain-infinite-T",
        "chain-subnormal-h", "distance-infinite-T", "distance-subnormal-h",
        "distance-coinciding-negative-T", "distance-coinciding-infinite-T",
        "distance-coinciding-step-restriction"])
def test_fpe_solver_input_guards_raise_with_their_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("t", [0.0, -1.0])
def test_trajectory_before_its_first_step_is_the_initial_field(t):
    nu = gaussian_field(n=64).normalized()
    traj = step_chain(nu, 0.01, SolverConfig(lambda_step=5e-3), SPEC, ZERO_DRIFT)
    assert traj.field_at(t) is traj.initial is nu


def test_step_chain_clipped_mass_budget_aborts(monkeypatch):
    solve = fpe_solver._newton_stack

    def clipping(*args, **kwargs):
        return [replace(sol, clipped_mass=6e-7) for sol in solve(*args, **kwargs)]

    monkeypatch.setattr(fpe_solver, "_newton_stack", clipping)
    nu = barenblatt_field(0.1, n=64, lo=-3, hi=3)
    with pytest.raises(SolverError, match="budget 1.0e-06") as err:
        step_chain(nu, 0.05, SolverConfig(lambda_step=1e-2), SPEC, ZERO_DRIFT)
    assert err.value.step == 1


def test_barenblatt_chain_newton_telemetry():
    # the benchmark's fpe-barenblatt chain: 4000 cells, 900 steps of 1e-3;
    # Newton starts from the linear predictor max(2u^i - u^(i-1), 0)
    traj = step_chain(barenblatt_field(0.1, n=4000), 0.9, SolverConfig(lambda_step=1e-3), SPEC, ZERO_DRIFT)
    assert len(traj.infos) == 900
    assert sum(info.halvings for info in traj.infos) == 0
    assert sum(info.fallbacks for info in traj.infos) == 0
    # 2825 iterations when every step started from the previous iterate
    assert sum(info.newton_iters for info in traj.infos) <= 2400


def test_drifted_chain_calls_no_epsilon_regularization(monkeypatch):
    # the chain advects with E and b as given; the regularized coefficients,
    # still importable from fpe_solver, must not be reached
    nu = random_smooth_field(7, n=200)
    config = SolverConfig(lambda_step=5e-3)
    expected = step_chain(nu, 0.05, config, SPEC, tanh_drift(0.25))

    def forbidden(*args, **kwargs):
        raise AssertionError("the chain called an epsilon-regularized coefficient")

    for name in ("cutoff_E", "mollified_b", "mollified_b_prime"):
        monkeypatch.setattr(fpe_solver, name, forbidden)
    assert_same_chain(step_chain(nu, 0.05, config, SPEC, tanh_drift(0.25)),
                      expected)


def test_saturating_b_chain_contracts():
    # measured ratios - 1: -0.069, -0.053, -0.030 and -0.051
    config = SolverConfig(lambda_step=2e-3)
    for seed in (5, 7, 9, 11):
        ratio = semigroup_distance(random_smooth_field(seed),
                                   random_smooth_field(seed + 1), 0.02, config,
                                   SPEC, saturating_drift(0.25))
        assert ratio <= 1.0 + 1e-6


@pytest.mark.parametrize("amp", [0.25, 1.0])
def test_jacobian_bands_match_finite_differences_with_saturating_b(amp):
    # central differences of u + lam*A(u), column by column; measured max
    # error relative to max |J| was 3.2e-11 (amp 0.25) and 2.9e-11 (amp 1),
    # bounded with a 30x margin.  Dropping the b'(u) u term errs by 1e-3 and
    # 4e-3 of max |J|.
    drift = saturating_drift(amp)
    f = random_smooth_field(3, n=64)
    u = f.values * (1.0 + 0.3 * np.random.default_rng(0).uniform(size=64))
    lam = 0.5 * lambda_zero(drift)
    op = _Operator(f, SPEC, drift, 1)

    def operator(v):
        return v + lam * apply_alone(op, v)

    fd = np.empty((u.size, u.size))
    for j in range(u.size):
        e = np.zeros(u.size)
        e[j] = 1e-6 * max(1.0, u[j])
        fd[:, j] = (operator(u + e) - operator(u - e)) / (2.0 * e[j])
    dl, d, du = op.jacobian(lam, u.size)(u)
    bands = np.diag(d) + np.diag(du, 1) + np.diag(dl, -1)
    assert np.max(np.abs(bands - fd)) <= 1e-9 * np.max(np.abs(bands))


@pytest.mark.parametrize("n, h, T", [(400, 1e-3, 0.3), (200, 5e-3, 0.05)])
def test_constant_b_fast_path_equals_the_general_slope_path(n, h, T):
    # the same b = 1 with and without b_is_constant: the chain's fixed
    # advective bands (b0) against the bands from slope(u) at every iteration
    amp = 0.25
    general = DriftSpec(
        E=lambda x: -amp * np.tanh(np.asarray(x, dtype=float)),
        b=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        sup_norm_E=amp, sup_norm_b=1.0, div_E_minus_sup=amp,
        sup_div_minus_plus_E=1.25 * amp)
    nu = gaussian_field(n=n).normalized()
    config = SolverConfig(lambda_step=h)
    fast = step_chain(nu, T, config, SPEC, tanh_drift(amp))
    slow = step_chain(nu, T, config, SPEC, general)
    assert np.array_equal(fast.values.view(np.int64), slow.values.view(np.int64))
    assert [(i.newton_iters, i.residual_l1) for i in fast.infos] == \
        [(i.newton_iters, i.residual_l1) for i in slow.infos]


def test_operator_is_the_donor_cell_flux_written_out_at_the_faces():
    # the flux through the face x = lo + (j + 1) dx after cell j is
    # -(beta(u_(j+1)) - beta(u_j))/dx + E+ b(u_j) u_j + E- b(u_(j+1)) u_(j+1)
    # with E+ = max(E(x), 0) and E- = min(E(x), 0), and 0 through the two
    # boundary faces; A(u) at cell j is the flux after it minus the flux
    # before it, over dx.  E changes sign inside and b is not constant.
    n, lo, hi = 40, -2.0, 2.0
    u = np.random.default_rng(3).uniform(0.1, 1.0, n)
    grid = GridField(lo, hi, u)
    dx = grid.cell_width
    drift = saturating_drift(0.75)
    got = apply_alone(_Operator(grid, SPEC, drift, 1), u)

    def carried(i):
        return float(drift.b(u[i])) * u[i]

    def flux(j):
        if j < 0 or j >= n - 1:
            return 0.0
        e = float(drift.E(lo + (j + 1) * dx))
        return (-(float(SPEC.beta(u[j + 1])) - float(SPEC.beta(u[j]))) / dx
                + max(e, 0.0) * carried(j) + min(e, 0.0) * carried(j + 1))

    # the terms are of order beta/dx^2 = 1e2, rounded at about 1e-14
    for j in (0, 1, 9, n // 2 - 1, n // 2, n - 2, n - 1):
        assert got[j] == pytest.approx((flux(j) - flux(j - 1)) / dx, rel=0, abs=1e-11)


def test_step_chain_drift_linf_bound():
    drift = tanh_drift(0.25)
    nu = gaussian_field(n=400)
    traj = step_chain(nu, 0.5, SolverConfig(lambda_step=2e-3), SPEC, drift)
    c = drift.combined_sup()
    for t, row in zip(traj.times, traj.values):
        assert row.max() <= math.exp(math.sqrt(c) * t) * nu.linf() * 1.001
        assert abs(row.sum() * nu.cell_width - 1.0) <= 1e-8



@pytest.mark.parametrize("m", [2.0, 3.0])
def test_chain_support_edge_tracks_the_free_boundary(m):
    """Finite propagation: the chain's support ends just past R(t).

    The porous medium equation moves its free boundary at finite speed
    (Vazquez 2007, The Porous Medium Equation, Oxford); the discrete chain
    must keep its support within a few cells of it.

    From the source-type solution at t0 = 0.1 on [-6, 6], on 1000 and 2000
    cells with h = 4/n_cells, the outermost cell above 1e-12 on each side
    must end within [0, 5] cells beyond R(t) = support_radius(t) at t = 0.4
    and 1.0.  Measured: +2.2 to +3.6 cells, equal on both sides; the bound 5
    leaves one cell for the threshold (below) and 0.4 more.  A chain that
    leaks mass into the vacuum, such as a 1e-10 floor on the iterate, puts
    the edge at the wall.

    Why 1e-12.  Past the front the discrete equation u_j + lam (2 beta(u_j)
    - beta(u_(j-1)) - beta(u_(j+1))) / dx^2 = f_j gives u_j ~ f_j +
    (lam/dx^2) u_(j-1)^m > 0: the scheme's solution is positive in every
    cell, so an edge needs a threshold.  That tail falls doubly
    exponentially: lam/dx^2 = n_cells/36 <= 56 here, so, f aside, a cell at
    1e-6 is followed by one near 6e-11 and then by one near 2e-19 (m = 2).  Any
    threshold from 1e-12 to 1e-6 thus moves the edge by at most one cell
    (measured: the 1e-6 edge lies 0 or 1 cell inside).  Newton stops at an
    L1 residual of NEWTON_TOL = 1e-12, to which a cell contributes about
    dx u_j, so a cell below NEWTON_TOL/dx (1e-10 here) may read exactly 0
    or not; by the same fall that too moves the edge by at most one cell.
    The last nonzero cell (measured +5.2 to +8.6 cells out, at values down
    to 1e-306) is where Newton stopped, not where the scheme's support
    ends, and is not gated.
    """
    source = make_barenblatt(m)
    spec = NonlinearitySpec.power_law(m)
    for n in (1000, 2000):
        nu = GridField.from_function(
            -6.0, 6.0, n, lambda x: barenblatt_eval(source, 0.1, x)).normalized()
        traj = step_chain(nu, 0.9, SolverConfig(lambda_step=4.0 / n), spec, ZERO_DRIFT)
        for t in (0.4, 1.0):
            u = traj.values[np.argmin(np.abs(traj.times - (t - 0.1)))]
            above = np.flatnonzero(u > 1e-12)
            radius = source.support_radius(t)
            beyond = ((nu.edges[above[-1] + 1] - radius) / nu.cell_width,
                      (-radius - nu.edges[above[0]]) / nu.cell_width)
            assert all(0.0 <= b <= 5.0 for b in beyond), (n, t, beyond)


# -- the step stream ----------------------------------------------------------

@pytest.mark.parametrize("nu, T, h, drift", [
    (barenblatt_field(0.1, n=200, lo=-4, hi=4), 0.025, 1e-2, ZERO_DRIFT),
    (random_smooth_field(7), 0.02, 2e-3, tanh_drift(0.25)),
], ids=["drift-free", "drifted"])
def test_step_chain_collects_the_stream(nu, T, h, drift):
    config = SolverConfig(lambda_step=h)
    traj = step_chain(nu, T, config, SPEC, drift)
    n_steps, steps = chain_steps((nu,), T, config, SPEC, drift)
    prev_t, seen = 0.0, 0
    for step in steps:
        assert step.index == seen and step.t == prev_t + step.lam
        (info,) = step.infos
        assert traj.times[step.index] == step.t
        assert np.array_equal(traj.values[step.index].view(np.int64),
                              info.values.view(np.int64))
        kept = traj.infos[step.index]
        assert_same_report(kept, info)
        # the kept report reads the stored row, not the stream's buffer
        assert kept.values is not info.values
        assert np.shares_memory(kept.values, traj.values[step.index])
        prev_t, seen = step.t, seen + 1
    assert seen == n_steps == traj.times.size
    # the last step of the drift-free chain is shortened to land on T
    assert prev_t == pytest.approx(T, abs=1e-15)


@pytest.mark.parametrize("width", [200, 4000])
def test_streamed_row_reductions_equal_the_block_reductions_bit_for_bit(width):
    # the CLI sums and maximizes each row as its step arrives, and
    # semigroup_distance sums each step's gap |u1 - u2| in a reused buffer;
    # the reductions along axis 1 of an (N, n_cells) block gave the pinned
    # outputs, so every row must give the same bits
    rng = np.random.default_rng(width)
    gap = np.empty(width)
    for _ in range(2000):
        k = int(rng.integers(1, 4))
        scale = 10.0 ** rng.uniform(-20, 4, size=(k, 1))
        values = rng.random((k, width)) * scale
        values[:, :int(rng.integers(0, width))] = 0.0   # vacuum on one side
        other = rng.random((k, width)) * scale
        block_gaps = np.subtract(values, other)
        np.abs(block_gaps, out=block_gaps)
        want = np.stack([values.sum(axis=1), values.max(axis=1),
                         np.sum(block_gaps, axis=1)])
        got = np.empty_like(want)
        for r, (row, second) in enumerate(zip(values, other)):
            np.subtract(row, second, out=gap)
            np.abs(gap, out=gap)
            got[:, r] = row.sum(), row.max(), gap.sum()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_stream_rows_hold_until_the_stream_moves_on():
    # each row has three buffers: a kept row reads the step of two steps on
    nu = barenblatt_field(0.1, n=200, lo=-4, hi=4)
    traj = step_chain(nu, 0.05, SolverConfig(lambda_step=1e-2), SPEC, ZERO_DRIFT)
    _, steps = chain_steps((nu,), 0.05, SolverConfig(lambda_step=1e-2), SPEC,
                           ZERO_DRIFT)
    first = next(steps).infos[0].values
    assert np.array_equal(first, traj.values[0])
    for _ in range(3):
        next(steps)
    assert np.array_equal(first, traj.values[3])


# -- semigroup distance -------------------------------------------------------

def test_semigroup_distance_identical_inputs():
    nu = random_smooth_field(4)
    cfg = SolverConfig(lambda_step=2e-3)
    assert semigroup_distance(nu, nu, 0.02, cfg, SPEC, ZERO_DRIFT) == 0.0


def test_semigroup_distance_contracts():
    cfg = SolverConfig(lambda_step=2e-3)
    ratio = semigroup_distance(random_smooth_field(5), random_smooth_field(6),
                               0.02, cfg, SPEC, ZERO_DRIFT)
    assert ratio <= 1.0 + 1e-6


def test_semigroup_distance_disjoint_supports():
    va = np.zeros(200); va[30:60] = 1.0
    vb = np.zeros(200); vb[140:170] = 1.0
    a = GridField(-3, 3, va).normalized()
    b = GridField(-3, 3, vb).normalized()
    ratio = semigroup_distance(a, b, 0.02, SolverConfig(lambda_step=2e-3),
                               SPEC, ZERO_DRIFT)
    assert ratio <= 1.0 + 1e-6


def _step_ratios(t1, t2, denom):
    """Each step's ||u1 - u2||_1 / denom through GridField.l1_distance."""
    lo, hi = t1.initial.lo, t1.initial.hi
    return [GridField(lo, hi, a).l1_distance(GridField(lo, hi, b)) / denom
            for a, b in zip(t1.values, t2.values)]


def test_semigroup_distance_is_the_worst_step_ratio_bit_for_bit():
    drift = tanh_drift(0.25)
    cfg = SolverConfig(lambda_step=2e-3)
    nu1, nu2 = random_smooth_field(7), random_smooth_field(8)
    ratios = _step_ratios(step_chain(nu1, 0.02, cfg, SPEC, drift),
                          step_chain(nu2, 0.02, cfg, SPEC, drift),
                          nu1.l1_distance(nu2))
    assert len(ratios) == 10
    assert semigroup_distance(nu1, nu2, 0.02, cfg, SPEC, drift) == max(ratios)


def test_semigroup_distance_reads_every_step(monkeypatch):
    # a contraction's worst ratio is at step 1, so chains whose distance
    # grows check that the later steps are read as well
    nu1, nu2 = random_smooth_field(7), random_smooth_field(8)
    weights = np.array([0.1, 0.4, 0.2, 0.9, 0.3])

    def fake_one(nu):
        s = weights[:, None] if nu is nu2 else np.zeros((weights.size, 1))
        values = (1.0 - s) * nu1.values + s * nu2.values
        return Trajectory(initial=nu, times=np.arange(1.0, 6.0), values=values,
                          infos=[])

    def report(row):
        return ResolventSolution(values=row, residual_l1=0.0, newton_iters=1,
                                 clipped_mass=0.0, preclip_min=0.0, halvings=0,
                                 fallbacks=0)

    def fake_stream(nus, T, config, spec, drift):
        t1, t2 = (fake_one(nu) for nu in nus)
        steps = (ChainStep(index=i, t=t, lam=1.0, infos=(report(a), report(b)))
                 for i, (t, a, b) in enumerate(zip(t1.times, t1.values, t2.values)))
        return t1.times.size, steps

    ratios = _step_ratios(fake_one(nu1), fake_one(nu2), nu1.l1_distance(nu2))
    monkeypatch.setattr(fpe_solver, "chain_steps", fake_stream)
    got = semigroup_distance(nu1, nu2, 1.0, SolverConfig(lambda_step=1e-2),
                             SPEC, ZERO_DRIFT)
    assert got == max(ratios) == ratios[3]


# -- stacks of chains ------------------------------------------------------------

TELEMETRY = ("residual_l1", "clipped_mass", "preclip_min")
COUNTS = ("newton_iters", "halvings", "fallbacks")


def assert_same_report(got, want):
    """Two solve reports with the same counts and telemetry bit for bit."""
    assert [getattr(got, c) for c in COUNTS] == [getattr(want, c) for c in COUNTS]
    assert np.array_equal(
        np.array([getattr(got, t) for t in TELEMETRY]).view(np.int64),
        np.array([getattr(want, t) for t in TELEMETRY]).view(np.int64))


def run_stack(fields, T, config, drift):
    """Every step of the chain_steps stack of fields, drained; each step's
    values are reused buffers, so only the reports' numbers stay valid."""
    return list(chain_steps(tuple(fields), T, config, SPEC, drift)[1])


def assert_stack_matches_standalone(fields, T, config, drift):
    """Every step of every row of a chain_steps stack equals the standalone
    step_chain of its field bit for bit; returns those Trajectories."""
    alone = [step_chain(nu, T, config, SPEC, drift) for nu in fields]
    n_steps, steps = chain_steps(tuple(fields), T, config, SPEC, drift)
    seen = 0
    for step in steps:
        assert len(step.infos) == len(fields)
        for traj, got in zip(alone, step.infos):
            assert step.t == traj.times[step.index]
            assert np.array_equal(got.values.view(np.int64),
                                  traj.values[step.index].view(np.int64))
            assert_same_report(got, traj.infos[step.index])
        seen += 1
    assert seen == n_steps == alone[0].times.size
    return alone


def newton_counts(traj):
    return [info.newton_iters for info in traj.infos]


@pytest.mark.parametrize("drift", [tanh_drift(0.25), saturating_drift(0.25)],
                         ids=["tanh", "saturating_b"])
def test_stacked_rows_equal_their_standalone_chains(drift):
    # the rows' Newton counts differ from step 5 on (3 against 2), so one row
    # iterates alone while the other is left untouched
    t1, t2 = assert_stack_matches_standalone(
        (random_smooth_field(7), random_smooth_field(8)), 0.02,
        SolverConfig(lambda_step=2e-3), drift)
    assert newton_counts(t1) != newton_counts(t2)


def test_stacked_drift_free_rows_with_disjoint_supports():
    # windows [0, 181) and [228, 359) of 400 cells: the stack solves their
    # union, and each row sums its residual over its own window (summed over
    # the union, 6 of the 20 residuals differ in their last bits); the narrow
    # block halves its first step 5 times, the wide one never
    va, vb = np.zeros(400), np.zeros(400)
    va[57:119] = 1.0
    vb[290:297] = 1.0
    a, b = (GridField(-6.0, 6.0, v).normalized() for v in (va, vb))
    t1, t2 = assert_stack_matches_standalone((a, b), 0.02,
                                             SolverConfig(lambda_step=2e-3),
                                             ZERO_DRIFT)
    assert newton_counts(t1) != newton_counts(t2)
    assert t1.infos[0].halvings != t2.infos[0].halvings


def test_stack_failure_names_the_step_and_row(monkeypatch):
    # gtsv info 207 on a stack of two 200-cell rows falls in row 1
    nu1, nu2 = random_smooth_field(7, n=200), random_smooth_field(8, n=200)
    drift, lam = tanh_drift(0.25), 2e-3
    monkeypatch.setattr(fpe_solver, "_tridiagonal_solve",
                        lambda bands, rhs: (rhs, 207))
    with pytest.raises(SolverError, match="gtsv info 207") as err:
        run_stack((nu1, nu2), 0.02, SolverConfig(lambda_step=lam), drift)
    start = nu2.values + lam * apply_alone(_Operator(nu2, SPEC, drift, 1), nu2.values) \
        - nu2.values
    assert err.value.residual == float(np.sum(np.abs(start)) * nu2.cell_width)
    assert (err.value.step, err.value.row) == (0, 1)
    message = str(err.value)
    assert "row 1" in message and "lam=0.002" in message
    assert "after 0 iterations" in message
    assert f"residual {err.value.residual:.3e}" in message


def box_field(first, cells, n=256, lo=-3.0, hi=3.0):
    """The normalized indicator of cells first, ..., first + cells - 1."""
    values = np.zeros(n)
    values[first:first + cells] = 1.0
    return GridField(lo, hi, values).normalized()


STACK_DRIFTS = {"zero": ZERO_DRIFT, "tanh_inward": tanh_drift(0.25),
                "saturating_b": saturating_drift(0.25)}
# a row is a smooth field of full support (a seed) or a box of compact
# support (first cell, width); without drift a box's window is 62 cells wider
# per side, so on 256 cells a row's own window can be narrower than the union
STACK_ROWS = st.lists(st.one_of(
    st.integers(0, 2**31),
    st.tuples(st.integers(0, 240), st.integers(2, 16))), min_size=1, max_size=4)


@given(rows=STACK_ROWS, drift=st.sampled_from(sorted(STACK_DRIFTS)))
@example(rows=[(10, 8), (230, 4)], drift="zero")   # disjoint windows
@example(rows=[(10, 8), (120, 3), (230, 4), 7], drift="zero")
@example(rows=[(10, 8), (230, 4), 7], drift="saturating_b")
@example(rows=[(240, 16), (0, 8)], drift="tanh_inward")   # mass on both sides of a seam
@settings(max_examples=25, deadline=None)
def test_every_stack_row_equals_its_standalone_chain(rows, drift):
    fields = [random_smooth_field(row) if isinstance(row, int) else box_field(*row)
              for row in rows]
    assert_stack_matches_standalone(fields, 0.01, SolverConfig(lambda_step=2e-3),
                                    STACK_DRIFTS[drift])


@pytest.mark.parametrize("drift", sorted(STACK_DRIFTS))
def test_flat_stack_operator_and_bands_equal_each_rows(drift):
    # three rows end to end: mass in the last cells of row 0 and the first
    # cells of row 1 meets at the seam between them, and row 2 is full; the
    # seams must carry no flux and the bands no coupling between rows
    drift = STACK_DRIFTS[drift]
    n, lam = 256, 2e-3
    width = n if not drift.vanishes else 150   # a drift-free window of the grid
    rows = [np.zeros(width), np.zeros(width), random_smooth_field(3, n=width).values]
    rows[0][-9:] = np.linspace(0.5, 2.0, 9)
    rows[1][:5] = np.linspace(1.5, 0.3, 5)
    grid = box_field(0, 16, n=n)
    alone = []
    for row in rows:
        op = _Operator(grid, SPEC, drift, 1)
        bands = op.jacobian(lam, width)
        flux = op.apply(row, np.empty(width))
        alone.append((flux, *(band.copy() for band in bands(row))))

    op = _Operator(grid, SPEC, drift, len(rows))
    bands = op.jacobian(lam, width)
    stack = np.concatenate(rows)
    flux = op.apply(stack, np.empty(stack.size))
    dl, d, du = bands(stack)
    for r, (row_flux, row_dl, row_d, row_du) in enumerate(alone):
        cells = slice(r * width, (r + 1) * width)
        assert np.array_equal(flux[cells].view(np.int64), row_flux.view(np.int64))
        assert np.array_equal(d[cells].view(np.int64), row_d.view(np.int64))
        inner = slice(r * width, (r + 1) * width - 1)
        assert np.array_equal(dl[inner].view(np.int64), row_dl.view(np.int64))
        assert np.array_equal(du[inner].view(np.int64), row_du.view(np.int64))
    seams = slice(width - 1, None, width)
    assert not dl[seams].any() and not du[seams].any()


def test_every_newton_iteration_solves_the_whole_stack(monkeypatch):
    # the rows' Newton counts differ, yet each gtsv call takes both rows
    sizes = []
    solve = fpe_solver._tridiagonal_solve

    def recorded(bands, rhs):
        sizes.append(rhs.size)
        return solve(bands, rhs)

    monkeypatch.setattr(fpe_solver, "_tridiagonal_solve", recorded)
    nu1, nu2 = random_smooth_field(7), random_smooth_field(8)
    steps = run_stack((nu1, nu2), 0.02, SolverConfig(lambda_step=2e-3),
                      tanh_drift(0.25))
    counts = [[step.infos[r].newton_iters for step in steps] for r in (0, 1)]
    assert counts[0] != counts[1]
    assert len(sizes) == sum(map(max, *counts))
    assert set(sizes) == {2 * nu1.n_cells}


def _fail_in_last_block(monkeypatch, n_rows, n, passes=0):
    """Let the first `passes` gtsv calls solve, and make every later one
    report a zero pivot in the last cell of an n_rows-by-n stack."""
    solve, calls = fpe_solver._tridiagonal_solve, []

    def failing(bands, rhs):
        calls.append(rhs.size)
        if len(calls) <= passes:
            return solve(bands, rhs)
        return rhs, n_rows * n

    monkeypatch.setattr(fpe_solver, "_tridiagonal_solve", failing)
    return calls


def test_stack_gtsv_failure_in_the_last_block_names_the_last_row(monkeypatch):
    # row 0 is empty and converged, yet the solve covers all three rows, so
    # gtsv info 3n falls in row 2 = (3n - 1) // n
    drift, lam = tanh_drift(0.25), 2e-3
    nu1, nu2 = random_smooth_field(7, n=200), random_smooth_field(8, n=200)
    n, dx = nu2.n_cells, nu2.cell_width
    op, alone = _Operator(nu2, SPEC, drift, 3), _Operator(nu2, SPEC, drift, 1)
    # the chain of three rows below: its rows' Newton counts at step 0, and
    # row 2's first iterate
    fields = (random_smooth_field(6, n=200), nu1, nu2)
    config = SolverConfig(lambda_step=lam)
    first = [step_chain(nu, lam, config, SPEC, drift).infos[0].newton_iters
             for nu in fields]
    u1 = step_chain(nu2, lam, config, SPEC, drift).values[0]

    fs = (np.zeros(n), nu1.values, nu2.values)
    calls = _fail_in_last_block(monkeypatch, 3, n)
    with pytest.raises(SolverError, match=f"gtsv info {3 * n}") as err:
        fpe_solver._newton_stack(op, fs, fs, lam, [np.empty(n) for _ in fs])
    assert calls == [3 * n]
    start = nu2.values + lam * apply_alone(alone, nu2.values) - nu2.values
    assert err.value.residual == float(np.sum(np.abs(start)) * dx)
    assert err.value.row == 2
    message = str(err.value)
    assert "row 2" in message and "after 0 iterations" in message
    assert f"residual {err.value.residual:.3e}" in message

    # the same failure at step 1 of the chain carries the step and the
    # residual of row 2 at its predictor start
    monkeypatch.undo()   # the first steps solve with gtsv itself
    _fail_in_last_block(monkeypatch, 3, n, passes=max(first))
    with pytest.raises(SolverError, match=f"gtsv info {3 * n}") as err:
        run_stack(fields, 0.02, config, drift)
    predictor = np.maximum(2.0 * u1 - nu2.values, 0.0)
    res = predictor + lam * apply_alone(alone, predictor) - u1
    assert (err.value.step, err.value.row) == (1, 2)
    assert err.value.residual == float(np.sum(np.abs(res)) * dx)


def test_stack_rejects_fields_on_different_grids():
    with pytest.raises(ValueError, match="different grids"):
        chain_steps((random_smooth_field(1), random_smooth_field(2, n=128)), 0.01,
                    SolverConfig(lambda_step=1e-3), SPEC, ZERO_DRIFT)


@pytest.mark.parametrize("nu", [(random_smooth_field(1),),
                                (random_smooth_field(1), random_smooth_field(2))],
                         ids=["one", "two"])
def test_step_chain_takes_one_field_and_names_the_stack_api(nu):
    with pytest.raises(TypeError, match="got tuple; chain_steps runs a stack"):
        step_chain(nu, 0.01, SolverConfig(lambda_step=1e-3), SPEC, ZERO_DRIFT)


def test_step_chain_does_not_revalidate_its_iterates(monkeypatch):
    # the solver's rows are clipped from a finite residual, and neither the
    # stream nor step_chain builds a field of them: scanning each again for
    # finiteness and sign would cost a full-grid pass per step
    nu = barenblatt_field(0.1, n=200, lo=-4, hi=4)

    def forbidden(self):
        raise AssertionError("a solver-built field was validated again")

    monkeypatch.setattr(GridField, "__post_init__", forbidden)
    traj = step_chain(nu, 0.02, SolverConfig(lambda_step=1e-3), SPEC,
                      tanh_drift(0.25))
    assert np.shares_memory(traj.infos[-1].values, traj.values[-1])


# -- entropy audit -------------------------------------------------------------

def test_entropy_audit_zero_field():
    zero = GridField(-2, 2, np.zeros(32))
    traj = Trajectory(initial=zero, times=np.array([0.01]),
                      values=zero.values[None, :], infos=[])
    rec = entropy_audit(traj, SPEC)[0]
    assert rec.entropy == 0.0
    assert rec.cumulative_dissipation == 0.0
    assert rec.audit_value == 0.0


def test_entropy_audit_driftless_descends():
    nu = gaussian_field(n=400)
    traj = step_chain(nu, 0.3, SolverConfig(lambda_step=2e-3), SPEC, ZERO_DRIFT)
    records = entropy_audit(traj, SPEC)
    assert all(r.audit_value <= 1e-6 for r in records)
    assert all(r.cumulative_dissipation >= 0.0 for r in records)


@pytest.mark.parametrize("nu", [
    barenblatt_field(0.1, n=1000),
    source_field(2.0, 0.1, 400, lo=-0.5, hi=3.0),   # support at the wall
    GridField(-3.0, 3.0, np.r_[np.zeros(40), np.ones(30), np.zeros(60),
                               np.ones(20), np.zeros(50)]).normalized(),
], ids=["barenblatt", "wall", "two_blocks"])
def test_entropy_audit_is_the_full_row_sum_bit_for_bit(nu):
    # the audit evaluates Psi and sqrt(beta) on the support only; its sums
    # must be those over every cell
    traj = step_chain(nu, 0.02, SolverConfig(lambda_step=2e-3), SPEC, ZERO_DRIFT)
    dx = nu.cell_width

    def entropy(vals):
        return float(np.sum(entropy_Psi(SPEC, vals)) * dx)

    cumulative, prev_t = 0.0, 0.0
    for rec, t, row in zip(entropy_audit(traj, SPEC), traj.times.tolist(), traj.values):
        root = np.sqrt(SPEC.beta(row))
        grad = (root[1:] - root[:-1]) / dx
        cumulative += (t - prev_t) * float(np.sum(grad * grad) * dx)
        prev_t = t
        assert rec.entropy == entropy(row)
        assert rec.cumulative_dissipation == cumulative
        assert rec.audit_value == rec.entropy + cumulative - entropy(nu.values)


def test_trajectory_binary_roundtrip(tmp_path):
    from nemytskii_lab.fpe_solver import read_trajectory_binary, write_trajectory_binary
    nu = barenblatt_field(0.1, n=64, lo=-3, hi=3)
    traj = step_chain(nu, 0.02, SolverConfig(lambda_step=1e-2), SPEC, ZERO_DRIFT)
    path = tmp_path / "traj.bin"
    with open(path, "wb") as fh:
        write_trajectory_binary(traj, fh)
    lo, hi, times, values = read_trajectory_binary(path)
    assert (lo, hi) == (-3.0, 3.0)
    assert np.array_equal(times, traj.times)
    assert np.array_equal(values, traj.values)


@pytest.mark.parametrize("cut", [-100, -8, 8])
def test_trajectory_binary_wrong_size_raises(tmp_path, cut):
    from nemytskii_lab.fpe_solver import read_trajectory_binary, write_trajectory_binary
    nu = barenblatt_field(0.1, n=64, lo=-3, hi=3)
    traj = step_chain(nu, 0.02, SolverConfig(lambda_step=1e-2), SPEC, ZERO_DRIFT)
    path = tmp_path / "traj.bin"
    with open(path, "wb") as fh:
        write_trajectory_binary(traj, fh)
    data = path.read_bytes()
    assert len(data) == 32 + 2 * 65 * 8
    path.write_bytes(data[:cut] if cut < 0 else data + bytes(cut))
    with pytest.raises(ValueError, match=f"2 steps of 64 cells take 1072 bytes, "
                                         f"found {1072 + cut}"):
        read_trajectory_binary(path)


def test_entropy_audit_barenblatt_dissipation_bounded():
    nu = barenblatt_field(0.1, n=1000)
    traj = step_chain(nu, 0.9, SolverConfig(lambda_step=2e-3), SPEC, ZERO_DRIFT)
    records = entropy_audit(traj, SPEC)
    dissip = records[-1].cumulative_dissipation
    initial_entropy = float(np.sum(entropy_Psi(SPEC, nu.values)) * nu.cell_width)
    bound = abs(initial_entropy) + 1.0
    assert 0.0 < dissip <= bound    # recorded value ~ 0.376 at this resolution
