import math

import numpy as np
import pytest

from nemytskii_lab.closed_form import barenblatt_eval, make_barenblatt
from nemytskii_lab.coefficients import DriftSpec, NonlinearitySpec, RegularizationParams
from nemytskii_lab.fpe_solver import (
    GridField,
    SolverConfig,
    SolverError,
    Trajectory,
    entropy_audit,
    resolvent_solve,
    semigroup_distance,
    step_chain,
)

SPEC = NonlinearitySpec.power_law(2.0)
ZERO_DRIFT = DriftSpec.zero()
REG = RegularizationParams(epsilon=1e-12)
P2 = make_barenblatt(1, 2.0)


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
    sol = resolvent_solve(f, 1e-3, SPEC, ZERO_DRIFT, REG)
    assert np.all(sol.field.values == 0.0)


def test_resolvent_mass_conservation():
    f = gaussian_field()
    sol = resolvent_solve(f, 1e-3, SPEC, ZERO_DRIFT, REG)
    # independent summation oracle
    oracle_in = math.fsum(f.values) * f.cell_width
    oracle_out = math.fsum(sol.field.values) * f.cell_width
    assert abs(oracle_out - oracle_in) <= 1e-10
    assert sol.residual_l1 <= 1e-12


def test_resolvent_l1_contraction_pair():
    a, b = random_smooth_field(1), random_smooth_field(2)
    sa = resolvent_solve(a, 1e-3, SPEC, ZERO_DRIFT, REG)
    sb = resolvent_solve(b, 1e-3, SPEC, ZERO_DRIFT, REG)
    assert sa.field.l1_distance(sb.field) <= a.l1_distance(b) + 1e-10


def test_resolvent_nonnegativity():
    for seed in range(5):
        f = random_smooth_field(seed)
        sol = resolvent_solve(f, 5e-3, SPEC, ZERO_DRIFT, REG)
        assert sol.field.values.min() >= 0.0
        assert sol.clipped_mass <= 1e-12
        assert sol.preclip_min >= 0.0


def test_resolvent_step_restriction():
    drift = DriftSpec(E=lambda x: np.ones_like(x), b=lambda r: np.ones_like(r),
                      sup_norm_E=1.0, sup_norm_b=1.0, div_E_minus_sup=0.0,
                      sup_div_minus_plus_E=1.0, b_is_constant=True)
    f = gaussian_field(n=64)
    with pytest.raises(ValueError, match="lambda"):
        resolvent_solve(f, 0.6, SPEC, drift, REG)   # lambda_0 = 0.5 here


def test_resolvent_small_lambda_consistency():
    f = gaussian_field()
    dists = []
    for lam in (1e-2, 1e-3, 1e-4):
        sol = resolvent_solve(f, lam, SPEC, ZERO_DRIFT, REG)
        dists.append(sol.field.l1_distance(f))
    assert dists[0] > dists[1] > dists[2]
    # O(lambda): each decade shrinks the distance by roughly 10x
    assert 5.0 < dists[0] / dists[1] < 20.0
    assert 5.0 < dists[1] / dists[2] < 20.0


def test_resolvent_newton_failure_carries_residual():
    f = gaussian_field(n=64)
    with pytest.raises(SolverError) as err:
        resolvent_solve(f, 1e-2, SPEC, ZERO_DRIFT, REG, newton_max_iter=1,
                        newton_tol=1e-14)
    assert math.isfinite(err.value.residual)


def test_resolvent_dirichlet_boundary_loses_mass_slowly():
    f = gaussian_field(n=256, lo=-4, hi=4)
    sol = resolvent_solve(f, 1e-3, SPEC, ZERO_DRIFT, REG, boundary="dirichlet_zero")
    assert sol.field.mass() <= f.mass() + 1e-12
    assert sol.field.values.min() >= 0.0


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
    for fld in traj.fields:
        assert abs(fld.mass() - 1.0) <= 1e-8
        assert fld.values.min() >= 0.0
    assert traj.total_clipped_mass() <= 1e-6


def test_step_chain_linf_nonincreasing_without_drift():
    nu = random_smooth_field(3)
    traj = step_chain(nu, 0.05, SolverConfig(lambda_step=2.5e-3), SPEC, ZERO_DRIFT)
    cap = nu.linf() * (1 + 1e-6)
    assert all(f.linf() <= cap for f in traj.fields)


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
    assert len(traj.fields) == 3
    assert traj.times[-1] == pytest.approx(0.025, abs=1e-14)
    assert traj.field_at(0.015).l1_distance(traj.fields[1]) == 0.0


def test_step_chain_drift_linf_bound():
    amp = 0.25
    drift = DriftSpec.constant_b(
        E=lambda x: -amp * np.tanh(np.asarray(x, dtype=float)),
        b0=1.0, sup_norm_E=amp, div_E_minus_sup=amp,
        sup_div_minus_plus_E=1.25 * amp)
    nu = gaussian_field(n=400)
    traj = step_chain(nu, 0.5, SolverConfig(lambda_step=2e-3), SPEC, drift)
    c = drift.combined_sup()
    for t, fld in zip(traj.times, traj.fields):
        assert fld.linf() <= math.exp(math.sqrt(c) * t) * nu.linf() * 1.001
        assert abs(fld.mass() - 1.0) <= 1e-8


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


def test_worker_cap_respected(monkeypatch):
    from nemytskii_lab.fpe_solver import worker_count
    monkeypatch.setenv("NEMYTSKII_THREADS", "1")
    assert worker_count() == 1
    monkeypatch.setenv("NEMYTSKII_THREADS", "8")
    assert worker_count() == 8
    monkeypatch.delenv("NEMYTSKII_THREADS")
    assert worker_count(default=3) == 3


# -- entropy audit -------------------------------------------------------------

def test_entropy_audit_zero_field():
    zero = GridField(-2, 2, np.zeros(32))
    traj = Trajectory(initial=zero, times=[0.01], fields=[zero], infos=[])
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


def test_trajectory_binary_roundtrip(tmp_path):
    from nemytskii_lab.fpe_solver import read_trajectory_binary, write_trajectory_binary
    nu = barenblatt_field(0.1, n=64, lo=-3, hi=3)
    traj = step_chain(nu, 0.02, SolverConfig(lambda_step=1e-2), SPEC, ZERO_DRIFT)
    path = tmp_path / "traj.bin"
    write_trajectory_binary(traj, path)
    lo, hi, times, fields = read_trajectory_binary(path)
    assert (lo, hi) == (-3.0, 3.0)
    assert times == traj.times
    assert all(np.array_equal(a, b.values) for a, b in zip(fields, traj.fields))


def test_entropy_audit_barenblatt_dissipation_bounded():
    from nemytskii_lab.analysis import entropy_of_field
    nu = barenblatt_field(0.1, n=1000)
    traj = step_chain(nu, 0.9, SolverConfig(lambda_step=2e-3), SPEC, ZERO_DRIFT)
    records = entropy_audit(traj, SPEC)
    dissip = records[-1].cumulative_dissipation
    bound = abs(entropy_of_field(nu, SPEC)) + 1.0
    assert 0.0 < dissip <= bound    # recorded value ~ 0.376 at this resolution
