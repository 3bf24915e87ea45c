import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nemytskii_lab import particle_sim
from nemytskii_lab.analysis import w1_distance
from nemytskii_lab.closed_form import barenblatt_eval, barenblatt_moment2, make_barenblatt
from nemytskii_lab.coefficients import DriftSpec, NonlinearitySpec
from nemytskii_lab.fpe_solver import GridField, SolverConfig, step_chain
from nemytskii_lab.particle_sim import (
    ParticleEnsemble,
    SimConfig,
    SimulationError,
    coupling_experiment,
    em_step,
    frozen_density,
    kde_density,
    run,
    seed_from_density,
)

SPEC2 = NonlinearitySpec.power_law(2.0)
ZERO_DRIFT = DriftSpec.zero()
P2 = make_barenblatt(2.0)
T0 = 0.1
BB_INIT = lambda x: barenblatt_eval(P2, T0, x)
CLAMP = 2.0 * P2.C_norm * T0 ** (-P2.alpha)


def small_config(**kw):
    base = dict(n_particles=2000, dt=1e-3, t0=T0, T=0.2, seed=42, linf_clamp=CLAMP)
    base.update(kw)
    return SimConfig(**base)


# -- seeding -------------------------------------------------------------------

def test_seed_requires_unit_mass():
    with pytest.raises(ValueError, match="mass"):
        seed_from_density(lambda x: 0.9 * BB_INIT(x), 500, 0, -5, 5)


def test_seed_symmetric_mean():
    ens = seed_from_density(BB_INIT, 50_000, 1, -5, 5, t0=T0)
    std = float(np.std(ens.positions))
    assert abs(np.mean(ens.positions)) <= 4.0 * std / math.sqrt(ens.n)


def test_seed_variance_matches_moment():
    ens = seed_from_density(BB_INIT, 100_000, 2, -5, 5, t0=T0)
    target = barenblatt_moment2(P2, T0)
    assert np.var(ens.positions) == pytest.approx(target, rel=0.03)


def test_seed_uniform_ks_envelope():
    n = 100_000
    ens = seed_from_density(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                            n, 3, 0.0, 1.0)
    s = np.sort(ens.positions)
    emp = np.arange(1, n + 1) / n
    ks = np.max(np.maximum(np.abs(emp - s), np.abs(emp - 1.0 / n - s)))
    assert ks <= 1.36 / math.sqrt(n)


# -- kernels ---------------------------------------------------------------------

def test_kde_single_cluster_peak():
    pos = np.zeros(500)
    ens = ParticleEnsemble(positions=pos, t=0.0, seed=0, step_index=0)
    # the Epanechnikov peak 0.75/h
    assert kde_density(ens, 0.5, 0.0) == pytest.approx(0.75 / 0.5, abs=1e-12)


def test_kde_compact_support_vanishes():
    rng = np.random.default_rng(0)
    ens = ParticleEnsemble(positions=rng.uniform(-1, 1, 500), t=0.0, seed=0,
                           step_index=0)
    assert kde_density(ens, 0.2, 5.0) == 0.0


def test_kde_rejects_a_nan_bandwidth():
    ens = ParticleEnsemble(positions=np.zeros(500), t=0.0, seed=0, step_index=0)
    with pytest.raises(ValueError, match="bandwidth must be positive, got nan"):
        kde_density(ens, math.nan, 0.0)


def test_kde_consistency_at_center():
    ens = seed_from_density(lambda x: barenblatt_eval(P2, 1.0, x), 100_000, 3,
                            -5, 5, t0=1.0)
    val = kde_density(ens, particle_sim._silverman_bandwidth(ens.positions), 0.0)
    assert val == pytest.approx(P2.C_norm, rel=0.05)


def test_binned_density_tracks_exact_kernel_sum():
    ens = seed_from_density(BB_INIT, 20_000, 4, -5, 5, t0=T0)
    bw = particle_sim._silverman_bandwidth(ens.positions)
    approx = frozen_density(ens, bw)
    xs = np.linspace(-1.2, 1.2, 41)
    exact = kde_density(ens, bw, xs)
    assert np.max(np.abs(approx(xs) - exact)) <= 2e-3 * max(1.0, exact.max())


def _interp_reference(ens, h, n_grid_cells):
    """frozen_density's grid and values, evaluated by np.interp's search."""
    pos = ens.positions
    lo = float(pos.min()) - 2.0 * h
    hi = float(pos.max()) + 2.0 * h
    step = (hi - lo) / n_grid_cells
    grid = lo + np.arange(n_grid_cells + 1) * step
    counts, _ = np.histogram(pos, bins=n_grid_cells + 1,
                             range=(lo - 0.5 * step, hi + 0.5 * step))
    reach = int(math.ceil(h / step))
    kern = particle_sim._kernel_profile(np.arange(-reach, reach + 1) * step / h) / h
    dens = np.convolve(counts, kern, mode="same") / pos.size
    return grid, lambda x: np.interp(x, grid, dens, left=0.0, right=0.0)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(100, 3000),
       scale=st.floats(1e-3, 1e3), center=st.floats(-1e3, 1e3),
       cells=st.sampled_from([16, 257, 4096]))
@settings(max_examples=40, deadline=None)
def test_frozen_density_lookup_is_np_interp_bit_for_bit(seed, n, scale, center,
                                                        cells):
    rng = np.random.default_rng(seed)
    pos = center + scale * rng.standard_normal(n)
    ens = ParticleEnsemble(positions=pos, t=0.0, seed=seed, step_index=0)
    bw = particle_sim._silverman_bandwidth(pos)
    grid, reference = _interp_reference(ens, bw, cells)
    span = grid[-1] - grid[0]
    queries = np.concatenate([
        pos,                                       # in range
        pos - span, pos + span,                    # outside on each side
        grid, 0.5 * (grid[1:] + grid[:-1]),        # every node and midpoint
        np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
        rng.uniform(grid[0] - 0.1 * span, grid[-1] + 0.1 * span, n),
    ])
    got = frozen_density(ens, bw, cells)(queries)
    assert np.array_equal(got.view(np.int64), reference(queries).view(np.int64))


# -- stepping ---------------------------------------------------------------------

def test_em_step_vacuum_is_frozen():
    ens = seed_from_density(BB_INIT, 1000, 5, -5, 5, t0=T0)
    out = em_step(ens, 1e-3, SPEC2, ZERO_DRIFT,
                  density=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                  clamp=CLAMP)
    assert np.array_equal(out.positions, ens.positions)


def test_em_step_increment_scale():
    n = 200_000
    pos = np.zeros(n)
    ens = ParticleEnsemble(positions=pos, t=0.0, seed=9, step_index=0)
    out = em_step(ens, 1e-2, SPEC2, ZERO_DRIFT,
                  density=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
                  clamp=CLAMP)
    # sigma^2 = 2 beta(0.5)/0.5 = 1, so the increment std is sqrt(dt)
    assert np.std(out.positions) == pytest.approx(math.sqrt(1e-2), rel=0.02)


def test_em_step_determinism():
    ens = seed_from_density(BB_INIT, 1000, 6, -5, 5, t0=T0)
    density = frozen_density(ens, particle_sim._silverman_bandwidth(ens.positions))
    a = em_step(ens, 1e-3, SPEC2, ZERO_DRIFT, density=density, clamp=CLAMP)
    b = em_step(ens, 1e-3, SPEC2, ZERO_DRIFT, density=density, clamp=CLAMP)
    assert np.array_equal(a.positions, b.positions)


def test_em_step_non_finite_position_names_the_particle():
    ens = seed_from_density(BB_INIT, 1000, 7, -5, 5, t0=T0)
    nan_right = DriftSpec.constant_b(
        E=lambda x: np.where(np.asarray(x) > 0, np.nan, 0.0), b0=1.0,
        sup_norm_E=1.0, div_E_minus_sup=0.0)
    with pytest.raises(SimulationError) as err:
        density = frozen_density(ens, particle_sim._silverman_bandwidth(ens.positions))
        em_step(ens, 1e-3, SPEC2, nan_right, density=density, clamp=CLAMP)
    assert err.value.particle_index == int(np.flatnonzero(ens.positions > 0)[0])


def test_run_determinism_bit_identical():
    cfg = small_config()
    r1 = run(cfg, SPEC2, ZERO_DRIFT, BB_INIT)
    r2 = run(cfg, SPEC2, ZERO_DRIFT, BB_INIT)
    assert np.array_equal(r1.final.positions, r2.final.positions)
    assert r1.variances == r2.variances


def test_run_looks_up_the_density_once_per_step(monkeypatch):
    lookups = []
    build = particle_sim.frozen_density

    def counted(*args, **kwargs):
        evaluate = build(*args, **kwargs)

        def lookup(x):
            lookups.append(np.size(x))
            return evaluate(x)

        return lookup

    monkeypatch.setattr(particle_sim, "frozen_density", counted)
    cfg = small_config(n_particles=500, T=0.11)
    run(cfg, SPEC2, ZERO_DRIFT, BB_INIT)
    assert lookups == [cfg.n_particles] * 10


def test_run_mean_stays_centered():
    cfg = small_config(n_particles=20_000, T=0.3)
    res = run(cfg, SPEC2, ZERO_DRIFT, BB_INIT)
    var = res.variances[-1]
    assert abs(res.means[-1]) <= 4.0 * math.sqrt(var / cfg.n_particles)


def test_run_variance_growth_law():
    cfg = small_config(n_particles=50_000, T=0.5, dt=2e-3)
    res = run(cfg, SPEC2, ZERO_DRIFT, BB_INIT,
              snapshot_times=np.linspace(T0, 0.5, 9)[1:])
    assert res.loglog_variance_slope() == pytest.approx(2.0 / 3.0, abs=0.05)


@pytest.mark.parametrize("simulate", [
    lambda cfg, drift: run(cfg, SPEC2, drift, BB_INIT),
    lambda cfg, drift: coupling_experiment(cfg, SPEC2, drift, 0.0, BB_INIT),
], ids=["run", "coupling"])
def test_run_watchdog_catches_blowup(simulate):
    drift = DriftSpec.constant_b(E=lambda x: np.full_like(np.asarray(x, dtype=float), 1e7),
                                 b0=1.0, sup_norm_E=1e7, div_E_minus_sup=0.0,
                                 sup_div_minus_plus_E=1e7)
    cfg = small_config(n_particles=200, dt=0.05, T=0.3)
    with pytest.raises(SimulationError, match="watchdog"):
        simulate(cfg, drift)


def test_marginal_agreement_improves_with_n():
    t_end = 0.5
    nu = GridField.from_function(-4, 4, 800, lambda x: barenblatt_eval(P2, T0, x)).normalized()
    traj = step_chain(nu, t_end - T0, SolverConfig(lambda_step=2e-3), SPEC2, ZERO_DRIFT)
    w1s = []
    for n in (1000, 10_000, 100_000):
        cfg = small_config(n_particles=n, T=t_end, dt=2e-3, seed=11)
        res = run(cfg, SPEC2, ZERO_DRIFT, BB_INIT,
                  snapshot_times=[t_end])
        w1s.append(w1_distance(res.final.positions, traj.final))
    assert w1s[0] > w1s[1] > w1s[2]


# -- coupling ----------------------------------------------------------------------

def test_coupling_zero_perturbation_exact():
    cfg = small_config(T=0.15)
    records = coupling_experiment(cfg, SPEC2, ZERO_DRIFT, 0.0, BB_INIT)
    assert all(r.sup_distance == 0.0 for r in records)
    assert all(r.f_delta_mean == 0.0 for r in records)


def test_coupling_small_perturbation_stays_small():
    cfg = small_config(n_particles=5000, T=0.3)
    records = coupling_experiment(cfg, SPEC2, ZERO_DRIFT, 1e-8, BB_INIT)
    assert records[-1].sup_distance <= 1e-2
    assert all(math.isfinite(r.f_delta_mean) for r in records)


def test_coupling_rejects_negative_perturbation():
    with pytest.raises(ValueError):
        coupling_experiment(small_config(), SPEC2, ZERO_DRIFT, -1.0, BB_INIT)


def test_coupling_rejects_a_nan_perturbation():
    with pytest.raises(ValueError, match="perturbation must be nonnegative, got nan"):
        coupling_experiment(small_config(), SPEC2, ZERO_DRIFT, math.nan, BB_INIT)


# -- config validation ----------------------------------------------------------

def test_sim_config_validation():
    with pytest.raises(ValueError):
        small_config(n_particles=50)
    with pytest.raises(ValueError):
        small_config(dt=-1e-3)
    with pytest.raises(ValueError):
        small_config(T=T0)
    with pytest.raises(ValueError):
        small_config(linf_clamp=0.0)
    with pytest.raises(ValueError, match="dt must be positive"):
        small_config(dt=math.nan)
    with pytest.raises(ValueError, match=r"give no step: round\(\(T - t0\)/dt\) = 0"):
        small_config(T=T0 + 0.4 * small_config().dt)
