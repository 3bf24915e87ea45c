import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nemytskii_lab import particle_sim
from nemytskii_lab.analysis import w1_distance
from nemytskii_lab.closed_form import barenblatt_eval, barenblatt_moment2, make_barenblatt
from nemytskii_lab.coefficients import DriftSpec, NonlinearitySpec, sigma_squared
from nemytskii_lab.fpe_solver import GridField, SolverConfig, step_chain
from nemytskii_lab.particle_sim import (
    ParticleEnsemble,
    SimConfig,
    SimulationError,
    coupling_experiment,
    em_step,
    frozen_density,
    run,
    seed_from_density,
)

SPEC2 = NonlinearitySpec.power_law(2.0)
ZERO_DRIFT = DriftSpec.zero()
P2 = make_barenblatt(2.0)
T0 = 0.1
BB_INIT = lambda x: barenblatt_eval(P2, T0, x)
CLAMP = 2.0 * P2.C_norm * T0 ** (-P2.alpha)


TANH_DRIFT = DriftSpec.constant_b(E=lambda x: -0.25 * np.tanh(np.asarray(x, dtype=float)),
                                  b0=1.0, sup_norm_E=0.25, div_E_minus_sup=0.25,
                                  sup_div_minus_plus_E=0.3125)


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

def kde_density(ensemble: ParticleEnsemble, bandwidth: float, x):
    """Exact Epanechnikov kernel sum (1/N) sum_i K_h(x - X_i) at the queries.

    Nonnegative by construction, integrates to 1 and vanishes farther than
    one bandwidth from every particle: the oracle of the binned estimator
    the step loop uses.
    """
    h = bandwidth
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h!r}")
    xq = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xq)
    chunk = max(1, int(2e6 / max(ensemble.n, 1)))
    for start in range(0, xq.size, chunk):
        block = (xq[start:start + chunk, None] - ensemble.positions[None, :]) / h
        out[start:start + chunk] = np.mean(0.75 * np.maximum(1.0 - block * block, 0.0),
                                           axis=1) / h
    return out if np.ndim(x) else float(out[0])


def test_kde_single_cluster_peak():
    pos = np.zeros(500)
    ens = ParticleEnsemble(positions=pos, t=0.0)
    # the Epanechnikov peak 0.75/h
    assert kde_density(ens, 0.5, 0.0) == pytest.approx(0.75 / 0.5, abs=1e-12)


def test_kde_compact_support_vanishes():
    rng = np.random.default_rng(0)
    ens = ParticleEnsemble(positions=rng.uniform(-1, 1, 500), t=0.0)
    assert kde_density(ens, 0.2, 5.0) == 0.0


def test_kde_rejects_a_nan_bandwidth():
    ens = ParticleEnsemble(positions=np.zeros(500), t=0.0)
    with pytest.raises(ValueError, match="bandwidth must be positive, got nan"):
        kde_density(ens, math.nan, 0.0)


def test_kde_consistency_at_center():
    ens = seed_from_density(lambda x: barenblatt_eval(P2, 1.0, x), 100_000, 3,
                            -5, 5, t0=1.0)
    val = kde_density(ens, particle_sim._silverman_bandwidth(ens), 0.0)
    assert val == pytest.approx(P2.C_norm, rel=0.05)


def test_binned_density_tracks_exact_kernel_sum():
    ens = seed_from_density(BB_INIT, 20_000, 4, -5, 5, t0=T0)
    bw = particle_sim._silverman_bandwidth(ens)
    approx = frozen_density(ens, bw)
    xs = np.linspace(-1.2, 1.2, 41)
    exact = kde_density(ens, bw, xs)
    assert np.max(np.abs(approx(xs) - exact)) <= 2e-3 * max(1.0, exact.max())


def _interp_reference(ens, h, n_grid_cells):
    """frozen_density's grid, np.histogram's counts and np.interp's lookup."""
    pos = ens.positions
    lo = float(pos.min()) - 2.0 * h
    hi = float(pos.max()) + 2.0 * h
    step = (hi - lo) / n_grid_cells
    grid = lo + np.arange(n_grid_cells + 1) * step
    counts, edges = np.histogram(pos, bins=n_grid_cells + 1,
                                 range=(lo - 0.5 * step, hi + 0.5 * step))
    reach = int(math.ceil(h / step))
    kern = particle_sim._kernel_profile(np.arange(-reach, reach + 1) * step / h) / h
    dens = np.convolve(counts, kern, mode="same") / pos.size
    return grid, edges, counts, lambda x: np.interp(x, grid, dens, left=0.0, right=0.0)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(100, 3000),
       scale=st.floats(1e-3, 1e3), center=st.floats(-1e3, 1e3),
       cells=st.sampled_from([16, 257, 4096]))
@settings(max_examples=40, deadline=None)
def test_frozen_density_lookup_is_np_interp_bit_for_bit(seed, n, scale, center,
                                                        cells):
    rng = np.random.default_rng(seed)
    base = center + scale * rng.standard_normal(n)
    base_ens = ParticleEnsemble(positions=base, t=0.0)
    bw = particle_sim._silverman_bandwidth(base_ens)
    # add particles on every bin edge and node between the extreme particles,
    # and one ulp either side of each edge; the grid depends only on the
    # extremes and the bandwidth, so it stays the same
    grid0, edges, _, _ = _interp_reference(base_ens, bw, cells)
    marks = np.concatenate([edges, np.nextafter(edges, -np.inf),
                            np.nextafter(edges, np.inf), grid0])
    pos = np.concatenate([base, marks[(marks >= base.min()) & (marks <= base.max())]])
    ens = ParticleEnsemble(positions=pos, t=0.0)
    grid, _, counts, reference = _interp_reference(ens, bw, cells)
    assert np.array_equal(grid, grid0)
    got_grid, got_counts, evaluate = particle_sim._binned_kde(ens, bw, cells)
    assert np.array_equal(got_grid, grid)
    assert np.array_equal(got_counts, counts)

    # the ensemble's own array reuses the particles' cells; a copy does not
    assert _same_bits(evaluate(ens.positions), reference(pos))
    assert _same_bits(evaluate(pos.copy()), reference(pos))
    span = grid[-1] - grid[0]
    queries = np.concatenate([
        pos,                                       # in range
        pos - span, pos + span,                    # outside on each side
        grid, 0.5 * (grid[1:] + grid[:-1]),        # every node and midpoint
        np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
        rng.uniform(grid[0] - 0.1 * span, grid[-1] + 0.1 * span, n),
    ])
    assert _same_bits(frozen_density(ens, bw, cells)(queries), reference(queries))


def test_frozen_density_counts_particles_on_the_extreme_nodes():
    # a bandwidth far below the spacing puts the grid's ends on the extreme
    # particles: nodes at the integers 1..4097, bin edges at the half-integers
    nodes = np.arange(1.0, 4098.0)
    pos = np.concatenate([nodes, nodes[:-1] + 0.5, [1.0, 4097.0]])
    ens = ParticleEnsemble(positions=pos, t=0.0)
    grid, _, counts, reference = _interp_reference(ens, 1e-20, 4096)
    assert np.array_equal(grid, nodes)
    assert counts[0] == 2 and counts[-1] == 3
    got_grid, got_counts, evaluate = particle_sim._binned_kde(ens, 1e-20, 4096)
    assert np.array_equal(got_counts, counts)
    assert _same_bits(evaluate(ens.positions), reference(pos))


@pytest.mark.parametrize("ulps", [65, 100, 300, 1e3, 1e4, 1e6, 1e9])
@pytest.mark.parametrize("center", [0.0, 1.0, 1e3, -3e5])
def test_frozen_density_is_exact_on_coarse_grids(center, ulps):
    # 64 cells of ulps * unit, unit the spacing of the grid's ends: the floor
    # arithmetic's rounding is then a large part of a step.  Around 0 the
    # ends are 32 steps out, so unit = 1 and the steps are 1e14 ulp or more.
    unit = float(np.spacing(abs(center))) if center else 1.0
    step = ulps * unit
    h = 4.0 * step
    # extreme particles 24 steps either side of the centre, so the grid's
    # ends (2h further out) and its nodes are exact multiples of unit
    lo_p, hi_p = center - 24.0 * step, center + 24.0 * step
    extremes = ParticleEnsemble(positions=np.repeat([lo_p, hi_p], 50), t=0.0)
    grid, edges, _, _ = _interp_reference(extremes, h, 64)
    assert np.array_equal(np.diff(grid), np.full(64, step))
    # particles on every node and edge between the extremes, and one ulp
    # either side of each
    marks = np.concatenate([grid, edges])
    marks = np.concatenate([marks, np.nextafter(marks, -np.inf),
                            np.nextafter(marks, np.inf)])
    pos = np.concatenate([[lo_p, hi_p], marks[(marks >= lo_p) & (marks <= hi_p)]])
    ens = ParticleEnsemble(positions=pos, t=0.0)
    ref_grid, _, counts, reference = _interp_reference(ens, h, 64)
    assert np.array_equal(ref_grid, grid)
    got_grid, got_counts, evaluate = particle_sim._binned_kde(ens, h, 64)
    assert np.array_equal(got_grid, grid)
    assert np.array_equal(got_counts, counts)

    assert _same_bits(evaluate(ens.positions), reference(pos))
    assert _same_bits(evaluate(pos.copy()), reference(pos))
    span = grid[-1] - grid[0]
    queries = np.concatenate([marks, grid - span, grid + span,
                              [-np.inf, np.inf, np.nan, -1e300, 1e300]])
    assert _same_bits(evaluate(queries), reference(queries))


def test_frozen_density_rejects_a_grid_that_cannot_resolve_the_particles():
    ens = ParticleEnsemble(positions=np.full(500, 1e4), t=0.0)
    with pytest.raises(ValueError, match="does not resolve particles near 10000.0"):
        frozen_density(ens, 1e-12)


# -- stepping ---------------------------------------------------------------------

def _noise(ens, seed, step=1):
    """The block that drives step `step` of a run seeded with `seed`."""
    return particle_sim._noise_block(seed, step, ens.n)


def test_em_step_vacuum_is_frozen():
    ens = seed_from_density(BB_INIT, 1000, 5, -5, 5, t0=T0)
    out = em_step(ens, 1e-3, SPEC2, ZERO_DRIFT,
                  density=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                  clamp=CLAMP, noise=_noise(ens, 5))
    assert np.array_equal(out.positions, ens.positions)


def test_em_step_increment_scale():
    n = 200_000
    pos = np.zeros(n)
    ens = ParticleEnsemble(positions=pos, t=0.0)
    out = em_step(ens, 1e-2, SPEC2, ZERO_DRIFT,
                  density=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
                  clamp=CLAMP, noise=_noise(ens, 9))
    # sigma^2 = 2 beta(0.5)/0.5 = 1, so the increment std is sqrt(dt)
    assert np.std(out.positions) == pytest.approx(math.sqrt(1e-2), rel=0.02)


def test_em_step_moves_each_particle_by_its_drift_and_its_noise():
    # the step written out from its definition: new - old - sqrt(sigma^2(u)
    # dt) noise = E(x) b(u) dt, with u the density at the particle, which the
    # clamp caps in sigma^2 only.  E changes sign at atanh(0.5) and b(r) =
    # r/(1 + r) is not constant, so a flipped drift, or b replaced by 1,
    # moves the particles elsewhere.
    rng = np.random.default_rng(11)
    pos = np.sort(rng.uniform(-3.0, 3.0, 500))
    drift = DriftSpec(E=lambda x: 0.5 - np.tanh(np.asarray(x, dtype=float)),
                      b=lambda r: np.asarray(r, dtype=float) / (1.0 + np.abs(r)),
                      sup_norm_E=1.5, sup_norm_b=1.0, div_E_minus_sup=1.0)

    def density(x):
        return 0.8 * np.exp(-np.asarray(x, dtype=float) ** 2)

    noise = rng.standard_normal(pos.size)
    dt, clamp = 1e-2, 0.5   # the densities near 0 exceed the clamp
    out = em_step(ParticleEnsemble(positions=pos.copy(), t=0.0), dt, SPEC2, drift,
                  density=density, clamp=clamp, noise=noise)
    u = density(pos)
    assert u.max() > clamp
    diffusion = np.sqrt(sigma_squared(SPEC2, np.minimum(u, clamp)) * dt) * noise
    # the positions are at most 4 in size, so the step rounds at about 1e-15
    np.testing.assert_allclose(out.positions - pos - diffusion,
                               drift.E(pos) * drift.b(u) * dt, rtol=0, atol=1e-14)


def test_em_step_determinism():
    ens = seed_from_density(BB_INIT, 1000, 6, -5, 5, t0=T0)
    density = frozen_density(ens, particle_sim._silverman_bandwidth(ens))
    a = em_step(ens, 1e-3, SPEC2, ZERO_DRIFT, density=density, clamp=CLAMP,
                noise=_noise(ens, 6))
    b = em_step(ens, 1e-3, SPEC2, ZERO_DRIFT, density=density, clamp=CLAMP,
                noise=_noise(ens, 6))
    assert np.array_equal(a.positions, b.positions)


def test_em_step_non_finite_position_names_the_particle():
    ens = seed_from_density(BB_INIT, 1000, 7, -5, 5, t0=T0)
    nan_right = DriftSpec.constant_b(
        E=lambda x: np.where(np.asarray(x) > 0, np.nan, 0.0), b0=1.0,
        sup_norm_E=1.0, div_E_minus_sup=0.0)
    with pytest.raises(SimulationError) as err:
        density = frozen_density(ens, particle_sim._silverman_bandwidth(ens))
        em_step(ens, 1e-3, SPEC2, nan_right, density=density, clamp=CLAMP,
                noise=_noise(ens, 7))
    assert err.value.particle_index == int(np.flatnonzero(ens.positions > 0)[0])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_ensemble_names_the_first_non_finite_particle(bad):
    pos = np.linspace(-1.0, 1.0, 500)
    pos[[137, 300]] = bad
    with pytest.raises(SimulationError, match="non-finite") as err:
        ParticleEnsemble(positions=pos, t=0.0)
    assert err.value.particle_index == 137


def test_ensemble_bounds_are_the_positions_min_and_max():
    pos = np.random.default_rng(3).standard_normal(500)
    ens = ParticleEnsemble(positions=pos, t=0.0)
    assert ens.bounds == (pos.min(), pos.max())
    moved = replace(ens, positions=pos + 1.0)
    assert moved.bounds == ((pos + 1.0).min(), (pos + 1.0).max())


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


@pytest.mark.parametrize("twins", [False, True], ids=["run", "coupling"])
def test_each_step_calls_sigma_squared_once_per_ensemble(monkeypatch, twins):
    # the traced benchmark counts sigma_squared through this module attribute
    calls = []
    original = particle_sim.sigma_squared

    def counted(spec, r):
        calls.append(np.size(r))
        return original(spec, r)

    monkeypatch.setattr(particle_sim, "sigma_squared", counted)
    cfg = small_config(n_particles=500, T=0.11)
    if twins:
        coupling_experiment(cfg, SPEC2, ZERO_DRIFT, 1e-3, BB_INIT)
    else:
        run(cfg, SPEC2, ZERO_DRIFT, BB_INIT)
    assert calls == [cfg.n_particles] * (cfg.n_steps * (2 if twins else 1))


def _hand_loop(cfg, drift, ensembles):
    """The ensembles after each step, with every noise block drawn here."""
    out = []
    for s in range(cfg.n_steps):
        density = frozen_density(
            ensembles[0], particle_sim._silverman_bandwidth(ensembles[0]))
        ensembles = tuple(em_step(e, cfg.dt, SPEC2, drift, density, cfg.linf_clamp,
                                  _noise(e, cfg.seed, s + 1)) for e in ensembles)
        out.append(ensembles)
    return out


@pytest.mark.parametrize("drift", [ZERO_DRIFT, TANH_DRIFT], ids=["zero", "tanh"])
def test_run_equals_a_loop_that_draws_its_own_noise(drift):
    cfg = small_config(T=0.15)
    every_step = T0 + cfg.dt * np.arange(1, cfg.n_steps + 1)
    res = run(cfg, SPEC2, drift, BB_INIT, snapshot_times=every_step,
              keep_positions=True)
    hand = _hand_loop(cfg, drift, (particle_sim._seeded(cfg, BB_INIT),))
    assert len(res.position_snapshots) == len(hand) == cfg.n_steps
    for snap, (ens,) in zip(res.position_snapshots, hand):
        assert _same_bits(snap, ens.positions)
    assert _same_bits(res.times, [e.t for (e,) in hand])
    assert _same_bits(res.means, [np.mean(e.positions) for (e,) in hand])
    assert _same_bits(res.variances, [np.var(e.positions) for (e,) in hand])
    assert _same_bits(res.final.positions, hand[-1][0].positions)


@pytest.mark.parametrize("perturbation", [0.0, 1e-3])
@pytest.mark.parametrize("drift", [ZERO_DRIFT, TANH_DRIFT], ids=["zero", "tanh"])
def test_coupling_equals_a_loop_that_draws_its_own_noise(drift, perturbation):
    cfg = small_config(T=0.15)
    records = coupling_experiment(cfg, SPEC2, drift, perturbation, BB_INIT)
    x = particle_sim._seeded(cfg, BB_INIT)
    hand = _hand_loop(cfg, drift, (x, replace(x, positions=x.positions + perturbation)))
    assert len(records) == len(hand) == cfg.n_steps
    for r, (a, b) in zip(records, hand):
        z = a.positions - b.positions
        expected = (a.t, np.max(np.abs(z)),
                    np.mean(np.log(z * z / particle_sim.COUPLING_DELTA**2 + 1.0)))
        assert _same_bits([r.t, r.sup_distance, r.f_delta_mean], expected)


@pytest.mark.parametrize("twins", [False, True], ids=["run", "coupling"])
def test_each_step_draws_one_block_keyed_by_the_run_seed(monkeypatch, twins):
    # the seeding uniforms are block 0; step s + 1 is driven by block s + 1,
    # and a coupled pair's two blocks are one draw
    keys = []
    original = particle_sim._noise_block

    def counted(seed, step, n, kind="normal", out=None):
        keys.append((seed, step))
        return original(seed, step, n, kind=kind, out=out)

    monkeypatch.setattr(particle_sim, "_noise_block", counted)
    cfg = small_config(n_particles=500, T=0.11)
    if twins:
        coupling_experiment(cfg, SPEC2, ZERO_DRIFT, 1e-3, BB_INIT)
    else:
        run(cfg, SPEC2, ZERO_DRIFT, BB_INIT)
    assert keys == [(cfg.seed, s) for s in range(cfg.n_steps + 1)]


def test_the_watchdog_names_the_step_of_the_loop():
    blowup = DriftSpec.constant_b(E=lambda x: np.full_like(np.asarray(x, dtype=float), 1e7),
                                  b0=1.0, sup_norm_E=1e7, div_E_minus_sup=0.0)
    cfg = small_config(n_particles=200, dt=0.05, T=0.3)
    with pytest.raises(SimulationError, match=r"at step 1 \(t = 0\.15\)"):
        coupling_experiment(cfg, SPEC2, blowup, 0.0, BB_INIT)


def test_the_step_loop_joins_its_one_worker_on_every_exit():
    start = threading.active_count()
    run(small_config(n_particles=500, T=0.11), SPEC2, ZERO_DRIFT, BB_INIT)
    assert threading.active_count() == start

    blowup = DriftSpec.constant_b(E=lambda x: np.full_like(np.asarray(x, dtype=float), 1e7),
                                  b0=1.0, sup_norm_E=1e7, div_E_minus_sup=0.0)
    with pytest.raises(SimulationError, match="watchdog"):
        run(small_config(n_particles=200, dt=0.05, T=0.3), SPEC2, blowup, BB_INIT)
    assert threading.active_count() == start

    cfg = small_config(n_particles=500)
    steps = particle_sim._steps(cfg, SPEC2, ZERO_DRIFT,
                                (particle_sim._seeded(cfg, BB_INIT),))
    next(steps)
    assert threading.active_count() == start + 1
    steps.close()
    assert threading.active_count() == start


def test_concurrent_runs_under_a_short_switch_interval_keep_their_bytes():
    # four runs at once: eight threads on the host's cores, switching often
    cfg = small_config(n_particles=500, T=0.13)
    expected = _hand_loop(cfg, ZERO_DRIFT, (particle_sim._seeded(cfg, BB_INIT),))
    finals = [None] * 4

    def work(i):
        finals[i] = run(cfg, SPEC2, ZERO_DRIFT, BB_INIT).final.positions

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for final in finals:
        assert _same_bits(final, expected[-1][0].positions)


def test_run_mean_stays_centered():
    cfg = small_config(n_particles=20_000, T=0.3)
    res = run(cfg, SPEC2, ZERO_DRIFT, BB_INIT)
    var = res.variances[-1]
    assert abs(res.means[-1]) <= 4.0 * math.sqrt(var / cfg.n_particles)


def test_run_variance_growth_law():
    cfg = small_config(n_particles=50_000, T=0.5, dt=2e-3)
    res = run(cfg, SPEC2, ZERO_DRIFT, BB_INIT,
              snapshot_times=np.linspace(T0, 0.5, 9)[1:])
    # least-squares slope of ln(variance) against ln(t)
    slope = float(np.polyfit(np.log(res.times), np.log(res.variances), 1)[0])
    assert slope == pytest.approx(2.0 / 3.0, abs=0.05)


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



def test_particles_stay_inside_the_free_boundary():
    """Finite propagation: max |X| / R(t) at t = 0.4 and 1.0 lies in [0.97, 1.05].

    From the source-type solution at t0 = 0.1, N = 5e3, dt = 1e-3, seed 7:
    measured 0.9998 and 1.0052.  Seeds 1 to 8 gave 0.988 to 1.012, and N =
    5e3 to 1e5 gave at most 1.029; the band leaves about 0.02 on each side.
    """
    cfg = small_config(n_particles=5000, T=1.0, seed=7)
    res = run(cfg, SPEC2, ZERO_DRIFT, BB_INIT, snapshot_times=[0.4, 1.0],
              keep_positions=True)
    ratios = [float(np.max(np.abs(x))) / P2.support_radius(t)
              for t, x in zip(res.times, res.position_snapshots)]
    assert len(ratios) == 2 and all(0.97 <= r <= 1.05 for r in ratios), ratios


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


_FLAT = ParticleEnsemble(positions=np.linspace(-1.0, 1.0, 500), t=0.0)


def _flat_step(dt, noise):
    return em_step(_FLAT, dt, SPEC2, ZERO_DRIFT, density=lambda x: np.zeros_like(x),
                   clamp=CLAMP, noise=noise)


@pytest.mark.parametrize("call, message", [
    (lambda: ParticleEnsemble(positions=np.zeros(99), t=0.0),
     "need at least 100 particles"),
    (lambda: _flat_step(0.0, np.zeros(500)), "dt must be positive"),
    (lambda: _flat_step(-1e-3, np.zeros(500)), "dt must be positive"),
    (lambda: _flat_step(1e-3, np.zeros(499)),
     r"noise block of shape \(499,\) for positions of shape \(500,\)"),
    (lambda: small_config(T=math.inf),
     r"t0 = 0.1, T = inf and dt = 0.001 give no finite step count \(T - t0\)/dt"),
    (lambda: small_config(t0=-math.inf),
     r"t0 = -inf, T = 0.2 and dt = 0.001 give no finite step count"),
    (lambda: small_config(dt=1e-320),
     r"t0 = 0.1, T = 0.2 and dt = 1e-320 give no finite step count"),
], ids=["few-particles", "zero-dt", "negative-dt", "noise-shape", "infinite-T",
        "infinite-t0", "subnormal-dt"])
def test_particle_sim_input_guards_raise_with_their_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
