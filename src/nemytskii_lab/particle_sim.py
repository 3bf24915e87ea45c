"""Interacting-particle Euler-Maruyama simulation of the mean-field dynamics.

Each particle moves by

    X <- X + E(X) b(u_hat(X)) dt + sqrt(2 beta(u_hat(X)) / u_hat(X)) dW

where u_hat is an Epanechnikov kernel-density estimate of the empirical law
at Silverman's bandwidth, frozen at the start of the step (explicit
coupling).  Noise comes from counter-based streams keyed by (seed, step), so
runs are bit-reproducible, and same-noise coupled pairs of runs are exact.
A run and a coupled pair step through the same loop.

The module runs in the calling thread and starts no threads or processes;
each step is a fixed sequence of whole-array numpy operations and
reductions, so the same config and seed give the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

# w1_distance is unused here but stays importable: the traced benchmark
# patches it by name (ROADMAP item 1).
from .analysis import w1_distance  # noqa: F401
from .coefficients import DriftSpec, NonlinearitySpec, sigma_squared

__all__ = [
    "SimConfig",
    "ParticleEnsemble",
    "SimulationError",
    "RunResult",
    "CouplingRecord",
    "seed_from_density",
    "kde_density",
    "frozen_density",
    "em_step",
    "run",
    "coupling_experiment",
    "DOMAIN_BOUND",
    "COUPLING_DELTA",
]

DOMAIN_BOUND = 50.0   # half-width of the seeding interval; the watchdog is 10x
COUPLING_DELTA = 1e-6   # length scale of the twins' Lyapunov statistic


class SimulationError(RuntimeError):
    """Particle blow-up or non-finite update; carries the particle index."""

    def __init__(self, message: str, particle_index: int | None = None):
        super().__init__(message)
        self.particle_index = particle_index


@dataclass(frozen=True)
class SimConfig:
    """One particle run or same-noise pair, seeded on [-DOMAIN_BOUND, DOMAIN_BOUND].

    Each step estimates the density with the Epanechnikov kernel at
    Silverman's bandwidth; linf_clamp caps it where the diffusion coefficient
    reads it.  A pair's Lyapunov statistic is scaled by COUPLING_DELTA.
    """

    n_particles: int
    dt: float
    t0: float
    T: float
    linf_clamp: float
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 100:
            raise ValueError("need at least 100 particles")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not self.t0 < self.T:
            raise ValueError("need t0 < T")
        if not self.linf_clamp > 0:
            raise ValueError("linf_clamp must be positive")


@dataclass(frozen=True)
class ParticleEnsemble:
    """Positions plus the stream bookkeeping needed to reproduce the run.

    Particle i's noise at step s is entry i of the counter-based block keyed
    by (seed, s); the ensemble therefore only needs the seed and the step
    index to identify every per-particle stream state.
    """

    positions: np.ndarray
    t: float
    seed: int
    step_index: int

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", pos)
        if pos.size < 100:
            raise ValueError("need at least 100 particles")
        if not np.all(np.isfinite(pos)):
            raise SimulationError(
                "non-finite particle position",
                particle_index=int(np.flatnonzero(~np.isfinite(pos))[0]))

    @property
    def n(self) -> int:
        return self.positions.size


def _noise_block(seed: int, step: int, n: int, kind: str = "normal") -> np.ndarray:
    """Deterministic block of n variates from the (seed, step) Philox stream."""
    key = [np.uint64(int(seed) % 2**64), np.uint64(int(step) % 2**64)]
    gen = np.random.Generator(np.random.Philox(key=key))
    if kind == "normal":
        return gen.standard_normal(n)
    return gen.random(n)


def _silverman_bandwidth(positions: np.ndarray) -> float:
    n = positions.size
    sigma = float(np.std(positions))
    h = 1.06 * sigma * n ** (-0.2)
    spread = float(positions.max() - positions.min())
    floor = 2.0 * spread / max(n - 1, 1)
    return max(h, floor, 1e-12)


def seed_from_density(density, n: int, seed: int, lo: float, hi: float,
                      t0: float = 0.0) -> ParticleEnsemble:
    """Inverse-CDF sample of an evaluable unit-mass density on [lo, hi].

    The CDF is built on a fine quadrature grid (trapezoid) concentrated on
    the region where the density is nonzero; the input mass must be 1 to
    within 1e-6.
    """
    probe = np.linspace(lo, hi, 16385)
    pv = np.maximum(np.asarray(density(probe), dtype=float), 0.0)
    live = np.flatnonzero(pv > 0)
    if live.size:
        pad = 2.0 * (probe[1] - probe[0])
        lo = max(lo, float(probe[live[0]]) - pad)
        hi = min(hi, float(probe[live[-1]]) + pad)
    x = np.linspace(lo, hi, 200001)
    dens = np.maximum(np.asarray(density(x), dtype=float), 0.0)
    widths = np.diff(x)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * widths)])
    mass = float(cdf[-1])
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"density mass {mass} deviates from 1 by more than 1e-6")
    uni = _noise_block(seed, 0, n, kind="uniform")
    positions = np.interp(uni * mass, cdf, x)
    return ParticleEnsemble(positions=positions, t=t0, seed=seed, step_index=0)


# ---------------------------------------------------------------------------
# density estimation
# ---------------------------------------------------------------------------

def _kernel_profile(z: np.ndarray) -> np.ndarray:
    """Epanechnikov kernel 3/4 (1 - z^2)_+, supported on [-1, 1]."""
    return 0.75 * np.maximum(1.0 - z * z, 0.0)


def kde_density(ensemble: ParticleEnsemble, bandwidth: float, x):
    """Exact Epanechnikov kernel sum (1/N) sum_i K_h(x - X_i) at the queries.

    Nonnegative by construction, integrates to 1 and vanishes farther than
    one bandwidth from every particle.  Meant for point queries and
    verification; the step loop uses the binned estimator below.
    """
    h = bandwidth
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h!r}")
    xq = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xq)
    chunk = max(1, int(2e6 / max(ensemble.n, 1)))
    for start in range(0, xq.size, chunk):
        block = xq[start:start + chunk, None] - ensemble.positions[None, :]
        out[start:start + chunk] = np.mean(_kernel_profile(block / h), axis=1) / h
    return out if np.ndim(x) else float(out[0])


def frozen_density(ensemble: ParticleEnsemble, bandwidth: float,
                   n_grid_cells: int = 4096):
    """Binned KDE snapshot: returns an evaluator x -> u_hat(x).

    The particle histogram is convolved with the Epanechnikov kernel at the
    bandwidth h on an auxiliary grid much finer than h and evaluated by
    linear interpolation; this is the O(N + grid) stand-in for the exact
    kernel sum inside the step loop, with binning error O((grid/h)^2).
    Deterministic given positions.

    The grid is uniform, so the evaluator finds each query's cell directly
    from (x - lo)/step and corrects that guess by one node comparison on
    each side, instead of a binary search.  Cell choice, slopes and the
    final slope*(x - node) + value match numpy's interp loop operation for
    operation, so the result is bit-identical to
    np.interp(x, grid, dens, left=0, right=0) at every finite x and NaN.
    """
    h = bandwidth
    pos = ensemble.positions
    lo = float(pos.min()) - 2.0 * h
    hi = float(pos.max()) + 2.0 * h
    step = (hi - lo) / n_grid_cells
    grid = lo + (np.arange(n_grid_cells + 1)) * step
    counts, _ = np.histogram(pos, bins=n_grid_cells + 1,
                             range=(lo - 0.5 * step, hi + 0.5 * step))
    reach = int(math.ceil(h / step))
    offsets = np.arange(-reach, reach + 1) * step
    kern = _kernel_profile(offsets / h) / h
    dens = np.convolve(counts, kern, mode="same") / pos.size

    # Row k of the tables is cell k - 1 of the grid.  Row 0 (left of the
    # grid) and row n + 2 (right of it) have slope and value 0; row n + 1
    # holds the last node, where np.interp returns dens[-1].
    n = n_grid_cells
    slopes = (dens[1:] - dens[:-1]) / (grid[1:] - grid[:-1])
    row_slope = np.concatenate([[0.0], slopes, [0.0, 0.0]])
    row_value = np.concatenate([[0.0], dens, [0.0]])
    row_node = np.concatenate([grid[:1], grid, grid[-1:]])
    origin = lo - step   # (x - origin)/step is row k + fraction
    inv_step = 1.0 / step
    last = grid[-1]

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        # fmax/fmin send NaN to row 1, where the arithmetic returns NaN
        k = np.fmin(np.fmax((x - origin) * inv_step, 1.0), float(n)).astype(np.intp)
        k -= x < row_node[k]
        k += x >= row_node[k + 1]
        k += x > last
        return row_slope[k] * (x - row_node[k]) + row_value[k]

    return evaluate


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def em_step(ensemble: ParticleEnsemble, dt: float, spec: NonlinearitySpec,
            drift: DriftSpec, density, clamp: float) -> ParticleEnsemble:
    """One explicit Euler-Maruyama step with the density frozen at step start.

    density is the caller's frozen estimate, an evaluator x -> u_hat(x) such
    as frozen_density returns; coupled twins pass the same one.  It is looked
    up once at the particles; the diffusion coefficient sees it capped at
    clamp, the drift uncapped.  Vacuum regions (u_hat = 0) produce exactly
    zero diffusion, preserving the degeneracy.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    pos = ensemble.positions
    dens = np.maximum(np.asarray(density(pos), dtype=float), 0.0)
    sig2 = np.asarray(sigma_squared(spec, np.minimum(dens, clamp)))
    xi = _noise_block(ensemble.seed, ensemble.step_index + 1, pos.size)
    drift_term = 0.0
    if drift.sup_norm_E > 0 and drift.sup_norm_b > 0:
        drift_term = np.asarray(drift.E(pos), dtype=float) \
            * np.asarray(drift.b(dens), dtype=float) * dt
    new_pos = pos + drift_term + np.sqrt(sig2 * dt) * xi
    # replace checks the new positions (SimulationError with the index)
    return replace(ensemble, positions=new_pos, t=ensemble.t + dt,
                   step_index=ensemble.step_index + 1)


@dataclass
class RunResult:
    """Snapshot statistics plus the final ensemble."""

    times: list[float] = field(default_factory=list)
    means: list[float] = field(default_factory=list)
    variances: list[float] = field(default_factory=list)
    position_snapshots: list[np.ndarray] = field(default_factory=list)
    final: ParticleEnsemble | None = None

    def loglog_variance_slope(self) -> float:
        """Least-squares slope of ln(variance) against ln(t)."""
        t = np.log(np.asarray(self.times))
        v = np.log(np.asarray(self.variances))
        return float(np.polyfit(t, v, 1)[0])


def _seeded(config: SimConfig, initial_density) -> ParticleEnsemble:
    """The configured ensemble at t0, sampled from initial_density."""
    return seed_from_density(initial_density, config.n_particles, config.seed,
                             -DOMAIN_BOUND, DOMAIN_BOUND, t0=config.t0)


def _steps(config: SimConfig, spec: NonlinearitySpec, drift: DriftSpec,
           ensembles: tuple[ParticleEnsemble, ...]):
    """Step the ensembles together from t0 to T, yielding them after each step.

    Each step takes Silverman's bandwidth of the first ensemble and freezes
    one Epanechnikov density of it, which every ensemble's em_step looks up:
    one ensemble is a run, a same-noise pair is the coupled twin.  A watchdog
    aborts if any particle of any ensemble leaves 10 * DOMAIN_BOUND.
    """
    bound = 10.0 * DOMAIN_BOUND
    for _ in range(int(round((config.T - config.t0) / config.dt))):
        density = frozen_density(
            ensembles[0], _silverman_bandwidth(ensembles[0].positions))
        ensembles = tuple(em_step(e, config.dt, spec, drift, density,
                                  config.linf_clamp) for e in ensembles)
        for e in ensembles:
            dist = np.abs(e.positions)
            if float(np.max(dist)) > bound:
                raise SimulationError(
                    f"particle blow-up beyond the watchdog bound {bound:g} "
                    f"at step {e.step_index} (t = {e.t:g})",
                    particle_index=int(np.argmax(dist)))
        yield ensembles


def run(config: SimConfig, spec: NonlinearitySpec, drift: DriftSpec,
        initial_density, snapshot_times=None,
        keep_positions: bool = False) -> RunResult:
    """Advance the ensemble from t0 to T, recording snapshot statistics.

    initial_density is sampled by inverse CDF on [-DOMAIN_BOUND, DOMAIN_BOUND].
    Each step refreshes the Silverman bandwidth, freezes one Epanechnikov
    density and leaves its one lookup at the particles to em_step.
    Snapshots record empirical mean and variance; with keep_positions the
    particle positions at each snapshot are retained for dumps.  A watchdog
    aborts if any particle leaves 10 * DOMAIN_BOUND.
    """
    ens = _seeded(config, initial_density)
    if snapshot_times is None:
        snapshot_times = np.linspace(config.t0, config.T, 11)[1:]
    snapshot_times = sorted(float(t) for t in snapshot_times)

    result = RunResult()
    next_snap = 0

    def record(e: ParticleEnsemble):
        result.times.append(e.t)
        result.means.append(float(np.mean(e.positions)))
        result.variances.append(float(np.var(e.positions)))
        if keep_positions:
            result.position_snapshots.append(e.positions.copy())

    for (ens,) in _steps(config, spec, drift, (ens,)):
        while next_snap < len(snapshot_times) \
                and ens.t >= snapshot_times[next_snap] - 0.5 * config.dt:
            record(ens)
            next_snap += 1
    result.final = ens
    return result


@dataclass(frozen=True)
class CouplingRecord:
    t: float
    sup_distance: float
    f_delta_mean: float


def coupling_experiment(config: SimConfig, spec: NonlinearitySpec,
                        drift: DriftSpec, perturbation: float,
                        initial_density) -> list[CouplingRecord]:
    """Same-noise twin runs sharing one frozen density per step.

    The second ensemble starts shifted by the perturbation; both are driven
    by identical noise blocks and see the reference ensemble's KDE, mirroring
    two solutions with identical time marginals.  Records the sup separation
    and the Lyapunov statistic mean_i ln(|Z_i|^2/delta^2 + 1) per step, with
    delta = COUPLING_DELTA.
    Perturbation 0 reproduces bit-identical trajectories, hence exactly zero
    separation.  The twins step through run's loop, watchdog included.
    """
    if not perturbation >= 0:
        raise ValueError(f"perturbation must be nonnegative, got {perturbation!r}")
    x_ens = _seeded(config, initial_density)
    y_ens = replace(x_ens, positions=x_ens.positions + perturbation)

    records = []
    for x_ens, y_ens in _steps(config, spec, drift, (x_ens, y_ens)):
        z = x_ens.positions - y_ens.positions
        records.append(CouplingRecord(
            t=x_ens.t,
            sup_distance=float(np.max(np.abs(z))),
            f_delta_mean=float(np.mean(np.log(z * z / COUPLING_DELTA**2 + 1.0)))))
    return records
