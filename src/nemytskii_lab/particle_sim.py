"""Interacting-particle Euler-Maruyama simulation of the mean-field dynamics.

Each particle moves by

    X <- X + E(X) b(u_hat(X)) dt + sqrt(2 beta(u_hat(X)) / u_hat(X)) dW

where u_hat is an Epanechnikov kernel-density estimate of the empirical law
at Silverman's bandwidth, frozen at the start of the step (explicit
coupling).  The run owns the Brownian path: every ensemble of a run takes
step s's normals from block (seed, s) of one counter-based stream, so runs
are bit-reproducible and same-noise coupled pairs are exact by construction.
A run and a coupled pair step through the same loop.

A step's noise depends on nothing the step computes, so the loop starts one
worker thread per run, which draws step s + 1's block while the calling
thread runs step s.  The worker fills one of two buffers, which every
ensemble of the run reads, and the calling thread reads a buffer only after
the worker has returned it and never while the worker is filling it.
Everything else is a fixed sequence of whole-array numpy operations and
reductions in the calling thread, so the same config and seed give the same
bytes however the two threads are scheduled.  The worker is joined when the
run ends, fails or is closed early.

The density snapshot finds each particle's cell by floor arithmetic alone
(see frozen_density): a fixed sequence of IEEE operations on the positions,
so the step stays deterministic.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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
    "frozen_density",
    "em_step",
    "run",
    "coupling_experiment",
    "DOMAIN_BOUND",
    "COUPLING_DELTA",
    "KDE_GRID_CELLS",
]

DOMAIN_BOUND = 50.0   # half-width of the seeding interval; the watchdog is 10x
COUPLING_DELTA = 1e-6   # length scale of the twins' Lyapunov statistic
KDE_GRID_CELLS = 4096   # cells of frozen_density's auxiliary grid


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
        if not math.isfinite((self.T - self.t0) / self.dt):
            raise ValueError(f"t0 = {self.t0!r}, T = {self.T!r} and dt = {self.dt!r} "
                             "give no finite step count (T - t0)/dt")
        if self.n_steps < 1:
            raise ValueError(f"t0 = {self.t0!r}, T = {self.T!r} and dt = {self.dt!r} "
                             "give no step: round((T - t0)/dt) = 0")
        if not self.linf_clamp > 0:
            raise ValueError("linf_clamp must be positive")

    @property
    def n_steps(self) -> int:
        """The number of steps from t0 to T, round((T - t0)/dt)."""
        return int(round((self.T - self.t0) / self.dt))


@dataclass(frozen=True)
class ParticleEnsemble:
    """The particle positions at time t.

    The noise that moves them belongs to the run (see _steps), not to the
    ensemble.  bounds is the positions' (min, max), found once here and read
    by the watchdog and the KDE grid.
    """

    positions: np.ndarray
    t: float
    bounds: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", pos)
        if pos.size < 100:
            raise ValueError("need at least 100 particles")
        # min and max are NaN if any position is, and infinite if any is
        bounds = (float(pos.min()), float(pos.max()))
        if not (math.isfinite(bounds[0]) and math.isfinite(bounds[1])):
            raise SimulationError(
                "non-finite particle position",
                particle_index=int(np.flatnonzero(~np.isfinite(pos))[0]))
        object.__setattr__(self, "bounds", bounds)

    @property
    def n(self) -> int:
        return self.positions.size


def _noise_block(seed: int, step: int, n: int, kind: str = "normal",
                 out: np.ndarray | None = None) -> np.ndarray:
    """Deterministic block of n variates from the (seed, step) Philox stream.

    Normals are written into out when it is given; the bytes are the same.
    """
    key = [np.uint64(int(seed) % 2**64), np.uint64(int(step) % 2**64)]
    gen = np.random.Generator(np.random.Philox(key=key))
    if kind == "normal":
        return gen.standard_normal(n, out=out)
    return gen.random(n)


def _silverman_bandwidth(ensemble: ParticleEnsemble) -> float:
    sigma = float(np.std(ensemble.positions))
    h = 1.06 * sigma * ensemble.n ** (-0.2)
    return max(h, 1e-12)


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
    # cdf[i] integrates up to x[i]; the cell widths, then the running sum of
    # the trapezoids 0.5 * (dens[i] + dens[i+1]) * width, go into cdf[1:].
    # Each array is freed once used: seeding sets a particle run's peak memory.
    cdf = np.empty_like(x)
    cdf[0] = 0.0
    widths = np.subtract(x[1:], x[:-1], out=cdf[1:])
    trapezoids = dens[1:] + dens[:-1]
    del dens
    trapezoids *= 0.5
    trapezoids *= widths
    np.cumsum(trapezoids, out=cdf[1:])
    del trapezoids
    mass = float(cdf[-1])
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"density mass {mass} deviates from 1 by more than 1e-6")
    uni = _noise_block(seed, 0, n, kind="uniform")
    uni *= mass
    positions = np.interp(uni, cdf, x)
    return ParticleEnsemble(positions=positions, t=t0)


# ---------------------------------------------------------------------------
# density estimation
# ---------------------------------------------------------------------------

def _kernel_profile(z: np.ndarray) -> np.ndarray:
    """Epanechnikov kernel 3/4 (1 - z^2)_+, supported on [-1, 1]."""
    return 0.75 * np.maximum(1.0 - z * z, 0.0)


def frozen_density(ensemble: ParticleEnsemble, bandwidth: float):
    """Binned KDE snapshot: returns an evaluator x -> u_hat(x).

    The particle histogram is convolved with the Epanechnikov kernel at the
    bandwidth h on an auxiliary grid of KDE_GRID_CELLS cells, much finer
    than h, and evaluated by linear interpolation; this is the O(N + grid)
    stand-in for the exact kernel sum inside the step loop, with binning
    error O((grid/h)^2).  Deterministic given positions.  h must be positive
    and finite.  The grid spans the ensemble's bounds widened by 2h and must
    resolve the positions: a step of at most 64 ulp of the grid's ends, or a
    last node left of the rightmost particle, is a ValueError.

    Cells come from floor arithmetic alone.  The grid is uniform, so
    u = (x - origin) * (2/step), origin = lo - step, puts the left node of
    row k (cell k - 1) at u = 2k and the histogram's bin edge inside that
    cell at u = 2k + 1: j = floor(u) gives the row j >> 1 and the bin
    (j - 1) >> 1 at once.  u is clamped to [0, 2n + 4], so a finite query
    off the grid lands in row 0 or row n + 2, which read 0.  The 2h padding
    leaves the density 0 at both end nodes unless h is under about a quarter
    step, so the lookup is also 0 in row n + 1 past the last node.

    Rounding can put a point within a few ulp of a node or bin edge in the
    neighbouring row or bin, a binning error of the kind the estimator
    already makes; at a node it moves the lookup by at most the slope jump
    there times the rounding distance.  Elsewhere np.bincount of the bins
    gives np.histogram's counts, and the lookup is
    np.interp(x, grid, dens, left=0, right=0) bit for bit.  Each particle's
    cell is found once and serves twice: when the evaluator is called on
    this ensemble's own positions array (the same object, not changed in
    place since), it reuses the cells, which a copy of the array would find
    again.
    """
    if not (bandwidth > 0 and math.isfinite(bandwidth)):
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth!r}")
    return _binned_kde(ensemble, bandwidth, KDE_GRID_CELLS)[2]


def _binned_kde(ensemble: ParticleEnsemble, bandwidth: float, n_grid_cells: int):
    """frozen_density's grid, its histogram counts and its evaluator."""
    h = bandwidth
    pos = ensemble.positions
    pos_min, pos_max = ensemble.bounds
    lo = pos_min - 2.0 * h
    hi = pos_max + 2.0 * h
    n = n_grid_cells
    step = (hi - lo) / n
    grid = lo + np.arange(n + 1) * step
    last = grid[-1]
    ulp = np.spacing(max(abs(lo), abs(hi)))
    if not (step > 64.0 * ulp and pos_max <= last):
        raise ValueError(f"bandwidth {h!r} and {n} cells give a grid step of "
                         f"{step!r}, which does not resolve particles near "
                         f"{pos_max!r}")

    # Row k of the tables is cell k - 1 of the grid.  Row 0 (left of the
    # grid) and row n + 2 (right of it) have slope and value 0; row n + 1
    # holds the last node, where np.interp returns dens[-1].
    row_node = np.concatenate([grid[:1], grid, grid[-1:]])
    origin = lo - step   # (x - origin)/step is row k + fraction
    inv_step = 1.0 / step

    def cells(x):
        """floor(u) of the 1-d x, with u clamped to [0, 2n + 4] (NaN to 0)."""
        u = x - origin
        u *= 2.0 * inv_step
        np.fmax(u, 0.0, out=u)
        np.fmin(u, 2.0 * n + 4.0, out=u)
        return u.astype(np.intp)

    # the particles lie in rows 1 to n + 1
    bins = cells(pos)
    own = bins >> 1
    bins -= 1
    bins >>= 1
    counts = np.bincount(bins, minlength=n + 1)
    reach = int(math.ceil(h / step))
    offsets = np.arange(-reach, reach + 1) * step
    kern = _kernel_profile(offsets / h) / h
    dens = np.convolve(counts, kern, mode="same") / pos.size

    slopes = (dens[1:] - dens[:-1]) / (grid[1:] - grid[:-1])
    row_slope = np.concatenate([[0.0], slopes, [0.0, 0.0]])
    row_value = np.concatenate([[0.0], dens, [0.0]])

    def evaluate(x):
        shape = np.shape(x)
        if x is pos:
            k = own
        else:
            x = np.asarray(x, dtype=float).reshape(-1)
            # u overflows far out of range, where the clamps catch it
            with np.errstate(over="ignore"):
                k = cells(x) >> 1
        return (row_slope[k] * (x - row_node[k]) + row_value[k]).reshape(shape)

    return grid, counts, evaluate


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def em_step(ensemble: ParticleEnsemble, dt: float, spec: NonlinearitySpec,
            drift: DriftSpec, density, clamp: float,
            noise: np.ndarray) -> ParticleEnsemble:
    """One explicit Euler-Maruyama step with the density frozen at step start.

    density is the caller's frozen estimate, an evaluator x -> u_hat(x) such
    as frozen_density returns; coupled twins pass the same one.  It is looked
    up once at the particles and must return a fresh array, which em_step
    clips in place and then fills with the new positions: the drift reads
    it clipped at 0, the diffusion coefficient capped at clamp as well.
    Vacuum regions (u_hat = 0) produce exactly zero diffusion, preserving the
    degeneracy.  noise is the step's block of standard normals, one per
    particle, which the step loop draws ahead on its worker thread; em_step
    only reads it, so coupled twins share one block.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    pos = ensemble.positions
    if np.shape(noise) != pos.shape:
        raise ValueError(f"noise block of shape {np.shape(noise)} for "
                         f"positions of shape {pos.shape}")
    dens = np.asarray(density(pos), dtype=float)
    np.maximum(dens, 0.0, out=dens)
    drift_term = 0.0
    if not drift.vanishes:
        drift_term = np.asarray(drift.E(pos), dtype=float) \
            * np.asarray(drift.b(dens), dtype=float) * dt
    np.minimum(dens, clamp, out=dens)
    sig2 = np.asarray(sigma_squared(spec, dens))
    # sqrt(sig2 * dt) * noise, in place in sigma_squared's fresh array
    sig2 *= dt
    np.sqrt(sig2, out=sig2)
    sig2 *= noise
    # the lookup's array, read for the last time above, takes the new positions
    new_pos = np.add(pos, drift_term, out=dens)
    new_pos += sig2
    # replace checks the new positions (SimulationError with the index)
    return replace(ensemble, positions=new_pos, t=ensemble.t + dt)


@dataclass
class RunResult:
    """Snapshot statistics plus the final ensemble."""

    times: list[float] = field(default_factory=list)
    means: list[float] = field(default_factory=list)
    variances: list[float] = field(default_factory=list)
    position_snapshots: list[np.ndarray] = field(default_factory=list)
    final: ParticleEnsemble | None = None


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

    Step s (from 0) is driven by block (config.seed, s + 1); seeding drew
    block 0.  While step s runs here, one worker thread draws step s + 1's
    block into the other of two buffers, and every ensemble's em_step reads
    that one block, which it does not write.  A buffer is read only after
    the worker's future for it has returned, and refilled only once the step
    that read it is done, so the bytes are those of drawing the block here.
    The worker is joined when the loop ends, raises or is closed early.
    """
    bound = 10.0 * DOMAIN_BOUND
    n_steps = config.n_steps
    buffers = [np.empty(ensembles[0].n) for _ in range(2)]

    def draw(s: int):
        """Step s's block into buffers[s % 2]."""
        out = buffers[s % 2]
        _noise_block(config.seed, s + 1, out.size, out=out)

    with ThreadPoolExecutor(max_workers=1,
                            thread_name_prefix="particle-noise") as worker:
        pending = worker.submit(draw, 0)
        for s in range(n_steps):
            pending.result()
            if s + 1 < n_steps:
                pending = worker.submit(draw, s + 1)
            density = frozen_density(ensembles[0],
                                     _silverman_bandwidth(ensembles[0]))
            ensembles = tuple(em_step(e, config.dt, spec, drift, density,
                                      config.linf_clamp, buffers[s % 2])
                              for e in ensembles)
            for e in ensembles:
                if max(e.bounds[1], -e.bounds[0]) > bound:
                    raise SimulationError(
                        f"particle blow-up beyond the watchdog bound {bound:g} "
                        f"at step {s + 1} (t = {e.t:g})",
                        particle_index=int(np.argmax(np.abs(e.positions))))
            yield ensembles


def run(config: SimConfig, spec: NonlinearitySpec, drift: DriftSpec,
        initial_density, snapshot_times=None,
        keep_positions: bool = False) -> RunResult:
    """Advance the ensemble from t0 to T, recording snapshot statistics.

    initial_density is sampled by inverse CDF on [-DOMAIN_BOUND, DOMAIN_BOUND].
    Each step refreshes the Silverman bandwidth, freezes one Epanechnikov
    density and leaves its one lookup at the particles to em_step.
    Snapshots record empirical mean and variance; with keep_positions the
    particle positions at each snapshot are retained for dumps.  The default
    snapshots split the time the steps reach, t0 + n_steps * dt, into ten,
    so the last is the final ensemble even when n_steps rounds (T - t0)/dt
    down.  A watchdog aborts if any particle leaves 10 * DOMAIN_BOUND.
    """
    ens = _seeded(config, initial_density)
    if snapshot_times is None:
        end = config.t0 + config.n_steps * config.dt
        snapshot_times = np.linspace(config.t0, end, 11)[1:]
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
    by the run's one Brownian path and see the reference ensemble's KDE,
    mirroring two solutions with identical time marginals.  Records the sup
    separation and the Lyapunov statistic mean_i ln(|Z_i|^2/delta^2 + 1) per
    step, with delta = COUPLING_DELTA.  Perturbation 0 reproduces
    bit-identical trajectories, hence exactly zero separation.  The twins
    step through run's loop, watchdog included.
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
