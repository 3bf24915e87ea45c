"""Implicit finite-difference chain for the degenerate Fokker-Planck flow.

One backward step solves the elliptic problem

    u - lam * Lap_h(beta(u)) + lam * div_h(E_eps * b_eps(u) * u)  =  f

on a uniform cell-centered grid via damped Newton with a tridiagonal
Jacobian, solved directly by LAPACK gtsv; chaining steps of size h yields
the piecewise-constant-in-time mild approximation whose limit defines the
semigroup.  The diffusion uses beta itself: only the response b and the
field E are regularized.  From its second step on, the chain starts Newton
at the linear predictor max(2u^i - u^(i-1), 0).  Each solve reports its
Newton iterations, line-search halvings and fixed-point fallbacks.  Fluxes
are written in conservation form (3-point diffusive flux, donor-cell upwind
advection), so the zero-flux boundary conserves mass to roundoff.

Without drift, Newton runs on a window: the cells where f or the start is
nonzero, widened by NEWTON_MAX_ITER + 2 cells per side and clipped to the
grid.  The result is the full-grid one bit for bit.  beta'(0) = 0 makes each
vacuum column of the Jacobian an identity column, so each Newton step,
line-search trial or fixed-point step widens the support by at most one cell
per side; the cells outside the window keep u = 0, a zero residual and zero
flux at the window's faces, and gtsv eliminates each block of the
block-diagonal system on its own.  With drift, advection couples vacuum cells
through b(0), and the window is the whole grid.

A chain is strictly sequential and runs in the calling thread; its iterates
are the rows of one writable (N, n_cells) array.

scipy is imported only when a chain first solves: the first
_tridiagonal_solve loads LAPACK gtsv from scipy.linalg and keeps it.  A
process that runs no chain (the particle scenarios) never loads scipy.
"""

from __future__ import annotations

import functools
import math
import os
# ThreadPoolExecutor, beta_tilde_epsilon and beta_tilde_epsilon_prime are
# unused here but stay importable: the traced benchmark patches them by name
# (ROADMAP item 1).
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import (  # noqa: F401
    DriftSpec,
    NonlinearitySpec,
    beta_tilde_epsilon,
    beta_tilde_epsilon_prime,
    cutoff_E,
    entropy_Psi,
    lambda_zero,
    mollified_b,
    mollified_b_prime,
)

__all__ = [
    "GridField",
    "SolverConfig",
    "SolverError",
    "ResolventSolution",
    "Trajectory",
    "EntropyRecord",
    "resolvent_solve",
    "step_chain",
    "semigroup_distance",
    "entropy_audit",
    "write_trajectory_binary",
    "read_trajectory_binary",
    "MAX_CLIPPED_MASS",
    "EPSILON_REG",
    "NEWTON_TOL",
    "NEWTON_MAX_ITER",
]

# budget for the undershoot mass a chain may clip away, summed over its steps
MAX_CLIPPED_MASS = 1e-6
# regularization level of the response b_eps and of the E cutoff (radius
# 1/eps); the diffusion uses beta itself
EPSILON_REG = 1e-12
# Newton stops once the discrete L1 residual is at most NEWTON_TOL and fails
# if it is still above after NEWTON_MAX_ITER iterations
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60


def __getattr__(name):
    # solve_banded is unused here too, but the traced benchmark patches it by
    # name; it is imported on first access, so that importing this module
    # loads no scipy.  This shim goes with ROADMAP item 1.
    if name == "solve_banded":
        from scipy.linalg import solve_banded
        return solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SolverError(RuntimeError):
    """Nonlinear solve failure; carries the last residual and step index."""

    def __init__(self, message: str, residual: float = math.nan, step: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.step = step


@dataclass(frozen=True)
class GridField:
    """Nonnegative cell-centered density on a uniform 1-D grid."""

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 16:
            raise ValueError("grid needs at least 16 cells")
        if not self.hi > self.lo:
            raise ValueError("need hi > lo")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        if np.any(vals < 0):
            raise ValueError("field values must be nonnegative")

    @property
    def n_cells(self) -> int:
        return self.values.size

    @property
    def cell_width(self) -> float:
        return (self.hi - self.lo) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.n_cells) + 0.5) * self.cell_width

    @property
    def edges(self) -> np.ndarray:
        return self.lo + np.arange(self.n_cells + 1) * self.cell_width

    def mass(self) -> float:
        return float(np.sum(self.values) * self.cell_width)

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l1_distance(self, other: "GridField") -> float:
        if other.n_cells != self.n_cells or other.lo != self.lo or other.hi != self.hi:
            raise ValueError("fields live on different grids")
        return float(np.sum(np.abs(self.values - other.values)) * self.cell_width)

    @classmethod
    def from_function(cls, lo: float, hi: float, n_cells: int, fn) -> "GridField":
        centers = lo + (np.arange(n_cells) + 0.5) * (hi - lo) / n_cells
        return cls(lo=lo, hi=hi, values=np.maximum(np.asarray(fn(centers), dtype=float), 0.0))

    def normalized(self) -> "GridField":
        m = self.mass()
        if m <= 0:
            raise ValueError("cannot normalize a zero field")
        return replace(self, values=self.values / m)


@dataclass(frozen=True)
class SolverConfig:
    """Step size h of the chain.

    Every step diffuses by beta itself, regularizes b and E at EPSILON_REG
    and runs Newton to NEWTON_TOL within NEWTON_MAX_ITER iterations.  The
    boundary is always zero flux, and a chain aborts once its clipped
    undershoot mass exceeds MAX_CLIPPED_MASS.
    """

    lambda_step: float

    def __post_init__(self):
        if not self.lambda_step > 0:
            raise ValueError(f"lambda_step must be positive, got {self.lambda_step!r}")


@dataclass(frozen=True)
class ResolventSolution:
    """Resolvent output plus solve diagnostics (residual, clipping).

    preclip_min is the smallest cell value before the undershoot clip, so a
    negative value shows how far the Newton iterate left the positive cone.
    halvings counts the line search's step halvings over all iterations and
    fallbacks the iterations that took the damped fixed-point step.
    """

    field: GridField
    residual_l1: float
    newton_iters: int
    clipped_mass: float
    preclip_min: float
    halvings: int
    fallbacks: int


@dataclass
class Trajectory:
    """Chain output: the initial datum, and the (N, n_cells) array step_chain
    filled, whose row i is the iterate at times[i] with infos[i] its report."""

    initial: GridField
    times: np.ndarray
    values: np.ndarray
    infos: list[ResolventSolution]

    def field_at(self, t: float) -> GridField:
        """Piecewise-constant-in-time lookup: u_h(t) = u^(i+1) on (t_i, t_{i+1}]."""
        if t <= 0 or not self.times.size:
            return self.initial
        i = min(int(np.searchsorted(self.times, t - 1e-14)), self.times.size - 1)
        return GridField(lo=self.initial.lo, hi=self.initial.hi, values=self.values[i])

    @property
    def final(self) -> GridField:
        return self.field_at(math.inf)

    def total_clipped_mass(self) -> float:
        return sum(info.clipped_mass for info in self.infos)


# ---------------------------------------------------------------------------
# discrete operator pieces
# ---------------------------------------------------------------------------

def _apply_operator(u: np.ndarray, dx: float, spec: NonlinearitySpec,
                    drift: DriftSpec, e_face: np.ndarray | None) -> np.ndarray:
    """Discrete operator in flux form; zero boundary flux, so telescoping conserves mass."""
    bt = np.asarray(spec.beta(u))

    # diffusive flux -D(beta)/dx at interior interfaces
    dif_flux = np.zeros(u.size + 1)
    dif_flux[1:-1] = -(bt[1:] - bt[:-1]) / dx

    # donor-cell advective flux of E_eps * b_eps(u) * u
    adv_flux = np.zeros(u.size + 1)
    if drift.sup_norm_E > 0:
        carried = np.asarray(mollified_b(drift, EPSILON_REG, u)) * u
        ep = np.maximum(e_face[1:-1], 0.0)
        em = np.minimum(e_face[1:-1], 0.0)
        adv_flux[1:-1] = ep * carried[:-1] + em * carried[1:]

    return (dif_flux[1:] + adv_flux[1:] - dif_flux[:-1] - adv_flux[:-1]) / dx


def _jacobian_bands(u: np.ndarray, dx: float, spec: NonlinearitySpec,
                    drift: DriftSpec, e_face: np.ndarray | None,
                    lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals (dl, d, du) of the Jacobian of u + lam*A(u).

    dl[j] holds J[j+1, j] and du[j] holds J[j, j+1].  With beta' >= 0 and
    (b_eps(r) r)' >= 0 every column is diagonally dominant with a diagonal
    of at least 1, so J is nonsingular.
    """
    n = u.size
    btp = np.asarray(spec.beta_prime(u))

    lap_diag = np.full(n, 2.0)
    lap_diag[0] = lap_diag[-1] = 1.0
    d = 1.0 + lam * lap_diag / dx**2 * btp
    du = -lam * btp[1:] / dx**2
    dl = -lam * btp[:-1] / dx**2

    if drift.sup_norm_E > 0:
        b_eps = np.asarray(mollified_b(drift, EPSILON_REG, u))
        gp = b_eps + np.asarray(mollified_b_prime(drift, EPSILON_REG, u)) * u
        epf = np.maximum(e_face, 0.0)
        emf = np.minimum(e_face, 0.0)
        # boundary faces carry no flux
        epf[0] = emf[0] = epf[-1] = emf[-1] = 0.0
        d += lam * (epf[1:] - emf[:-1]) * gp / dx
        du += lam * emf[1:-1] * gp[1:] / dx
        dl += -lam * epf[1:-1] * gp[:-1] / dx
    return dl, d, du


@functools.cache
def _gtsv():
    """scipy's LAPACK dgtsv, imported by the first call and kept."""
    from scipy.linalg.lapack import dgtsv
    return dgtsv


def _tridiagonal_solve(bands, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve the system with diagonals bands = (dl, d, du) by LAPACK gtsv.

    solve_banded((1, 1), ...) runs the same routine, so x is bit-identical;
    this skips its validation and copies.  bands and rhs are overwritten.
    Returns x and gtsv's info, which is > 0 at an exactly zero pivot.
    """
    dl, d, du = bands
    *_, x, info = _gtsv()(dl, d, du, rhs, overwrite_dl=True, overwrite_d=True,
                          overwrite_du=True, overwrite_b=True)
    return x, info


def resolvent_solve(f: GridField, lam: float, spec: NonlinearitySpec,
                    drift: DriftSpec, out: np.ndarray | None = None,
                    start: np.ndarray | None = None) -> ResolventSolution:
    """One implicit step: solve u + lam*A(u) = f on the grid of f.

    A(u) = -Lap_h beta(u) + div_h(E_eps b_eps(u) u), with b and E
    regularized at EPSILON_REG.  Damped Newton from start (default f's
    values; step_chain passes its linear predictor) with a tridiagonal
    Jacobian, solved directly by LAPACK gtsv.  Each residual evaluation
    applies the operator once.  The line search halves a rejected step up
    to 12 times; when every trial fails, a damped fixed-point step is tried
    instead.  The solution reports the halvings and fixed-point fallbacks.
    Convergence is measured in discrete L1: Newton stops at NEWTON_TOL.
    Negative undershoot is clipped at 0 and its mass reported.  The clipped
    solution is written into out (a float array of f's size) when given.

    Without drift (drift.sup_norm_E == 0), Newton runs on the window of
    cells where f or start is nonzero, widened by NEWTON_MAX_ITER + 2 cells
    on each side and clipped to the grid; with drift, on the whole grid.
    Since beta'(0) = 0, each iteration widens the support by at most one
    cell per side, so every cell outside the window stays 0 with a zero
    residual and zero face flux, and the values are those of a full-grid
    solve bit for bit.  Only residual_l1, summed over the window, may differ
    from a full-grid sum in its last bits; the clip, clipped_mass,
    preclip_min and the returned field are full-grid.

    Raises
    ------
    SolverError
        If a residual is not finite, the residual has not reached NEWTON_TOL
        after NEWTON_MAX_ITER iterations, a step stalls or the tridiagonal
        solve fails (carries the last residual; the message states lam and
        the iteration count).
    """
    lam0 = lambda_zero(drift)
    if not 0.0 < lam < lam0:
        raise ValueError(f"lambda must lie in (0, {lam0}), got {lam}")
    dx = f.cell_width
    full = np.array(f.values if start is None else start, dtype=float)
    lo, hi = 0, full.size
    if drift.sup_norm_E > 0:
        e_face = np.asarray(cutoff_E(drift, EPSILON_REG, f.edges), dtype=float)
    else:
        # one cell per Newton iteration, and one more each for the residual's
        # stencil and the window's face
        e_face = None
        margin = NEWTON_MAX_ITER + 2
        occupied = np.flatnonzero((f.values != 0.0) | (full != 0.0))
        if occupied.size:   # else nothing moves, and one residual shows it
            lo = max(int(occupied[0]) - margin, 0)
            hi = min(int(occupied[-1]) + 1 + margin, full.size)
    target = f.values[lo:hi]

    def residual(u):
        res = u + lam * _apply_operator(u, dx, spec, drift, e_face) - target
        return res, float(np.sum(np.abs(res)) * dx)

    def failure(what, res_l1, iters):
        return SolverError(f"nonlinear solve at lam={lam!r} {what} after "
                           f"{iters} iterations (residual {res_l1:.3e})",
                           residual=res_l1)

    u = full[lo:hi]   # a view; every accepted step rebinds u to a new array
    res, res_l1 = residual(u)
    if not math.isfinite(res_l1):
        raise failure("has a non-finite residual", res_l1, 0)
    iters = halvings = fallbacks = 0
    while res_l1 > NEWTON_TOL and iters < NEWTON_MAX_ITER:
        delta, info = _tridiagonal_solve(
            _jacobian_bands(u, dx, spec, drift, e_face, lam), -res)
        if info != 0:
            raise failure(f"failed in the tridiagonal solve (gtsv info {info})",
                          res_l1, iters)
        step = 1.0
        for _ in range(12):
            trial = u + step * delta
            trial_res, trial_l1 = residual(trial)
            if trial_l1 < res_l1:
                u, res, res_l1 = trial, trial_res, trial_l1
                break
            step *= 0.5
            halvings += 1
        else:
            # damped fixed-point fallback
            trial = u - 0.5 * res
            trial_res, trial_l1 = residual(trial)
            if not trial_l1 < res_l1:
                raise failure("stalled", res_l1, iters)
            u, res, res_l1 = trial, trial_res, trial_l1
            fallbacks += 1
        iters += 1
    if res_l1 > NEWTON_TOL:
        raise failure(f"did not reach tol {NEWTON_TOL:.1e}", res_l1, iters)
    if u.size < full.size:   # the cells outside the window are still 0
        full[lo:hi] = u
        u = full

    clipped = float(np.sum(np.maximum(-u, 0.0)) * dx)
    preclip_min = float(u.min())
    u = np.maximum(u, 0.0, out=out)
    return ResolventSolution(field=GridField(lo=f.lo, hi=f.hi, values=u),
                             residual_l1=res_l1, newton_iters=iters,
                             clipped_mass=clipped, preclip_min=preclip_min,
                             halvings=halvings, fallbacks=fallbacks)


def step_chain(nu: GridField, T: float, config: SolverConfig,
               spec: NonlinearitySpec, drift: DriftSpec) -> Trajectory:
    """Run the implicit chain u^(i+1) + h A(u^(i+1)) = u^i from nu up to time T.

    N = ceil(T/h) steps of size h, the last one shortened to land on T.
    When rounding leaves a last step of at most 1e-9 h (T = 0.14 - 0.1 with
    h = 1e-3 gives T/h = 40.00000000000001), that step is not taken and the
    chain ends after N - 1 full steps.  From the second step on, Newton
    starts at the linear predictor max(2u^i - u^(i-1), 0) rather than at
    u^i; on a 4000-cell, 900-step Barenblatt chain this took 2365 iterations
    instead of 2825.  The initial mass must be 1 to within 1e-8 and the run
    aborts if the accumulated undershoot clipping exceeds MAX_CLIPPED_MASS.

    The iterates are the rows of one (N, n_cells) array.  As N separate
    arrays they would sit between the solver's temporaries on the allocator's
    heap, whose fragmentation then varies from process to process: a
    4000-cell, 900-step chain peaked at 114 MB RSS in some processes and at
    128 MB in others.

    Raises ValueError when T is not positive.
    """
    if not T > 0:
        raise ValueError(f"chain horizon T must be positive, got T = {T!r}")
    if abs(nu.mass() - 1.0) > 1e-8:
        raise ValueError(f"initial mass must be 1 +- 1e-8, got {nu.mass()}")
    lam0 = lambda_zero(drift)
    if math.isfinite(lam0) and not config.lambda_step < lam0:
        raise ValueError(f"lambda_step {config.lambda_step} violates the "
                         f"step restriction {lam0}")
    h = config.lambda_step
    n_steps = max(1, math.ceil(T / h))
    last = T - (n_steps - 1) * h
    if n_steps > 1 and last <= 1e-9 * h:   # only rounding left it
        n_steps -= 1
        last = h
    values = np.empty((n_steps, nu.n_cells))
    times = np.empty(n_steps)
    infos = []

    current = nu
    previous = None   # the iterate before current, from the second step on
    t = 0.0
    clipped = 0.0   # running total of the steps' clipped mass
    for i in range(n_steps):
        lam = h if i < n_steps - 1 else last
        start = None if previous is None else \
            np.maximum(2.0 * current.values - previous, 0.0)
        try:
            sol = resolvent_solve(current, lam, spec, drift, out=values[i],
                                  start=start)
        except SolverError as err:
            err.step = i
            raise
        t += lam
        times[i] = t
        infos.append(sol)
        previous = current.values
        current = sol.field
        clipped += sol.clipped_mass
        if clipped > MAX_CLIPPED_MASS:
            raise SolverError(
                f"clipped mass {clipped:.3e} exceeded budget "
                f"{MAX_CLIPPED_MASS:.1e} at step {i}",
                residual=sol.residual_l1, step=i)
    return Trajectory(initial=nu, times=times, values=values, infos=infos)


def semigroup_distance(nu1: GridField, nu2: GridField, T: float,
                       config: SolverConfig, spec: NonlinearitySpec,
                       drift: DriftSpec) -> float:
    """Worst contraction ratio max_t ||S_h(t)nu1 - S_h(t)nu2||_1 / ||nu1 - nu2||_1.

    Returns 0 when the inputs coincide.  The two chains run one after the
    other, and one reduction over their rows gives every step's ratio.
    """
    denom = nu1.l1_distance(nu2)
    if denom == 0.0:
        return 0.0
    t1 = step_chain(nu1, T, config, spec, drift)
    t2 = step_chain(nu2, T, config, spec, drift)
    # t1 is not returned, so its rows can hold |u1 - u2| in place
    gap = np.subtract(t1.values, t2.values, out=t1.values)
    np.abs(gap, out=gap)
    return float(np.max(np.sum(gap, axis=1) * nu1.cell_width / denom))


def write_trajectory_binary(traj: Trajectory, fh) -> None:
    """Compact little-endian dump of a chain into fh, a file open for binary writing.

    Layout: int64 n_cells, float64 lo, float64 hi, int64 n_steps, then per
    step one float64 time followed by n_cells float64 cell values.
    """
    np.asarray([traj.initial.n_cells], dtype="<i8").tofile(fh)
    np.asarray([traj.initial.lo, traj.initial.hi], dtype="<f8").tofile(fh)
    np.asarray([traj.times.size], dtype="<i8").tofile(fh)
    for t, row in zip(traj.times, traj.values):
        np.asarray([t], dtype="<f8").tofile(fh)
        row.astype("<f8", copy=False).tofile(fh)


def read_trajectory_binary(path) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Inverse of write_trajectory_binary: (lo, hi, times, values) arrays.

    Raises ValueError, stating the expected and found byte counts, when the
    file size does not match its header.
    """
    found = os.path.getsize(path)
    with open(path, "rb") as fh:
        head = np.fromfile(fh, dtype="<i8", count=4)
        n, n_steps = (int(head[0]), int(head[3])) if head.size == 4 else (0, 0)
        expected = 32 + 8 * n_steps * (n + 1)
        if n < 1 or n_steps < 0 or found != expected:
            raise ValueError(f"{path}: {n_steps} steps of {n} cells take "
                             f"{expected} bytes, found {found}")
        payload = np.fromfile(fh, dtype="<f8").reshape(n_steps, n + 1)
    lo, hi = head[1:3].view("<f8")
    return float(lo), float(hi), payload[:, 0], payload[:, 1:]


@dataclass(frozen=True)
class EntropyRecord:
    step: int
    t: float
    entropy: float
    cumulative_dissipation: float
    audit_value: float


def entropy_audit(traj: Trajectory, spec: NonlinearitySpec) -> list[EntropyRecord]:
    """Per-step entropy balance of the chain.

    Records the cell-sum entropy integral of Psi(u), the cumulative forward-
    difference dissipation sum_s h * sum_cells |D_h beta^(1/2)(u_s)|^2 dx, and
    the audit value

        [entropy(t) + cumulative dissipation] - entropy(initial),

    which stays <= 0 (up to solver tolerance) for drift-free runs.
    """
    dx = traj.initial.cell_width

    def entropy_of(vals):
        return float(np.sum(entropy_Psi(spec, vals)) * dx)

    def dissipation_of(vals):
        root = np.sqrt(np.asarray(spec.beta(vals)))
        grad = (root[1:] - root[:-1]) / dx
        return float(np.sum(grad * grad) * dx)

    s0 = entropy_of(traj.initial.values)
    records = []
    cumulative = 0.0
    prev_t = 0.0
    for i, (t, row) in enumerate(zip(traj.times.tolist(), traj.values)):
        h = t - prev_t
        prev_t = t
        cumulative += h * dissipation_of(row)
        s = entropy_of(row)
        records.append(EntropyRecord(step=i + 1, t=t, entropy=s,
                                     cumulative_dissipation=cumulative,
                                     audit_value=s + cumulative - s0))
    return records
