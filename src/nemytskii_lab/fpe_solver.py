"""Implicit finite-difference chain for the degenerate Fokker-Planck flow.

One backward step solves the regularized elliptic problem

    u - lam * Lap_h(beta_tilde_eps(u)) + lam*eps*beta_tilde_eps(u)
      + lam * div_h(E_eps * b_eps(u) * u)  =  f

on a uniform cell-centered grid via damped Newton with a tridiagonal
Jacobian; chaining steps of size h yields the piecewise-constant-in-time
mild approximation whose limit defines the semigroup.  Fluxes are written in
conservation form (3-point diffusive flux, donor-cell upwind advection), so
the zero-flux boundary conserves mass by exact telescoping.

A single chain is strictly sequential; distinct chains are independent and
may run concurrently (fields are immutable once a step completes).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_banded

from .coefficients import (
    DriftSpec,
    NonlinearitySpec,
    RegularizationParams,
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
    "worker_count",
]


def worker_count(default: int = 2) -> int:
    """Worker cap from NEMYTSKII_THREADS (>=1); used by concurrent chains."""
    raw = os.environ.get("NEMYTSKII_THREADS")
    if not raw:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        return default


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

    def l1(self) -> float:
        return float(np.sum(np.abs(self.values)) * self.cell_width)

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
    """Step size, regularization level and Newton controls for the chain.

    epsilon_reg enters the operator as the zero-order absorption term
    lam*eps*beta_tilde_eps(u); it is kept at 1e-12 so the absorbed mass over
    a full run stays far below the 1e-8 conservation budget.
    """

    lambda_step: float
    epsilon_reg: float = 1e-12
    newton_tol: float = 1e-12
    newton_max_iter: int = 60
    boundary: str = "zero_flux"
    max_clipped_mass: float = 1e-6

    def __post_init__(self):
        if self.lambda_step <= 0:
            raise ValueError("lambda_step must be positive")
        if not 0.0 < self.epsilon_reg < 1.0:
            raise ValueError("epsilon_reg must lie in (0, 1)")
        if self.boundary not in ("zero_flux", "dirichlet_zero"):
            raise ValueError(f"unknown boundary policy {self.boundary!r}")

    def regularization(self) -> RegularizationParams:
        return RegularizationParams(epsilon=self.epsilon_reg)


@dataclass(frozen=True)
class ResolventSolution:
    """Resolvent output plus solve diagnostics (residual, clipping).

    preclip_min is the smallest cell value before the undershoot clip, so a
    negative value shows how far the Newton iterate left the positive cone.
    """

    field: GridField
    residual_l1: float
    newton_iters: int
    clipped_mass: float
    preclip_min: float


@dataclass
class Trajectory:
    """Chain output: the initial datum and one field per implicit step."""

    initial: GridField
    times: list[float] = field(default_factory=list)
    fields: list[GridField] = field(default_factory=list)
    infos: list[ResolventSolution] = field(default_factory=list)

    def field_at(self, t: float) -> GridField:
        """Piecewise-constant-in-time lookup: u_h(t) = u^(i+1) on (t_i, t_{i+1}]."""
        if t <= 0:
            return self.initial
        for tk, fk in zip(self.times, self.fields):
            if t <= tk + 1e-14:
                return fk
        return self.fields[-1]

    @property
    def final(self) -> GridField:
        return self.fields[-1] if self.fields else self.initial

    def total_clipped_mass(self) -> float:
        return sum(info.clipped_mass for info in self.infos)


# ---------------------------------------------------------------------------
# discrete operator pieces
# ---------------------------------------------------------------------------

def _interface_velocity(f: GridField, drift: DriftSpec, reg: RegularizationParams) -> np.ndarray:
    return np.asarray(cutoff_E(drift, reg.epsilon, f.edges), dtype=float)


def _apply_operator(u: np.ndarray, f: GridField, spec: NonlinearitySpec,
                    drift: DriftSpec, reg: RegularizationParams,
                    e_face: np.ndarray, boundary: str) -> np.ndarray:
    """Regularized operator values in flux form (telescoping conserves mass)."""
    dx = f.cell_width
    bt = np.asarray(beta_tilde_epsilon(spec, reg.epsilon, u))

    # diffusive flux -D(beta_tilde)/dx at interior interfaces
    dif_flux = np.zeros(u.size + 1)
    dif_flux[1:-1] = -(bt[1:] - bt[:-1]) / dx
    if boundary == "dirichlet_zero":
        dif_flux[0] = -(bt[0] - 0.0) / dx
        dif_flux[-1] = -(0.0 - bt[-1]) / dx

    # donor-cell advective flux of E_eps * b_eps(u) * u
    adv_flux = np.zeros(u.size + 1)
    if drift.sup_norm_E > 0:
        g = np.asarray(mollified_b(drift, reg.epsilon, u)) * u
        ep = np.maximum(e_face[1:-1], 0.0)
        em = np.minimum(e_face[1:-1], 0.0)
        adv_flux[1:-1] = ep * g[:-1] + em * g[1:]
        if boundary == "dirichlet_zero":
            adv_flux[0] = np.minimum(e_face[0], 0.0) * g[0]
            adv_flux[-1] = np.maximum(e_face[-1], 0.0) * g[-1]

    div = (dif_flux[1:] + adv_flux[1:] - dif_flux[:-1] - adv_flux[:-1]) / dx
    return div + reg.epsilon * bt


def _jacobian_bands(u: np.ndarray, f: GridField, spec: NonlinearitySpec,
                    drift: DriftSpec, reg: RegularizationParams,
                    e_face: np.ndarray, boundary: str, lam: float) -> np.ndarray:
    """Banded (1,1) Jacobian of u + lam*A_eps(u) for solve_banded."""
    n = u.size
    dx = f.cell_width
    btp = np.asarray(beta_tilde_epsilon_prime(spec, reg.epsilon, u))

    diag = np.ones(n)
    upper = np.zeros(n)   # upper[j] holds J[j-1, j]
    lower = np.zeros(n)   # lower[j] holds J[j+1, j]

    lap_diag = np.full(n, 2.0)
    if boundary == "zero_flux":
        lap_diag[0] = lap_diag[-1] = 1.0
    diag += lam * (lap_diag / dx**2 + reg.epsilon) * btp
    upper[1:] += -lam * btp[1:] / dx**2
    lower[:-1] += -lam * btp[:-1] / dx**2

    if drift.sup_norm_E > 0:
        b_eps = np.asarray(mollified_b(drift, reg.epsilon, u))
        gp = b_eps + np.asarray(mollified_b_prime(drift, reg.epsilon, u)) * u
        epf = np.maximum(e_face, 0.0)
        emf = np.minimum(e_face, 0.0)
        if boundary == "zero_flux":
            # boundary faces carry no flux
            epf[0] = emf[0] = epf[-1] = emf[-1] = 0.0
        else:
            # outside donor is the zero ghost cell
            epf[0] = 0.0
            emf[-1] = 0.0
        diag += lam * (epf[1:] - emf[:-1]) * gp / dx
        upper[1:] += lam * emf[1:-1] * gp[1:] / dx
        lower[:-1] += -lam * epf[1:-1] * gp[:-1] / dx

    ab = np.zeros((3, n))
    ab[0, :] = upper
    ab[1, :] = diag
    ab[2, :] = lower
    return ab


def resolvent_solve(f: GridField, lam: float, spec: NonlinearitySpec,
                    drift: DriftSpec, reg: RegularizationParams,
                    newton_tol: float = 1e-12, newton_max_iter: int = 60,
                    boundary: str = "zero_flux") -> ResolventSolution:
    """One implicit step: solve u + lam*A_eps(u) = f on the grid of f.

    Damped Newton with tridiagonal Jacobian; a damped fixed-point sweep is
    tried when a Newton step stalls.  Convergence is measured in discrete L1.
    Negative undershoot is clipped at 0 and its mass reported.

    Raises
    ------
    SolverError
        If the residual has not reached newton_tol after newton_max_iter
        iterations (carries the last residual).
    """
    lam0 = lambda_zero(drift)
    if not 0.0 < lam < lam0:
        raise ValueError(f"lambda must lie in (0, {lam0}), got {lam}")
    dx = f.cell_width
    e_face = _interface_velocity(f, drift, reg)
    target = f.values

    def residual(u):
        return u + lam * _apply_operator(u, f, spec, drift, reg, e_face, boundary) - target

    u = target.copy()
    res = residual(u)
    res_l1 = float(np.sum(np.abs(res)) * dx)
    iters = 0
    while res_l1 > newton_tol and iters < newton_max_iter:
        ab = _jacobian_bands(u, f, spec, drift, reg, e_face, boundary, lam)
        delta = solve_banded((1, 1), ab, -res)
        step = 1.0
        improved = False
        for _ in range(12):
            trial = u + step * delta
            trial_res = residual(trial)
            trial_l1 = float(np.sum(np.abs(trial_res)) * dx)
            if trial_l1 < res_l1:
                u, res, res_l1 = trial, trial_res, trial_l1
                improved = True
                break
            step *= 0.5
        if not improved:
            # damped fixed-point fallback
            trial = u - 0.5 * res
            trial_res = residual(trial)
            trial_l1 = float(np.sum(np.abs(trial_res)) * dx)
            if trial_l1 >= res_l1:
                raise SolverError(
                    f"nonlinear solve stalled at residual {res_l1:.3e}",
                    residual=res_l1)
            u, res, res_l1 = trial, trial_res, trial_l1
        iters += 1
    if res_l1 > newton_tol:
        raise SolverError(
            f"nonlinear solve did not reach tol {newton_tol:.1e} "
            f"after {iters} iterations (residual {res_l1:.3e})",
            residual=res_l1)

    clipped = float(np.sum(np.maximum(-u, 0.0)) * dx)
    preclip_min = float(u.min())
    u = np.maximum(u, 0.0)
    out = GridField(lo=f.lo, hi=f.hi, values=u)
    assert out.mass() >= 0.0
    return ResolventSolution(field=out, residual_l1=res_l1,
                             newton_iters=iters, clipped_mass=clipped,
                             preclip_min=preclip_min)


def step_chain(nu: GridField, T: float, config: SolverConfig,
               spec: NonlinearitySpec, drift: DriftSpec) -> Trajectory:
    """Run the implicit chain u^(i+1) + h A(u^(i+1)) = u^i from nu up to time T.

    N = ceil(T/h) steps of size h, the last one shortened to land exactly on
    T.  The initial mass must be 1 to within 1e-8 and the run aborts if the
    accumulated undershoot clipping exceeds the configured budget.
    """
    if abs(nu.mass() - 1.0) > 1e-8:
        raise ValueError(f"initial mass must be 1 +- 1e-8, got {nu.mass()}")
    lam0 = lambda_zero(drift)
    if math.isfinite(lam0) and not config.lambda_step < lam0:
        raise ValueError(f"lambda_step {config.lambda_step} violates the "
                         f"step restriction {lam0}")
    h = config.lambda_step
    n_steps = max(1, math.ceil(T / h))
    reg = config.regularization()

    traj = Trajectory(initial=nu)
    current = nu
    t = 0.0
    clipped = 0.0   # running traj.total_clipped_mass()
    for i in range(n_steps):
        lam = h if i < n_steps - 1 else T - (n_steps - 1) * h
        if lam <= 0:
            break
        try:
            sol = resolvent_solve(current, lam, spec, drift, reg,
                                  newton_tol=config.newton_tol,
                                  newton_max_iter=config.newton_max_iter,
                                  boundary=config.boundary)
        except SolverError as err:
            err.step = i
            raise
        t += lam
        current = sol.field
        traj.times.append(t)
        traj.fields.append(current)
        traj.infos.append(sol)
        clipped += sol.clipped_mass
        if clipped > config.max_clipped_mass:
            raise SolverError(
                f"clipped mass {clipped:.3e} exceeded budget "
                f"{config.max_clipped_mass:.1e} at step {i}",
                residual=sol.residual_l1, step=i)
    return traj


def semigroup_distance(nu1: GridField, nu2: GridField, T: float,
                       config: SolverConfig, spec: NonlinearitySpec,
                       drift: DriftSpec) -> float:
    """Worst contraction ratio max_t ||S_h(t)nu1 - S_h(t)nu2||_1 / ||nu1 - nu2||_1.

    Returns 0 when the inputs coincide.  The two chains are independent and
    run on the worker pool (capped by NEMYTSKII_THREADS).
    """
    denom = nu1.l1_distance(nu2)
    if denom == 0.0:
        return 0.0
    workers = min(2, worker_count())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            f1 = pool.submit(step_chain, nu1, T, config, spec, drift)
            f2 = pool.submit(step_chain, nu2, T, config, spec, drift)
            t1, t2 = f1.result(), f2.result()
    else:
        t1 = step_chain(nu1, T, config, spec, drift)
        t2 = step_chain(nu2, T, config, spec, drift)
    ratios = [a.l1_distance(b) / denom for a, b in zip(t1.fields, t2.fields)]
    return max(ratios)


def write_trajectory_binary(traj: Trajectory, path) -> None:
    """Compact little-endian dump of a chain.

    Layout: int64 n_cells, float64 lo, float64 hi, int64 n_steps, then per
    step one float64 time followed by n_cells float64 cell values.
    """
    n = traj.initial.n_cells
    with open(path, "wb") as fh:
        np.asarray([n], dtype="<i8").tofile(fh)
        np.asarray([traj.initial.lo, traj.initial.hi], dtype="<f8").tofile(fh)
        np.asarray([len(traj.fields)], dtype="<i8").tofile(fh)
        for t, fld in zip(traj.times, traj.fields):
            np.asarray([t], dtype="<f8").tofile(fh)
            fld.values.astype("<f8").tofile(fh)


def read_trajectory_binary(path) -> tuple[float, float, list[float], list[np.ndarray]]:
    """Inverse of write_trajectory_binary; returns (lo, hi, times, value arrays)."""
    with open(path, "rb") as fh:
        n = int(np.fromfile(fh, dtype="<i8", count=1)[0])
        lo, hi = np.fromfile(fh, dtype="<f8", count=2)
        n_steps = int(np.fromfile(fh, dtype="<i8", count=1)[0])
        times = []
        fields = []
        for _ in range(n_steps):
            times.append(float(np.fromfile(fh, dtype="<f8", count=1)[0]))
            fields.append(np.fromfile(fh, dtype="<f8", count=n))
    return float(lo), float(hi), times, fields


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
    for i, (t, fld) in enumerate(zip(traj.times, traj.fields)):
        h = t - prev_t
        prev_t = t
        cumulative += h * dissipation_of(fld.values)
        s = entropy_of(fld.values)
        records.append(EntropyRecord(step=i + 1, t=t, entropy=s,
                                     cumulative_dissipation=cumulative,
                                     audit_value=s + cumulative - s0))
    return records
