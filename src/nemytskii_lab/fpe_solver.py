"""Implicit finite-difference chain for the degenerate Fokker-Planck flow.

One backward step solves the elliptic problem

    u - lam * Lap_h(beta(u)) + lam * div_h(E * b(u) * u)  =  f

on a uniform cell-centered grid via damped Newton with a tridiagonal
Jacobian, solved directly by LAPACK gtsv; chaining steps of size h yields
the piecewise-constant-in-time mild approximation whose limit defines the
semigroup.  beta, E and b enter as given: none is regularized.  The chain
starts Newton at u^0 in its first step, at the linear predictor
max(2u^i - u^(i-1), 0) in its second and at the quadratic predictor
max(3(u^i - u^(i-1)) + u^(i-2), 0) from its third on.  Each solve reports
its Newton iterations, line-search halvings and fixed-point fallbacks.
Fluxes are written in conservation form (3-point diffusive flux, donor-cell
upwind advection), so the zero-flux boundary conserves mass to roundoff.

One _Operator per chain decides how the drift enters: it holds the flux,
the Jacobian bands and the cells Newton solves on.  When the drift vanishes
(DriftSpec.vanishes: E b = 0, as for E = 0 or b = 0), there is no advection
and Newton runs on a window: the cells where f or the start is nonzero,
widened by NEWTON_MAX_ITER + 2 cells per side and clipped to the grid.  The
result is the full-grid one bit for bit.  beta'(0) = 0 makes each vacuum
column of the Jacobian an identity column, so each Newton step, line-search
trial or fixed-point step widens the support by at most one cell per side;
the cells outside the window keep u = 0, a zero residual and zero flux at
the window's faces, and gtsv eliminates each block of the block-diagonal
system on its own.  With drift, advection couples vacuum cells through b(0),
and the window is the whole grid.

A chain is strictly sequential and runs in the calling thread.  Its one
step loop is the stream chain_steps returns: each step is yielded as it is
solved, and the chain keeps four buffers per row (the three iterates the
predictor reads and the output), so a long chain holds a few rows, not its
trajectory.  step_chain collects the stream of one field into a Trajectory,
and the CLI and semigroup_distance reduce it step by step.  chain_steps
takes a tuple of fields on one grid and runs their chains as a stack, one
row per field.  The k rows of a stack share their windows' union and lie
end to end in one flat array, the layout of the gtsv bands; the faces
between two rows (the seams) carry exactly zero flux and the bands couple no
two rows.  Each Newton iteration solves all k rows with one gtsv call for
their block-diagonal system, and only a row still above NEWTON_TOL takes its
trial, so each row keeps its own line search and its own stop.  Each row
equals its standalone chain bit for bit, and semigroup_distance runs its
pair this way.  The arrays Newton
writes (fluxes, bands, iterates, residuals) live in a workspace that the
chain's _Operator allocates at construction, sized for the chain's rows, and
reuses at every step.

scipy is imported only when a chain first solves: the first
_tridiagonal_solve loads LAPACK gtsv from scipy.linalg and keeps it.  A
process that runs no chain (the particle scenarios) never loads scipy.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Callable, Iterator
# ThreadPoolExecutor and the epsilon-regularized coefficients are unused here;
# the traced benchmark patches them by name until ROADMAP items 1 and 2.
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
    "ChainStep",
    "EntropyRecord",
    "resolvent_solve",
    "chain_steps",
    "step_chain",
    "semigroup_distance",
    "entropy_recorder",
    "entropy_audit",
    "trajectory_binary_writer",
    "write_trajectory_binary",
    "read_trajectory_binary",
    "MAX_CLIPPED_MASS",
    "NEWTON_TOL",
    "NEWTON_MAX_ITER",
]

# budget for the undershoot mass a chain may clip away, summed over its steps
MAX_CLIPPED_MASS = 1e-6
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
    """Nonlinear solve failure; carries the last residual, the step index,
    the failing row of a stack of chains (0 for a single one) and the step
    length lam of the failing solve."""

    def __init__(self, message: str, residual: float = math.nan,
                 step: int | None = None, row: int | None = None,
                 lam: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.step = step
        self.row = row
        self.lam = lam


def _cell_centers(lo: float, hi: float, n_cells: int) -> np.ndarray:
    """lo + (i + 0.5) (hi - lo) / n_cells, cell i's centre."""
    return lo + (np.arange(n_cells) + 0.5) * (hi - lo) / n_cells


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
        # hi - lo is not finite when lo or hi is not, or when it overflows
        if not 0.0 < self.hi - self.lo < math.inf:
            raise ValueError(f"need hi > lo with finite lo, hi and hi - lo, got "
                             f"lo = {self.lo!r} and hi = {self.hi!r}")
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
        return _cell_centers(self.lo, self.hi, self.n_cells)

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
        """The field of max(fn, 0) at the cell centres, the field's own centers."""
        centers = _cell_centers(lo, hi, n_cells)
        return cls(lo=lo, hi=hi, values=np.maximum(np.asarray(fn(centers), dtype=float), 0.0))

    def normalized(self) -> "GridField":
        m = self.mass()
        if m <= 0:
            raise ValueError("cannot normalize a zero field")
        return replace(self, values=self.values / m)


@dataclass(frozen=True)
class SolverConfig:
    """Step size h of the chain.

    Each step uses beta, E and b as given, has a zero-flux boundary and runs
    Newton to NEWTON_TOL within NEWTON_MAX_ITER iterations; a chain aborts
    once its clipped undershoot mass exceeds MAX_CLIPPED_MASS.
    """

    lambda_step: float

    def __post_init__(self):
        if not 0 < self.lambda_step < math.inf:
            raise ValueError(f"lambda_step must be positive and finite, got {self.lambda_step!r}")


def _check_step(lam: float, drift: DriftSpec) -> None:
    """The step restriction 0 < lam < lambda_zero(drift)."""
    lam0 = lambda_zero(drift)
    if not 0.0 < lam < lam0:
        raise ValueError(f"step lambda = {lam!r} violates the step restriction "
                         f"0 < lambda < lambda_0 = {lam0!r}")


@dataclass(frozen=True)
class ResolventSolution:
    """Resolvent output plus solve diagnostics (residual, clipping).

    values is the solution's row of cell values on the grid of the solve.
    preclip_min is the smallest cell value before the undershoot clip, so a
    negative value shows how far the Newton iterate left the positive cone.
    halvings counts the line search's step halvings over all iterations and
    fallbacks the iterations that took the damped fixed-point step.
    """

    values: np.ndarray
    residual_l1: float
    newton_iters: int
    clipped_mass: float
    preclip_min: float
    halvings: int
    fallbacks: int


@dataclass
class Trajectory:
    """A chain collected by step_chain: the initial datum, and an (N, n_cells)
    array whose row i is the iterate at times[i], with infos[i] its report
    (whose values are that row)."""

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


@dataclass(frozen=True)
class ChainStep:
    """One step of a chain, as chain_steps yields it.

    index is the step's index i (0 for the first), t the time it reaches and
    lam its length.  infos[r] is row r's report, and infos[r].values its
    iterate at t.  Those values are a buffer the chain reuses: it stays
    valid until the stream moves on, so a consumer that keeps a row copies
    it.
    """

    index: int
    t: float
    lam: float
    infos: tuple[ResolventSolution, ...]


# ---------------------------------------------------------------------------
# the discrete operator
# ---------------------------------------------------------------------------

class _Operator:
    """A(u) = -Lap_h beta(u) + div_h(E b(u) u) of one chain, with what Newton
    needs of it: the cells it solves on, the Jacobian bands and a workspace.

    Both fluxes are in conservation form with zero flux through the boundary,
    so telescoping conserves mass: the 3-point diffusive flux, and the
    donor-cell advective flux of E b(u) u.  The advection is built once per
    chain: the splits E+ and E- of E at the faces, zero at the two boundary
    faces, the outflow E+ - E- of each cell, b, and b's value b0 when b is
    constant.  When the drift vanishes there is none, and Newton runs on the
    window of the module docstring; otherwise on the whole grid.

    beta(u) = |u|^(m-1) u and beta'(u) = m |u|^(m-1) share one power:
    apply forms |u|^(m-1) once per iterate, with ** as NonlinearitySpec.beta
    and beta_prime take it (numpy's shortcuts for exponents 2 and 0.5
    included; the exponent 1 only copies and is skipped), keeps it in a
    buffer beside the iterate, and bands forms beta' from it with one
    multiply.  Both give the bits of the spec's beta and beta_prime.

    The chain's rows (one per field) of width cells each lie end to end in
    one flat array of rows*width cells, the layout of gtsv's bands.  The
    rows - 1 faces between two rows (the seams) carry exactly zero flux, as
    a row's boundary faces do, and the band entries coupling two rows are 0,
    so each row's operator and bands are those of the row alone.  The
    workspace holds every array the Newton loop writes: the face fluxes, the
    bands, |res|, and the iterate, trial, residual, power and target
    buffers.  It is allocated at construction, sized for the chain's rows of
    the whole grid, and each step uses views of its first rows*width cells.
    The bands that depend only on the width and lam (lam * lap_diag / dx**2
    and, for a constant b, the advective parts) are built when either
    changes, so a drifted chain builds them once per distinct lam.
    """

    def __init__(self, grid: GridField, spec: NonlinearitySpec, drift: DriftSpec,
                 rows: int):
        self.grid, self.dx, self.rows = grid, grid.cell_width, rows
        self.m, self._exponent = spec.m, spec.m - 1.0
        self.drifted = not drift.vanishes
        size = rows * grid.n_cells
        # the diffusive and advective face fluxes; face 0 is never written
        # and stays 0
        self._faces = np.zeros((2, size + 1))
        self._space = np.empty((13, size))
        if self.drifted:
            e_face = np.asarray(drift.E(grid.edges), dtype=float)
            ep, em = np.maximum(e_face, 0.0), np.minimum(e_face, 0.0)
            ep[0] = em[0] = ep[-1] = em[-1] = 0.0
            # per cell of a row: the splits at the face after it (the last
            # cell's is the seam to the next row, with no flux) and its outflow
            self._splits = np.tile(np.stack((ep[1:], em[1:], ep[1:] - em[:-1])), rows)
            self.b = drift.b
            self.b0 = float(np.asarray(drift.b(0.0))) if drift.b_is_constant else None
        self._width = None   # the width the workspace's views span
        self._lam = None     # the lam of the constant bands

    def windows(self, fs, starts) -> list[tuple[int, int]]:
        """The cells (first, one past the last) Newton solves on for each row
        f, start of fs and starts: its occupied cells widened by
        NEWTON_MAX_ITER + 2 per side (one cell per Newton iteration, and one
        more each for the residual's stencil and the window's face), or the
        whole grid when advection couples vacuum cells through b(0)."""
        n = self.grid.n_cells
        if self.drifted:
            return [(0, n)] * len(fs)
        margin = NEWTON_MAX_ITER + 2
        spans = []
        for f, start in zip(fs, starts):
            occupied = _span((f != 0.0) | (start != 0.0))
            # an empty row does not move, and one residual shows it
            spans.append((max(occupied[0] - margin, 0), min(occupied[1] + margin, n))
                         if occupied else (0, n))
        return spans

    def apply(self, u: np.ndarray, out: np.ndarray, power: np.ndarray) -> np.ndarray:
        """A(u) on each row of u into out, and |u|^(m-1) into power, for
        bands.  u, out and power hold the chain's rows of the width that
        jacobian laid out last, end to end."""
        dx = self.dx
        np.abs(u, out=power)
        if self._exponent != 1.0:
            power **= self._exponent
        # beta(u), held in out until the fluxes are formed
        np.multiply(power, u, out=out)

        # diffusive flux -D(beta)/dx at the faces inside the rows
        inner, after, before = self._dif
        np.subtract(out[:-1], out[1:], out=inner)
        inner /= dx

        if self.drifted:
            # donor-cell advective flux of E * b(u) * u; b = 1 carries u itself
            carried = u
            if self.b0 != 1.0:
                carried = np.multiply(self.b0 if self.b0 is not None
                                      else np.asarray(self.b(u)), u, out=self._carried)
            adv_inner, adv_after, adv_before = self._adv
            np.multiply(self._ep, carried[:-1], out=adv_inner)
            adv_inner += np.multiply(self._em, carried[1:], out=self._product)
        if self.rows > 1:
            self._faces.put(self._face_seams, 0.0)
        if not self.drifted:
            np.subtract(after, before, out=out)
        else:
            np.add(after, adv_after, out=out)
            out -= before
            out -= adv_before
        out /= dx
        return out

    def residual(self, v: np.ndarray, out: np.ndarray, power: np.ndarray,
                 windows=None) -> list[float]:
        """The residual v + lam*A(v) - target of each row into out, and
        |v|^(m-1) into power (see apply); returns each row's L1 norm.
        windows holds, per row, the view of abs_rows over which the row is
        summed, or is None when every row is summed over all of it."""
        self.apply(v, out, power)
        out *= self._lam
        out += v
        out -= self.target
        np.abs(out, out=self.abs_res)
        if windows is None:
            return (np.add.reduce(self.abs_rows, axis=1) * self.dx).tolist()
        return [float(np.add.reduce(cells)) * self.dx for cells in windows]

    def jacobian(self, lam: float, width: int):
        """Point the workspace's views at the chain's rows of width cells each,
        width at most the grid's, and return bands(u, power): the diagonals
        (dl, d, du) of the Jacobian of u + lam*A(u) at u, the rows end to end,
        where power is the |u|^(m-1) that apply gave for u.

        The bands are those of the block-diagonal (rows*width) system, whose
        entries coupling one row to the next are 0.  dl[j] holds J[j+1, j]
        and du[j] holds J[j, j+1].  With beta' >= 0 and (b(r) r)' >= 0 every
        column is diagonally dominant with a diagonal of at least 1, so J is
        nonsingular.  The views are re-pointed only when the width changes,
        and what stays fixed for this width and lam is built only when either
        changes: lam * lap_diag / dx**2, and the advective terms when b is
        constant, since (b(u) u)' is then b0.  The bands are views of the
        workspace, overwritten by the next bands(u, power).
        """
        cells = self.rows * width
        if width != self._width:
            self._width, self._lam = width, None
            (off, du, self.u, self.trial, self.res, self.trial_res, self.power,
             self.trial_power, self.target, self.abs_res, self._d, carried,
             product) = self._space[:, :cells]
            self.u_rows, self.target_rows, self.abs_rows = (
                a.reshape(self.rows, width) for a in (self.u, self.target, self.abs_res))
            # each flux at the faces inside the rows, after each cell and
            # before each cell; the last face is the boundary's, with no flux
            self._dif, self._adv = ((f[1:cells], f[1:cells + 1], f[:cells])
                                    for f in self._faces)
            self._faces[:, cells] = 0.0
            self._off, self._off_next = off, off[1:]
            self._dl, self._du = off[:-1], du[:-1]
            # the seams' faces in both fluxes, and the entries of dl and du
            # (rows 0 and 1 of the workspace) that would couple a row to the
            # next, as flat indices
            seams = np.arange(width, cells, width)
            self._face_seams = np.concatenate((seams, seams + self._faces.shape[1]))
            self._band_seams = np.concatenate((seams - 1, seams - 1 + self._space.shape[1]))
            if self.drifted:
                ep, em, self._outflow = self._splits[:, :cells]
                self._ep, self._em = ep[:-1], em[:-1]
                self._carried, self._product = carried, product[:-1]
        if lam != self._lam:
            self._lam, dx, dx2 = lam, self.dx, self.dx**2
            # lam * lap_diag / dx**2, with lap_diag 2 inside a row and 1 at its ends
            self._lap = np.full(cells, lam * 2.0 / dx2)
            self._lap[::width] = self._lap[width - 1::width] = lam / dx2
            if self.drifted:
                # the advective parts of (d, du, dl) are these times (b(u) u)' / dx
                self._advective = (lam * self._outflow, lam * self._em, -lam * self._ep)
                self._fixed = None if self.b0 is None else tuple(
                    part * self.b0 / dx for part in self._advective)
        return self._bands

    def _bands(self, u: np.ndarray, power: np.ndarray):
        lam, dx = self._lam, self.dx
        # beta'(u) = m |u|^(m-1), which gives both off-diagonals,
        # -lam*beta'/dx^2
        off = np.multiply(self.m, power, out=self._off)
        d = np.multiply(self._lap, off, out=self._d)
        d += 1.0
        off *= -lam
        off /= dx**2
        dl, du = self._dl, self._du
        if self.drifted:
            if self._fixed is not None:
                add_d, add_du, add_dl = self._fixed
            else:
                gp = self.slope(u)
                diag, upper, lower = self._advective
                add_d, add_du, add_dl = (diag * gp / dx, upper * gp[1:] / dx,
                                         lower * gp[:-1] / dx)
            d += add_d
            np.add(self._off_next, add_du, out=du)
            dl += add_dl
        else:
            du[...] = self._off_next
        if self.rows > 1:
            self._space.put(self._band_seams, 0.0)
        return dl, d, du

    def slope(self, u: np.ndarray) -> np.ndarray:
        """(b(u) u)' = b(u) + b'(u) u, with b' by one central difference."""
        return np.asarray(self.b(u)) + (np.asarray(self.b(u + 1e-6))
                                        - np.asarray(self.b(u - 1e-6))) / 2e-6 * u


def _span(mask: np.ndarray) -> tuple[int, int] | None:
    """(first, one past the last) index where mask is set; None if nowhere."""
    first = int(mask.argmax())
    if not mask[first]:
        return None
    return first, mask.size - int(mask[::-1].argmax())


@functools.cache
def _gtsv():
    """scipy's LAPACK dgtsv, imported by the first call and kept."""
    from scipy.linalg.lapack import dgtsv
    return dgtsv


def _tridiagonal_solve(bands, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve the system with diagonals bands = (dl, d, du) by LAPACK gtsv.

    solve_banded((1, 1), ...) runs the same routine, so x is bit-identical;
    this skips its validation and copies.  bands are overwritten, rhs is
    not: x is a new array.  Returns x and gtsv's info, which is > 0 at an
    exactly zero pivot.
    """
    dl, d, du = bands
    *_, x, info = _gtsv()(dl, d, du, rhs, overwrite_dl=True, overwrite_d=True,
                          overwrite_du=True)
    return x, info


def _failure(what: str, row: int, iters: int, l1, lam: float, k: int) -> SolverError:
    which = f" of row {row}" if k > 1 else ""
    return SolverError(f"nonlinear solve{which} at lam={lam!r} {what} after "
                       f"{iters} iterations (residual {l1[row]:.3e})",
                       residual=l1[row], row=row, lam=lam)


def _newton_stack(op: _Operator, fs: np.ndarray, starts: np.ndarray, lam: float,
                  outs: np.ndarray) -> list[ResolventSolution]:
    """Solve u + lam*A(u) = f for each row f of fs by one damped Newton loop.

    fs, starts and outs are (k, n) arrays, one row of the grid's n cells per
    row of op's chain: the right-hand sides, the Newton starts and the
    outputs.  outs may be starts, which is read before outs is written.  The
    rows share the union of their windows (op.windows) and lie end to end in
    the workspace op allocated for them (see _Operator).  Each iteration
    solves the whole stack as one block-diagonal system and forms every
    trial for all rows, but only a row still above NEWTON_TOL and still
    searching takes its trial.  The blocks do not couple and all else works
    row by row, so every row equals its own solve bit for bit.  The cells of
    the union outside a row's own window stay 0 in that row, and each row's
    residual is summed over its own window only, as its own solve sums it.

    Each iteration tries the full Newton step u - x, with x the solution of
    J x = res.  The pending rows whose residual fell take their step and the
    others halve theirs: when every row of the stack takes it, the trial's
    buffers (iterate, residual and power) swap with u's, else those rows are
    copied over.

    Raises SolverError naming the failing row (its index in fs) and stating
    lam, the iteration count and that row's residual.
    """
    k, dx = len(fs), op.dx
    spans = op.windows(fs, starts)
    lo, hi = min(a for a, _ in spans), max(b for _, b in spans)
    width = hi - lo
    own = [(a - lo, b - lo) for a, b in spans]
    bands = op.jacobian(lam, width)
    # each row's residual is summed over its own window
    windows = None if spans.count((lo, hi)) == k else [
        row[a:b] for row, (a, b) in zip(op.abs_rows, own)]
    op.target_rows[...] = fs[:, lo:hi]
    op.u_rows[...] = starts[:, lo:hi]
    u, trial, res, trial_res = op.u, op.trial, op.res, op.trial_res
    power, trial_power = op.power, op.trial_power

    l1 = op.residual(u, res, power, windows)
    for r in range(k):
        if not math.isfinite(l1[r]):
            raise _failure("has a non-finite residual", r, 0, l1, lam, k)
    iters, halvings, fallbacks = [0] * k, [0] * k, [0] * k
    pending = [r for r in range(k) if l1[r] > NEWTON_TOL]
    it = 0
    while pending:
        if it == NEWTON_MAX_ITER:
            raise _failure(f"did not reach tol {NEWTON_TOL:.1e}", pending[0], it,
                           l1, lam, k)
        x, info = _tridiagonal_solve(bands(u, power), res)
        if info != 0:
            raise _failure(f"failed in the tridiagonal solve (gtsv info {info})",
                           (info - 1) // width, it, l1, lam, k)
        np.subtract(u, x, out=trial)
        # each pending row halves its step until its residual falls; the rows
        # still searching share the step, since they started together
        searching, step = pending, 1.0
        for halving in range(12):
            if halving:
                np.subtract(u, np.multiply(x, step, out=trial), out=trial)
            trial_l1 = op.residual(trial, trial_res, trial_power, windows)
            fell = [r for r in searching if trial_l1[r] < l1[r]]
            if len(fell) == k:
                u, trial, res, trial_res = trial, u, trial_res, res
                power, trial_power, l1 = trial_power, power, trial_l1
            else:
                _take_rows(fell, (u, res, power), (trial, trial_res, trial_power),
                           l1, trial_l1, width)
            if len(fell) == len(searching):
                break
            searching = [r for r in searching if r not in fell]
            step *= 0.5
            for r in searching:
                halvings[r] += 1
        else:
            # damped fixed-point fallback
            np.subtract(u, np.multiply(0.5, res, out=trial), out=trial)
            trial_l1 = op.residual(trial, trial_res, trial_power, windows)
            for r in searching:
                if not trial_l1[r] < l1[r]:
                    raise _failure("stalled", r, it, l1, lam, k)
                fallbacks[r] += 1
            _take_rows(searching, (u, res, power), (trial, trial_res, trial_power),
                       l1, trial_l1, width)
        it += 1
        if min(l1[r] for r in pending) <= NEWTON_TOL:
            for r in pending:
                iters[r] = it
            pending = [r for r in pending if l1[r] > NEWTON_TOL]

    rows = u.reshape(k, width)
    # a row's cells outside its own window are exactly 0, and its window
    # keeps at least two of them whenever it is narrower than the union, so
    # the minimum over the union's cells is the window's
    preclip_min = np.minimum.reduce(rows, axis=1).tolist()
    if lo:
        outs[:, :lo] = 0.0
    if hi < outs.shape[1]:
        outs[:, hi:] = 0.0
    np.maximum(rows, 0.0, out=outs[:, lo:hi])
    solutions = []
    for r, (a, b) in enumerate(own):
        clipped = 0.0
        if preclip_min[r] < 0.0:
            clipped = float(np.add.reduce(np.maximum(-rows[r, a:b], 0.0))) * dx
        solutions.append(ResolventSolution(
            values=outs[r], residual_l1=l1[r], newton_iters=iters[r],
            clipped_mass=clipped, preclip_min=preclip_min[r],
            halvings=halvings[r], fallbacks=fallbacks[r]))
    return solutions


def _take_rows(rows, buffers, trials, l1, trial_l1, width: int) -> None:
    """Copy the rows (a list of row indices) of each trial buffer over the
    same rows of its buffer, and their L1 norms over l1's."""
    for r in rows:
        cells = slice(r * width, (r + 1) * width)
        for buffer, trial in zip(buffers, trials):
            buffer[cells] = trial[cells]
        l1[r] = trial_l1[r]


def resolvent_solve(f: GridField, lam: float, spec: NonlinearitySpec,
                    drift: DriftSpec) -> ResolventSolution:
    """One implicit step: solve u + lam*A(u) = f on the grid of f.

    A(u) = -Lap_h beta(u) + div_h(E b(u) u), with the drift's E at the
    cell faces and its b as given.  Damped Newton from f's values with a
    tridiagonal Jacobian, solved directly by LAPACK gtsv.  Each residual
    evaluation applies the operator once.  The line search halves a rejected
    step up to 12 times; when every trial fails, a damped fixed-point step
    is tried instead.  The solution reports the halvings and fixed-point fallbacks.
    Convergence is measured in discrete L1: Newton stops at NEWTON_TOL.
    Negative undershoot is clipped at 0 and its mass reported; the
    solution's values are a new array.  This is the chain's Newton loop on
    a stack of one row, whose every iteration makes one gtsv call over the
    row.

    When the drift vanishes (drift.vanishes), Newton runs on the window of
    the module docstring, and the values are those of a full-grid solve bit for
    bit; residual_l1 and clipped_mass are summed over the window, so only
    their last bits may differ from a full-grid solve's.

    Raises
    ------
    SolverError
        If a residual is not finite, the residual has not reached NEWTON_TOL
        after NEWTON_MAX_ITER iterations, a step stalls or the tridiagonal
        solve fails (carries the last residual; the message states lam and
        the iteration count).
    """
    _check_step(lam, drift)
    return _newton_stack(_Operator(f, spec, drift, 1), f.values[None], f.values[None],
                         lam, np.empty((1, f.n_cells)))[0]


def chain_steps(fields: tuple[GridField, ...], T: float, config: SolverConfig,
                spec: NonlinearitySpec,
                drift: DriftSpec) -> tuple[int, Iterator[ChainStep]]:
    """The implicit chain u^(i+1) + h A(u^(i+1)) = u^i from each of fields up
    to time T, as a stream: (N, steps), where steps yields the N ChainSteps
    in order, each solved as it is drawn.

    This is the chain's one step loop, and the only way to run a stack:
    step_chain runs it on one field and documents the steps and the checks,
    which run here before the stream is returned.  The fields run as a
    stack of rows (see _newton_stack), one Newton loop per step for all of
    them, and each row equals its own chain bit for bit, with the same
    Newton counts.  Each row's four buffers rotate: the step writes its
    output over the oldest iterate, three steps back, so the rows of a step
    stay intact until the stream moves on.
    """
    if not fields:
        raise ValueError("chain_steps needs at least one field")
    grid = fields[0]
    if any((f.lo, f.hi, f.n_cells) != (grid.lo, grid.hi, grid.n_cells)
           for f in fields):
        raise ValueError("fields live on different grids")
    if not T > 0:
        raise ValueError(f"chain horizon T must be positive, got T = {T!r}")
    for f in fields:
        if abs(f.mass() - 1.0) > 1e-8:
            raise ValueError(f"initial mass must be 1 +- 1e-8, got {f.mass()}")
    _check_step(config.lambda_step, drift)
    h = config.lambda_step
    if not math.isfinite(T / h):
        raise ValueError(f"T = {T!r} and h = {h!r} give no finite step count T/h")
    n_steps = max(1, math.ceil(T / h))
    last = T - (n_steps - 1) * h
    if n_steps > 1 and last <= 1e-9 * h:   # only rounding left it
        n_steps -= 1
        last = h
    return n_steps, _steps(fields, n_steps, h, last, spec, drift)


def _steps(fields, n_steps: int, h: float, last: float, spec: NonlinearitySpec,
           drift: DriftSpec) -> Iterator[ChainStep]:
    """The generator behind chain_steps, on arguments it has checked."""
    k, grid = len(fields), fields[0]
    op = _Operator(grid, spec, drift, k)
    # step i writes u^(i+1) into buffers[i % 4]; u^0, the fields, starts in
    # buffers[3], which step 3 is the first to overwrite
    buffers = np.empty((4, k, grid.n_cells))
    for row, f in zip(buffers[3], fields):
        row[...] = f.values
    t = 0.0
    clipped = [0.0] * k   # running totals of the steps' clipped mass
    for i in range(n_steps):
        lam = h if i < n_steps - 1 else last
        current, outs = buffers[(i - 1) % 4], buffers[i % 4]
        starts = current
        if i:
            # the linear predictor max(2u^i - u^(i-1), 0) at the second step,
            # the quadratic max(3(u^i - u^(i-1)) + u^(i-2), 0) from the third
            # on, formed in the output
            starts, previous = outs, buffers[(i - 2) % 4]
            if i == 1:
                np.multiply(current, 2.0, out=outs)
                outs -= previous
            else:
                np.subtract(current, previous, out=outs)
                outs *= 3.0
                outs += buffers[(i - 3) % 4]
            np.maximum(outs, 0.0, out=outs)
        try:
            sols = _newton_stack(op, current, starts, lam, outs)
        except SolverError as err:
            err.step = i
            raise
        t += lam
        for r, sol in enumerate(sols):
            clipped[r] += sol.clipped_mass
            if clipped[r] > MAX_CLIPPED_MASS:
                which = f" of chain {r}" if k > 1 else ""
                raise SolverError(
                    f"clipped mass {clipped[r]:.3e} exceeded budget "
                    f"{MAX_CLIPPED_MASS:.1e} at step {i}{which}",
                    residual=sol.residual_l1, step=i, row=r, lam=lam)
        yield ChainStep(index=i, t=t, lam=lam, infos=tuple(sols))


def step_chain(nu: GridField, T: float, config: SolverConfig,
               spec: NonlinearitySpec, drift: DriftSpec) -> Trajectory:
    """Run the implicit chain u^(i+1) + h A(u^(i+1)) = u^i from nu up to time T
    and collect it into a Trajectory.

    N = ceil(T/h) steps of size h, the last one shortened to land on T.
    When rounding leaves a last step of at most 1e-9 h (T = 0.14 - 0.1 with
    h = 1e-3 gives T/h = 40.00000000000001), that step is not taken and the
    chain ends after N - 1 full steps.  Newton starts at u^i in the first
    step, at the linear predictor max(2u^i - u^(i-1), 0) in the second and
    at the quadratic predictor max(3(u^i - u^(i-1)) + u^(i-2), 0) from the
    third on.  On the benchmark's 4000-cell, 900-step Barenblatt chain this
    took 2061 Newton iterations, against 2365 with the linear predictor
    throughout and 2825 from u^i; its 50 pairs of drifted 200-cell
    10-step chains took 2661, against 2956.  The initial mass must be 1 to within 1e-8 and a chain
    aborts if its accumulated undershoot clipping exceeds MAX_CLIPPED_MASS.
    E is evaluated at the faces once per chain.

    The steps are those of the stream chain_steps returns; step_chain copies
    each row into an (N, n_cells) array and points each report's values at
    its stored row.  A caller that reduces the chain step by step, or runs
    several fields as a stack, reads the stream instead.

    Raises TypeError when nu is not one GridField, ValueError when T is not
    positive, T/h is not finite or h breaks the step restriction, and
    SolverError, carrying the step, when a solve fails or clipping exceeds
    its budget.
    """
    if not isinstance(nu, GridField):
        raise TypeError(f"step_chain runs one GridField, got {type(nu).__name__}; "
                        "chain_steps runs a stack of fields")
    n_steps, steps = chain_steps((nu,), T, config, spec, drift)
    times = np.empty(n_steps)
    values = np.empty((n_steps, nu.n_cells))
    infos = []
    for step in steps:
        (sol,) = step.infos
        times[step.index] = step.t
        kept = values[step.index]
        kept[...] = sol.values
        # the kept report's values are the stored row, not the reused buffer
        infos.append(replace(sol, values=kept))
    return Trajectory(initial=nu, times=times, values=values, infos=infos)


def semigroup_distance(nu1: GridField, nu2: GridField, T: float,
                       config: SolverConfig, spec: NonlinearitySpec,
                       drift: DriftSpec) -> float:
    """Worst contraction ratio max_t ||S_h(t)nu1 - S_h(t)nu2||_1 / ||nu1 - nu2||_1.

    The arguments are checked as step_chain checks them; then 0 is returned
    when the inputs coincide.  The two chains run as one stack of two rows
    from chain_steps, so each step's Newton iterations solve both at once,
    and each step's L1 gap is summed as the step arrives.
    """
    _, steps = chain_steps((nu1, nu2), T, config, spec, drift)
    denom = nu1.l1_distance(nu2)
    if denom == 0.0:
        return 0.0
    gap = np.empty(nu1.n_cells)
    worst = 0.0
    for step in steps:
        first, second = step.infos
        np.subtract(first.values, second.values, out=gap)
        np.abs(gap, out=gap)
        worst = max(worst, float(np.add.reduce(gap)) * nu1.cell_width / denom)
    return worst


def trajectory_binary_writer(fh, grid: GridField,
                             n_steps: int) -> Callable[[float, np.ndarray], None]:
    """Write the header of an n_steps chain on grid's cells into fh, a file
    open for binary writing, and return write(t, row), which appends one
    step's record.

    Layout: int64 n_cells, float64 lo, float64 hi, int64 n_steps, then per
    step one float64 time followed by n_cells float64 cell values, all
    little-endian.
    """
    np.asarray([grid.n_cells], dtype="<i8").tofile(fh)
    np.asarray([grid.lo, grid.hi], dtype="<f8").tofile(fh)
    np.asarray([n_steps], dtype="<i8").tofile(fh)

    def write(t: float, row: np.ndarray) -> None:
        np.asarray([t], dtype="<f8").tofile(fh)
        row.astype("<f8", copy=False).tofile(fh)

    return write


def write_trajectory_binary(traj: Trajectory, fh) -> None:
    """Compact dump of a collected chain into fh, a file open for binary
    writing, in the layout of trajectory_binary_writer."""
    write = trajectory_binary_writer(fh, traj.initial, traj.times.size)
    for t, row in zip(traj.times, traj.values):
        write(t, row)


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


def entropy_recorder(initial: GridField, spec: NonlinearitySpec
                     ) -> Callable[[float, np.ndarray], EntropyRecord]:
    """The per-step entropy balance of a chain from initial, one row at a time.

    Returns record(t, row), to be called with each step's time and iterate in
    step order; it returns that step's EntropyRecord: the cell-sum entropy
    integral of Psi(u), the cumulative forward-difference dissipation
    sum_s h * sum_cells |D_h beta^(1/2)(u_s)|^2 dx, with h the time since the
    previous step, and the audit value

        [entropy(t) + cumulative dissipation] - entropy(initial),

    which stays <= 0 (up to solver tolerance) for drift-free runs.
    """
    dx = initial.cell_width
    n = initial.n_cells
    # Psi and sqrt(beta) are evaluated on each row's nonzero span only; the
    # span is scattered into a zero row and the sum runs over the full row,
    # so the sums are those of full-row evaluations bit for bit, since
    # Psi(0) = 0 and sqrt(beta(0)) = 0.
    psi = np.zeros(n)
    grad2 = np.zeros(n - 1)   # |D_h beta^(1/2)|^2 at the interior faces

    def entropy_and_dissipation(vals):
        occupied = _span(vals != 0.0)
        if not occupied:
            return 0.0, 0.0
        a, b = occupied
        psi[a:b] = entropy_Psi(spec, vals[a:b])
        entropy = float(np.sum(psi) * dx)
        psi[a:b] = 0.0
        # the faces with a nonzero difference lie between cells a - 1 and b
        a, b = max(a - 1, 0), min(b + 1, n)
        root = np.sqrt(np.asarray(spec.beta(vals[a:b])))
        grad = (root[1:] - root[:-1]) / dx
        grad2[a:b - 1] = grad * grad
        dissipation = float(np.sum(grad2) * dx)
        grad2[a:b - 1] = 0.0
        return entropy, dissipation

    s0 = entropy_and_dissipation(initial.values)[0]
    step, prev_t, cumulative = 0, 0.0, 0.0

    def record(t: float, row: np.ndarray) -> EntropyRecord:
        nonlocal step, prev_t, cumulative
        s, dissipation = entropy_and_dissipation(row)
        cumulative += (t - prev_t) * dissipation
        step, prev_t = step + 1, t
        return EntropyRecord(step=step, t=t, entropy=s,
                             cumulative_dissipation=cumulative,
                             audit_value=s + cumulative - s0)

    return record


def entropy_audit(traj: Trajectory, spec: NonlinearitySpec) -> list[EntropyRecord]:
    """Per-step entropy balance of a collected chain (see entropy_recorder)."""
    record = entropy_recorder(traj.initial, spec)
    return [record(t, row) for t, row in zip(traj.times.tolist(), traj.values)]
