"""Numerical functionals shared by the test batteries and the CLI.

Local Hardy-Littlewood maximal functions with the companion Lipschitz-type
pair estimate, Gagliardo (fractional Sobolev) seminorms with refinement
flags, and the exact 1-D Wasserstein-1 distance between CDFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fpe_solver import GridField

__all__ = [
    "SampledFunction",
    "LipschitzReport",
    "GagliardoResult",
    "maximal_function",
    "lipschitz_estimate_check",
    "gagliardo_seminorm",
    "w1_distance",
]


@dataclass(frozen=True)
class SampledFunction:
    """Point samples on a uniform grid, optionally with weak-derivative samples.

    Samples are interpreted as cell values on cells of width dx centered at
    the abscissae; integrals of |f| are then piecewise linear in the window
    endpoints, which is what makes the maximal function exact on
    piecewise-constant data.
    """

    grid: np.ndarray
    values: np.ndarray
    derivative_values: np.ndarray | None = None

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        if g.ndim != 1 or g.size < 2 or g.shape != v.shape:
            raise ValueError("grid and values must be matching 1-D arrays")
        steps = np.diff(g)
        if np.any(steps <= 0):
            raise ValueError("grid must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("grid must be uniform")
        if self.derivative_values is not None:
            d = np.asarray(self.derivative_values, dtype=float)
            object.__setattr__(self, "derivative_values", d)
            if d.shape != g.shape:
                raise ValueError("derivative samples must match the grid")

    @property
    def dx(self) -> float:
        return float(self.grid[1] - self.grid[0])


# ---------------------------------------------------------------------------
# maximal function
# ---------------------------------------------------------------------------

def _abs_cumulative(f: SampledFunction):
    """Edge abscissae and the cumulative integral of |f| at the edges."""
    dx = f.dx
    edges = np.concatenate([[f.grid[0] - 0.5 * dx], f.grid + 0.5 * dx])
    cum = np.concatenate([[0.0], np.cumsum(np.abs(f.values)) * dx])
    return edges, cum


def _window_integrals(edges, cum, x: float, radii: np.ndarray) -> np.ndarray:
    left = np.interp(x - radii, edges, cum)
    right = np.interp(x + radii, edges, cum)
    return right - left


def maximal_function(f: SampledFunction, R: float, x: float) -> float:
    """sup over 0 < r <= R of the ball average of |f| around x.

    The windowed integral of |f| is piecewise linear in r with knots where a
    window endpoint crosses a cell edge, so the supremum is attained on the
    knot set (plus r = R itself); those radii are evaluated exactly.
    Averages always divide by the full ball length 2r even when the window is
    clipped by the domain, matching the extension of f by zero.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    edges, cum = _abs_cumulative(f)
    if not edges[0] <= x <= edges[-1]:
        raise ValueError("x outside the sampled range")
    dists = np.abs(edges - x)
    r_cap = float(np.max(dists))          # beyond this the average only decays
    # knots closer than float fuzz to 0 carry no information and amplify
    # cancellation in the cumulative; the next knot covers their piece
    r_min = 1e-9 * f.dx
    radii = dists[(dists > r_min) & (dists <= min(R, r_cap))]
    extra = [min(R, r_cap)] if math.isfinite(R) else [r_cap]
    radii = np.unique(np.concatenate([radii, extra]))
    radii = radii[radii > r_min]
    if radii.size == 0:
        radii = np.array([min(R, f.dx * 0.5) if math.isfinite(R) else f.dx * 0.5])
    averages = _window_integrals(edges, cum, x, radii) / (2.0 * radii)
    return float(np.max(averages))


@dataclass(frozen=True)
class LipschitzReport:
    c_d: float
    max_ratio: float
    violations: int
    n_pairs: int


def lipschitz_estimate_check(f: SampledFunction, pairs, R: float,
                             c_d: float = 2.0) -> LipschitzReport:
    """Check |f(x)-f(y)| <= C_d (M_R|f'|(x) + M_R|f'|(y)) |x-y| over given pairs.

    Reports the maximum of |f(x)-f(y)| / ((M(x)+M(y)) |x-y|) and the number
    of pairs violating the C_d bound.  C_d = 2 is the 1-D constant from the
    segment-in-both-windows derivation.  Needs derivative samples; every pair
    must satisfy |x-y| <= R.
    """
    if f.derivative_values is None:
        raise ValueError("derivative samples are required")
    df = SampledFunction(grid=f.grid, values=f.derivative_values)
    max_ratio = 0.0
    violations = 0
    n = 0
    for x, y in pairs:
        if x == y:
            continue
        if abs(x - y) > R:
            raise ValueError(f"pair ({x}, {y}) exceeds the radius R = {R}")
        fx = float(np.interp(x, f.grid, f.values))
        fy = float(np.interp(y, f.grid, f.values))
        lhs = abs(fx - fy)
        m_sum = maximal_function(df, R, x) + maximal_function(df, R, y)
        n += 1
        if lhs == 0.0:
            continue
        ratio = lhs / (m_sum * abs(x - y)) if m_sum > 0 else math.inf
        max_ratio = max(max_ratio, ratio)
        if ratio > c_d:
            violations += 1
    return LipschitzReport(c_d=c_d, max_ratio=max_ratio,
                           violations=violations, n_pairs=n)


# ---------------------------------------------------------------------------
# Gagliardo seminorm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GagliardoResult:
    value: float
    coarse_value: float
    converged: bool
    divergent: bool


def _gagliardo_raw(grid: np.ndarray, values: np.ndarray, s: float, p: float) -> float:
    dx = float(grid[1] - grid[0])
    diff = np.abs(values[:, None] - values[None, :])
    dist = np.abs(grid[:, None] - grid[None, :])
    np.fill_diagonal(dist, 1.0)
    kernel = diff ** p / dist ** (s * p + 1.0)
    np.fill_diagonal(kernel, 0.0)
    off_diag = float(np.sum(kernel)) * dx * dx
    # |x - y| < dx strip: local slope closed form, integrated exactly
    slope = np.gradient(values, dx)
    strip = float(np.sum(np.abs(slope) ** p)) * dx * 2.0 * dx ** (p - s * p) / (p - s * p)
    return (off_diag + strip) ** (1.0 / p)


def gagliardo_seminorm(f: SampledFunction, s: float, p: float) -> GagliardoResult:
    """Double-sum Gagliardo seminorm with a refinement flag.

    The diagonal strip |x-y| < dx is integrated via the local-slope closed
    form (the naive sum misweights the singular kernel there).  The value is
    recomputed on every other sample; agreement within 5 percent marks the
    estimate converged, growth by 2x or more marks a divergent trend (true
    divergence is unobservable at finite resolution).  Needs at least 3
    samples, so that the coarse grid has 2.
    """
    if f.grid.size < 3:
        raise ValueError(f"the seminorm needs at least 3 samples, got {f.grid.size}")
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    value = _gagliardo_raw(f.grid, f.values, s, p)
    coarse = _gagliardo_raw(f.grid[::2], f.values[::2], s, p)
    if value == 0.0 and coarse == 0.0:
        return GagliardoResult(0.0, 0.0, True, False)
    rel = abs(value - coarse) / max(value, coarse)
    divergent = value >= 2.0 * coarse
    return GagliardoResult(value=value, coarse_value=coarse,
                           converged=bool(rel <= 0.05), divergent=bool(divergent))


# ---------------------------------------------------------------------------
# Wasserstein-1
# ---------------------------------------------------------------------------

def _cdf_of(obj):
    """Breakpoints, a right-continuous CDF evaluator, and the total mass."""
    if isinstance(obj, GridField):
        edges = obj.edges
        cum = np.concatenate([[0.0], np.cumsum(obj.values) * obj.cell_width])

        def evaluate(x):
            return np.interp(x, edges, cum)

        return edges, evaluate, float(cum[-1])
    samples = np.sort(np.asarray(obj, dtype=float))
    n = samples.size
    if n == 0:
        raise ValueError("empty sample set")
    # sorted, so -inf comes first and +inf and NaN come last
    if not (math.isfinite(samples[0]) and math.isfinite(samples[-1])):
        raise ValueError("samples must be finite")

    def evaluate(x):
        return np.searchsorted(samples, x, side="right") / n

    return samples, evaluate, 1.0


def w1_distance(mu, nu) -> float:
    """Wasserstein-1 distance via the exact L1 distance of CDFs.

    Both arguments may be a GridField or an array of samples.  The CDF
    difference is piecewise linear between merged breakpoints; each segment
    is integrated exactly (sign changes split analytically), so the triangle
    inequality holds to roundoff for fields on a common grid.  Raises
    ValueError for empty or non-finite samples or masses 1e-6 apart.
    """
    b1, f1, m1 = _cdf_of(mu)
    b2, f2, m2 = _cdf_of(nu)
    if abs(m1 - m2) > 1e-6:
        raise ValueError(f"mass mismatch {abs(m1 - m2):.3e} exceeds 1e-6")
    breaks = np.unique(np.concatenate([b1, b2]))
    if breaks.size < 2:
        return 0.0
    a = breaks[:-1]
    b = breaks[1:]
    w = b - a
    # evaluate just inside each segment so step jumps land on the breakpoints
    inset = np.minimum(1e-9, 0.25 * w)
    x = a + inset
    da = f1(x) - f2(x)
    np.subtract(b, inset, out=x)
    db = f1(x) - f2(x)
    del x, inset
    same_sign = da * db >= 0
    # each segment's integral of |CDF difference|, in place: where the ends
    # share a sign 0.5 * (|da| + |db|) * w, else the two triangles
    # 0.5 * (da^2 + db^2) / max(|da| + |db|, 1e-300) * w
    mag = np.abs(da)
    mag += np.abs(db)
    da *= da
    db *= db
    da += db
    da *= 0.5
    da /= np.maximum(mag, 1e-300, out=db)
    da *= w
    mag *= 0.5
    mag *= w
    np.copyto(da, mag, where=same_sign)
    return float(np.sum(da))
