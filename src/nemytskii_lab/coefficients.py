"""Nonlinear diffusivity, drift and response coefficients.

The diffusivity beta is the odd power law ``beta(r) = |r|^(m-1) r`` of the
porous medium equation, and the drift ``E(x) b(u)`` is of Nemytskii type.
The existence proof's regularizations (the Yosida-type resolvent ``g_eps``
with ``beta_tilde_eps``, the mollified ``b_eps`` and the cut-off ``E_eps``)
stay here with their tests, but no run path calls them.  The closed-form
``G`` and ``Psi`` serve the condition checker and the entropy diagnostics.

Everything here is a pure function of immutable specs; concurrent use from any
number of threads is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonlinearitySpec",
    "DriftSpec",
    "HypothesesReport",
    "sigma_squared",
    "yosida_resolvent",
    "beta_tilde_epsilon",
    "beta_tilde_epsilon_prime",
    "mollified_b",
    "cutoff_E",
    "capital_G",
    "entropy_Psi",
    "check_hypotheses",
    "lambda_zero",
]

_RESOLVENT_TOL = 1e-12
_INF_BITS = np.float64(np.inf).view(np.uint64)


def _scalar_or_array(out):
    """A 0-d result as a float; arrays pass through unchanged."""
    out = np.asarray(out)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class NonlinearitySpec:
    """The porous-medium diffusivity ``beta(r) = |r|^(m-1) r``.

    Parameters
    ----------
    m : float
        Growth exponent, must exceed 1.
    zeta : float
        Exponent in the singular weight of ``G``; requires ``2*zeta/m < 1``.
    """

    m: float
    zeta: float = 0.0

    def __post_init__(self):
        if not self.m > 1.0:
            raise ValueError(f"m must exceed 1, got {self.m}")
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError(f"zeta must lie in [0, 1], got {self.zeta}")
        if 2.0 * self.zeta / self.m >= 1.0:
            raise ValueError(f"need 2*zeta/m < 1, got 2*{self.zeta}/{self.m}")

    @classmethod
    def power_law(cls, m: float, zeta: float = 0.0) -> "NonlinearitySpec":
        return cls(m=float(m), zeta=float(zeta))

    # |r| is bound to a name before the power, so numpy cannot elide it as a
    # temporary (it does so from 32768 elements on) and ** takes the same
    # path, with numpy's shortcuts for exponents 1, 2 and 0.5, at every size.

    def beta(self, r):
        """beta(r); accepts scalars or arrays."""
        r = np.asarray(r, dtype=float)
        mag = np.abs(r)
        return _scalar_or_array(mag ** (self.m - 1.0) * r)

    def beta_prime(self, r):
        r = np.asarray(r, dtype=float)
        mag = np.abs(r)
        return _scalar_or_array(self.m * mag ** (self.m - 1.0))


@dataclass(frozen=True)
class DriftSpec:
    """Vector field E and bounded nonnegative response b, with norm metadata.

    ``sup_norm_E``, ``sup_norm_b`` and ``div_E_minus_sup`` (the sup of the
    negative part of div E) are stored, not recomputed: they enter the step
    restriction and the sup-norm growth bound analytically.
    ``sup_div_minus_plus_E`` is the sup of ``(div E)^- + |E|`` when known in
    closed form; it defaults to the crude bound
    ``div_E_minus_sup + sup_norm_E``.  The chain needs ``(b(r) r)' >= 0``
    for r >= 0 to keep its Jacobian diagonally dominant.
    """

    E: object
    b: object
    sup_norm_E: float
    sup_norm_b: float
    div_E_minus_sup: float
    sup_div_minus_plus_E: float | None = None
    b_is_constant: bool = False
    e_square_integrable: bool = False
    b_monomial_degree: float | None = None
    iota: object | None = None

    def __post_init__(self):
        for name in ("sup_norm_E", "sup_norm_b", "div_E_minus_sup",
                     "sup_div_minus_plus_E"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be nonnegative, got {value!r}")

    @classmethod
    def zero(cls) -> "DriftSpec":
        """The porous-medium case E = 0, b = 0."""
        return cls(E=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                   b=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                   sup_norm_E=0.0, sup_norm_b=0.0, div_E_minus_sup=0.0,
                   sup_div_minus_plus_E=0.0,
                   b_is_constant=True, e_square_integrable=True)

    @classmethod
    def constant_b(cls, E, b0: float, sup_norm_E: float, div_E_minus_sup: float,
                   sup_div_minus_plus_E: float | None = None,
                   e_square_integrable: bool = False,
                   iota=None) -> "DriftSpec":
        b0 = float(b0)
        if not b0 >= 0:
            raise ValueError(f"b must be nonnegative, got {b0!r}")
        return cls(E=E, b=lambda r: np.full_like(np.asarray(r, dtype=float), b0),
                   sup_norm_E=sup_norm_E, sup_norm_b=b0,
                   div_E_minus_sup=div_E_minus_sup,
                   sup_div_minus_plus_E=sup_div_minus_plus_E,
                   b_is_constant=True, e_square_integrable=e_square_integrable,
                   iota=iota)

    def combined_sup(self) -> float:
        """sup of (div E)^- + |E|, exact when stored, else the sum bound."""
        if self.sup_div_minus_plus_E is not None:
            return self.sup_div_minus_plus_E
        return self.div_E_minus_sup + self.sup_norm_E


# ---------------------------------------------------------------------------
# point evaluations
# ---------------------------------------------------------------------------

def sigma_squared(spec: NonlinearitySpec, r) -> float:
    """Squared diffusion coefficient 2*beta(r)/r, with 2*beta'(0) = 0 at r = 0.

    Densities are nonnegative, so r < 0 is a domain error.  For m > 1 the
    value is continuous at 0 (beta'(0) = 0), which is what makes the
    dynamics degenerate in vacuum.  The quotient is formed in place in
    beta's fresh array, where r > 0.  beta is odd with beta(+0.0) = +0.0, so
    an entry left undivided is +0.0 at r = +0.0, carries the sign bit at
    r < 0 and r = -0.0, and is NaN at NaN.  Read as unsigned integers, those
    exceed the bits of +inf, so r is scanned only when the largest result
    does: r < 0 raises, and -0.0 and NaN give +0.0.
    """
    arr = np.asarray(r, dtype=float)
    out = np.asarray(spec.beta(arr))   # a fresh array: doubled and divided in place
    out *= 2.0
    np.divide(out, arr, out=out, where=arr > 0)
    if out.size and out.view(np.uint64).max() > _INF_BITS:
        if np.any(arr < 0):
            raise ValueError("sigma_squared is defined for r >= 0 only")
        out[~(arr > 0)] = 0.0
    return _scalar_or_array(out)


def yosida_resolvent(spec: NonlinearitySpec, epsilon: float, r):
    """Solve g + epsilon*beta(g) = r for the unique g; scalars or arrays.

    Damped Newton from g = r, every iterate clipped to the monotone bracket
    [min(0, r), max(0, r)], until every entry meets its residual tolerance
    max(1e-12, 4 ulp(r)); rounding the residual of a large |r| cannot go
    below a few ulp of r.  Entries still above it after 60 steps fall back
    to a bisection on the same bracket with a Newton polish.  Monotonicity
    of beta guarantees the bracket, so a failing bracket indicates a broken
    spec and raises.  A scalar r gives a float.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    r = np.asarray(r, dtype=float)
    flat = np.atleast_1d(r)
    lo, hi = np.minimum(0.0, flat), np.maximum(0.0, flat)
    g = flat.copy()
    tol = _resolvent_tol(flat)
    for _ in range(60):
        res = g + epsilon * np.asarray(spec.beta(g)) - flat
        if not np.any(np.abs(res) > tol):
            break
        slope = 1.0 + epsilon * np.asarray(spec.beta_prime(g))
        g = np.clip(g - res / slope, lo, hi)
    else:
        bad = np.abs(g + epsilon * np.asarray(spec.beta(g)) - flat) > tol
        if bad.any():
            g[bad] = _bisect_resolvent(spec, epsilon, flat[bad], lo[bad], hi[bad])
    return _scalar_or_array(g.reshape(r.shape))


def _resolvent_tol(r: np.ndarray):
    """Per-entry residual tolerance of the resolvent: max(1e-12, 4 ulp(r)).

    ulp grows with |r|, so when the largest entry's 4 ulp is within 1e-12
    (|r| < 2048) the tolerance is the scalar 1e-12 and the costly
    per-entry np.spacing is skipped.
    """
    if 4.0 * np.spacing(np.abs(r).max(initial=0.0)) <= _RESOLVENT_TOL:
        return _RESOLVENT_TOL
    return np.maximum(_RESOLVENT_TOL, 4.0 * np.spacing(np.abs(r)))


def _bisect_resolvent(spec: NonlinearitySpec, epsilon: float, r: np.ndarray,
                      lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Entrywise bisection of g + epsilon*beta(g) = r on [lo, hi], then a Newton polish."""
    def h(g):
        return g + epsilon * np.asarray(spec.beta(g)) - r

    flo = h(lo)
    if np.any(flo * h(hi) > 0):
        raise AssertionError("resolvent bracket failed; beta is not monotone")
    width_tol = 1e-13 * np.maximum(1.0, np.abs(r))
    live = hi - lo >= width_tol
    for _ in range(80):
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        fm = h(mid)
        above = flo * fm > 0   # the root lies above mid
        lo = np.where(live & (above | (fm == 0.0)), mid, lo)
        hi = np.where(live & ~above, mid, hi)
        flo = np.where(live & above, fm, flo)
        live &= hi - lo >= width_tol
    g = 0.5 * (lo + hi)
    tol = _resolvent_tol(r)
    for _ in range(8):
        res = h(g)
        bad = np.abs(res) > tol
        if not bad.any():
            break
        slope = 1.0 + epsilon * np.asarray(spec.beta_prime(g))
        g = np.where(bad, g - res / slope, g)
    return g


def beta_tilde_epsilon(spec: NonlinearitySpec, epsilon: float, r):
    """beta_tilde_eps(r) = beta_eps(r) + epsilon*r; strictly increasing, slope >= epsilon."""
    g = yosida_resolvent(spec, epsilon, r)
    return _scalar_or_array(
        np.asarray(spec.beta(g)) + epsilon * np.asarray(r, dtype=float))


def beta_tilde_epsilon_prime(spec: NonlinearitySpec, epsilon: float, r):
    """Derivative of beta_tilde_eps: beta'(g)/(1 + eps*beta'(g)) + eps."""
    bp = np.asarray(spec.beta_prime(yosida_resolvent(spec, epsilon, r)))
    return _scalar_or_array(bp / (1.0 + epsilon * bp) + epsilon)


# ---------------------------------------------------------------------------
# drift regularization
# ---------------------------------------------------------------------------

# fixed polynomial bump (1 - (r/w)^2)^2, normalized on [-w, w]
_BUMP_NODES, _BUMP_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _bump_quadrature(width: float):
    y = _BUMP_NODES * width
    w = _BUMP_WEIGHTS * width
    rho = (1.0 - (y / width) ** 2) ** 2
    rho /= np.sum(w * rho)
    return y, w * rho


def mollified_b(drift: DriftSpec, epsilon: float, r):
    """Damped mollification b_eps(r) = (b * rho_eps)(r) / (1 + eps*|r|).

    Constant b is returned untouched.  The mollifier is the compactly
    supported polynomial bump of width eps, so no tail truncation enters.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    arr = np.asarray(r, dtype=float)
    if drift.b_is_constant:
        return _scalar_or_array(np.asarray(drift.b(arr), dtype=float))
    y, w = _bump_quadrature(epsilon)
    vals = np.asarray(drift.b(arr[..., None] - y), dtype=float)
    conv = vals @ w
    return _scalar_or_array(conv / (1.0 + epsilon * np.abs(arr)))


def mollified_b_prime(drift: DriftSpec, epsilon: float, r):
    """d/dr of the damped mollification (central difference; Jacobian use only)."""
    arr = np.asarray(r, dtype=float)
    if drift.b_is_constant:
        return _scalar_or_array(np.zeros_like(arr))
    step = 1e-6 * max(1.0, epsilon)
    return _scalar_or_array(
        (np.asarray(mollified_b(drift, epsilon, arr + step))
         - np.asarray(mollified_b(drift, epsilon, arr - step))) / (2 * step))


def cutoff_E(drift: DriftSpec, epsilon: float, x):
    """eta_eps(x) E(x) with a C0 ramp: 1 on [0, 1/eps], linear to 0 on [1/eps, 1/eps + 1].

    A field flagged square-integrable with div E in L2 + Linf needs no
    truncation and is returned unchanged.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    arr = np.asarray(x, dtype=float)
    ev = np.asarray(drift.E(arr), dtype=float)
    if drift.e_square_integrable:
        return _scalar_or_array(ev)
    radius = 1.0 / epsilon
    ramp = np.clip(radius + 1.0 - np.abs(arr), 0.0, 1.0)
    return _scalar_or_array(ramp * ev)


# ---------------------------------------------------------------------------
# closed-form functionals
# ---------------------------------------------------------------------------

def capital_G(spec: NonlinearitySpec, r):
    """G(r) = integral_0^r (beta^{-1}(s^2))^{-zeta} ds = r^(1-a)/(1-a), a = 2*zeta/m.

    Defined for r >= 0; the integrand s^(-a) has an integrable singularity at
    0 because the spec keeps a < 1.  Accepts scalars or arrays.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise ValueError("G is defined for r >= 0")
    expo = 2.0 * spec.zeta / spec.m
    return _scalar_or_array(arr ** (1.0 - expo) / (1.0 - expo))


def entropy_Psi(spec: NonlinearitySpec, r):
    """Psi(r) = integral_0^r ln(beta(s)) ds = m*r*(ln r - 1), with Psi(0) = 0.

    Accepts scalars or arrays (the entropy audit sums it over a field).
    """
    arr = np.asarray(r, dtype=float)
    if (arr < 0).any():
        raise ValueError("Psi is defined for r >= 0")
    pos = arr > 0
    # (m r)(ln r - 1) where r > 0; +0.0 elsewhere, from zeros_like
    out = np.log(arr, out=np.zeros_like(arr), where=pos)
    np.subtract(out, 1.0, out=out, where=pos)
    np.multiply(out, spec.m * arr, out=out, where=pos)
    return _scalar_or_array(out)


def lambda_zero(drift: DriftSpec) -> float:
    """Largest admissible resolvent step for the drifted problem.

    lambda_0 = (||(div E)^- + |E||| + ||(div E)^- + |E|||^{1/2} * ||b||)^{-1},
    +inf when the denominator vanishes (no step restriction without drift).
    """
    c = drift.combined_sup()
    denom = c + math.sqrt(c) * drift.sup_norm_b
    return math.inf if denom == 0.0 else 1.0 / denom


# ---------------------------------------------------------------------------
# hypotheses checker
# ---------------------------------------------------------------------------

@dataclass
class HypothesesReport:
    """Pass/fail per sampled clause, with numeric witnesses."""

    clauses: dict

    def passed(self, name: str) -> bool:
        return self.clauses[name]["pass"]

    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.clauses.values())


def check_hypotheses(spec: NonlinearitySpec, drift: DriftSpec) -> HypothesesReport:
    """Sample the drift's positivity/growth/compatibility clauses and report witnesses.

    beta's growth envelope a_K r^(m-1) <= beta'(r), beta(r) <= C_K r^m needs
    no clause: the power law meets it with a_K = m and C_K = 1 on every
    [0, K].  Each sampled clause uses 400 points.  The Lipschitz clause for
    b o (G o beta^{1/2})^{-1} is checked on a compact grid only and is
    advisory; no constructive criterion exists for general b.
    """
    clauses = {}
    n_samples = 400

    # b bounded, C1, nonnegative
    r = np.linspace(-10.0, 10.0, n_samples)
    b_vals = np.asarray(drift.b(r), dtype=float)
    clauses["b_nonnegative"] = {"pass": bool(np.all(b_vals >= 0)),
                                "min_b": float(np.min(b_vals))}
    sup_b = float(np.max(np.abs(b_vals)))
    clauses["b_bounded"] = {
        "pass": bool(sup_b <= drift.sup_norm_b * (1 + 1e-9) + 1e-12),
        "sampled_sup": sup_b, "declared_sup": drift.sup_norm_b,
    }

    # monomial criterion near 0: b(r) = r^l needs l >= m/2 - zeta
    if drift.b_monomial_degree is not None:
        threshold = spec.m / 2.0 - spec.zeta
        clauses["b_monomial_degree"] = {
            "pass": bool(drift.b_monomial_degree >= threshold - 1e-12),
            "l": drift.b_monomial_degree, "threshold": threshold,
        }

    # advisory: local Lipschitz quotients of b o (G o beta^{1/2})^{-1}
    rr = np.linspace(0.0, 2.0, n_samples)
    y = capital_G(spec, np.sqrt(spec.beta(rr)))
    bv = np.asarray(drift.b(rr), dtype=float)
    dy = np.diff(y)
    quot = np.abs(np.diff(bv))[dy > 0] / dy[dy > 0]
    max_quot = float(np.max(quot)) if quot.size else 0.0
    clauses["b_compat_lipschitz"] = {"pass": bool(np.isfinite(max_quot)),
                                     "max_quotient": max_quot, "advisory": True}

    # monotonicity surrogate for E when an iota witness is stored
    if drift.iota is not None:
        rng = np.random.default_rng(0)
        R = 5.0
        x = rng.uniform(-R, R, 200)
        ypts = rng.uniform(-R, R, 200)
        Ex = np.asarray(drift.E(x), dtype=float)
        Ey = np.asarray(drift.E(ypts), dtype=float)
        iot = np.asarray(drift.iota(x), dtype=float) + np.asarray(drift.iota(ypts), dtype=float)
        lhs = (Ex - Ey) * (x - ypts)
        rhs = iot * (x - ypts) ** 2
        clauses["E_monotonicity_surrogate"] = {
            "pass": bool(np.all(lhs <= rhs + 1e-12)),
            "max_excess": float(np.max(lhs - rhs)),
        }

    return HypothesesReport(clauses=clauses)
