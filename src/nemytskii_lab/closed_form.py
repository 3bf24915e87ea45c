"""Exact self-similar source solution of the porous medium equation.

Provides the compactly supported profile

    u(t, x) = t^(-alpha) * (C - k |(x - x0) t^(-beta_ss)|^2)_+^(1/(m-1))

with alpha = d/(d(m-1)+2), k = alpha(m-1)/(2md), beta_ss = alpha/d, and the
normalizing constant C fixed by unit mass.  Also houses the fractional
regularity exponent algebra used by the regularity scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BarenblattParams",
    "make_barenblatt",
    "barenblatt_mass",
    "barenblatt_eval",
    "barenblatt_moment2",
    "regularity_threshold",
    "time_integrability_exponent",
]

# composite Gauss-Legendre panels reused by all profile integrals
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_N_PANELS = 64


def _panel_integrate(fn, a: float, b: float) -> float:
    """Composite Gauss-Legendre of fn over [a, b] with fixed panels."""
    edges = np.linspace(a, b, _N_PANELS + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    pts = mid[:, None] + half * _GL_NODES[None, :]
    return float(np.sum(half * _GL_WEIGHTS[None, :] * fn(pts)))


@dataclass(frozen=True)
class BarenblattParams:
    d: int
    m: float
    x0: float
    alpha: float
    k: float
    beta_ss: float
    C_norm: float

    @property
    def support_radius_t1(self) -> float:
        return math.sqrt(self.C_norm / self.k)

    def support_radius(self, t: float) -> float:
        """Free-boundary radius sqrt(C/k) * t^beta_ss."""
        return self.support_radius_t1 * t ** self.beta_ss


def _profile_integral(C: float, q: float, R: float, weight=lambda th: 1.0) -> float:
    """Integral of weight * (C - k x^2)_+^q over its support |x| <= R = sqrt(C/k).

    Substituting x = R sin(theta) flattens the boundary kink to cos powers:
    the integrand becomes weight(theta) * (C cos^2)^q * R cos on [-pi/2, pi/2].
    """
    return _panel_integrate(
        lambda th: weight(th) * (C * np.cos(th) ** 2) ** q * R * np.cos(th),
        -0.5 * math.pi, 0.5 * math.pi)


def _profile_mass(C: float, m: float, k: float) -> float:
    return _profile_integral(C, 1.0 / (m - 1.0), math.sqrt(C / k))


def make_barenblatt(d: int, m: float, x0: float = 0.0) -> BarenblattParams:
    """Compute the exponents from their formulas and C by quadrature bisection.

    Only d = 1 is supported in the default build (d = 2 is excluded by design;
    radial d >= 3 is not wired up).  m must exceed 1.
    """
    if not m > 1.0:
        raise ValueError(f"m must exceed 1, got {m}")
    if d != 1:
        raise ValueError("only d = 1 is supported")
    alpha = d / (d * (m - 1.0) + 2.0)
    k = alpha * (m - 1.0) / (2.0 * m * d)
    beta_ss = alpha / d

    lo, hi = 1e-12, 1.0
    while _profile_mass(hi, m, k) < 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _profile_mass(mid, m, k) < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * hi:
            break
    C = 0.5 * (lo + hi)
    return BarenblattParams(d=d, m=float(m), x0=float(x0), alpha=alpha, k=k,
                            beta_ss=beta_ss, C_norm=C)


def barenblatt_mass(p: BarenblattParams, t: float) -> float:
    """Quadrature of the profile over its support at time t (should be 1)."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t!r}")
    return _profile_integral(p.C_norm, 1.0 / (p.m - 1.0), p.support_radius(t),
                             lambda th: t ** (-p.alpha))


def barenblatt_eval(p: BarenblattParams, t: float, x):
    """Profile value at time t > 0; zero outside the support ball.

    t <= 0 is a domain error: the initial datum is a point mass, not a
    function.
    """
    if not t > 0:
        raise ValueError(f"profile is a function only for t > 0, got {t!r}")
    x = np.asarray(x, dtype=float)
    y = (x - p.x0) * t ** (-p.beta_ss)
    core = np.maximum(p.C_norm - p.k * y * y, 0.0)
    out = t ** (-p.alpha) * core ** (1.0 / (p.m - 1.0))
    return out if out.ndim else float(out)


def barenblatt_moment2(p: BarenblattParams, t: float) -> float:
    """Second moment about x0 at time t, integral over the support.

    Scales exactly as t^(2*beta_ss) by self-similarity.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t!r}")
    R = p.support_radius_t1
    m2_t1 = _profile_integral(p.C_norm, 1.0 / (p.m - 1.0), R,
                              lambda th: (R * np.sin(th)) ** 2)
    return m2_t1 * t ** (2.0 * p.beta_ss)


def regularity_threshold(m: float, p: float) -> tuple[float, bool]:
    """Fractional-order ceiling s_max = 2p/m and the sufficiency condition m(2p-m+1) > p.

    The ceiling is necessary for u^p to carry s space-derivatives at the
    stated time integrability; the boolean is the hypothesis under which the
    regularity below the ceiling is actually attained.
    """
    if not m > 1.0:
        raise ValueError(f"m must exceed 1, got {m}")
    if not 0.0 < p <= m:
        raise ValueError(f"p must lie in (0, m], got {p}")
    s_max = 2.0 * p / m
    density_condition = m * (2.0 * p - m + 1.0) > p
    return s_max, density_condition


def time_integrability_exponent(p: BarenblattParams, pw: float, s: float) -> tuple[float, bool]:
    """Exponent e of the t^e factor in the L^(m/p) space-time seminorm.

    e = -alpha(m-1) - beta_ss * s * m / pw; the time integral over (0, T) is
    finite iff e > -1, which happens exactly when s < 2*pw/m.
    """
    if not 0.0 < pw <= p.m:
        raise ValueError(f"pw must lie in (0, m], got {pw}")
    if s < 0:
        raise ValueError("s must be nonnegative")
    e = -p.alpha * (p.m - 1.0) - p.beta_ss * s * p.m / pw
    return e, e > -1.0
