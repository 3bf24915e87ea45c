"""Exact self-similar source solution of the 1-D porous medium equation.

Provides the compactly supported profile started from a unit point mass at x0,

    u(t, x) = t^(-alpha) * (C - k |(x - x0) t^(-beta_ss)|^2)_+^q,   q = 1/(m-1),

with alpha = beta_ss = 1/(m+1) and k = (m-1)/(2m(m+1)).  Unit mass fixes C in
closed form: substituting x = R sin(theta), R = sqrt(C/k), the mass is
C^(q+1/2) k^(-1/2) B(1/2, q+1), so C = (sqrt(k) / B(1/2, q+1))^(1/(q+1/2)).
The second moment at t = 1 is R^2 B(3/2, q+1) / B(1/2, q+1) = R^2/(2q+3).
Only barenblatt_mass is a quadrature: it is the check on C that does not use
the Beta function.  Also houses the fractional regularity exponent algebra:
the ceiling s < 2p/m and the time-integrability exponent, whose flip at that
ceiling the acceptance battery's regularity dichotomy (criterion 9) checks.
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

# composite Gauss-Legendre panels of the mass quadrature
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_N_PANELS = 64


@dataclass(frozen=True)
class BarenblattParams:
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


def _profile_integral(C: float, q: float, R: float) -> float:
    """Integral of (C (1 - x^2/R^2))_+^q, a profile of support radius R.

    Substituting x = R sin(theta) flattens the boundary kink to cos powers:
    the integrand becomes (C cos^2)^q * R cos on [-pi/2, pi/2], summed by
    composite Gauss-Legendre on fixed panels.
    """
    edges = np.linspace(-0.5 * math.pi, 0.5 * math.pi, _N_PANELS + 1)
    half = 0.5 * (edges[1] - edges[0])
    th = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * _GL_NODES[None, :]
    cos = np.cos(th)
    return float(np.sum(half * _GL_WEIGHTS[None, :] * (C * cos ** 2) ** q * R * cos))


def make_barenblatt(m: float, x0: float = 0.0) -> BarenblattParams:
    """The exponents and the unit-mass normalizer C, all in closed form.

    m must be finite and exceed 1.
    """
    if not (m > 1.0 and math.isfinite(m)):
        raise ValueError(f"m must exceed 1 and be finite, got {m}")
    q = 1.0 / (m - 1.0)
    alpha = 1.0 / (m + 1.0)
    k = alpha * (m - 1.0) / (2.0 * m)
    log_beta = math.lgamma(0.5) + math.lgamma(q + 1.0) - math.lgamma(q + 1.5)
    C = math.exp((0.5 * math.log(k) - log_beta) / (q + 0.5))
    return BarenblattParams(m=float(m), x0=float(x0), alpha=alpha, k=k,
                            beta_ss=alpha, C_norm=C)


def barenblatt_mass(p: BarenblattParams, t: float) -> float:
    """Quadrature of the profile over its support at time t (should be 1)."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t!r}")
    return t ** (-p.alpha) * _profile_integral(p.C_norm, 1.0 / (p.m - 1.0),
                                               p.support_radius(t))


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
    """Second moment about x0 at time t: R(t)^2 / (2q + 3), q = 1/(m-1).

    R(t)^2 = (C/k) t^(2*beta_ss) is the squared support radius.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t!r}")
    return p.C_norm / p.k * t ** (2.0 * p.beta_ss) / (2.0 / (p.m - 1.0) + 3.0)


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
