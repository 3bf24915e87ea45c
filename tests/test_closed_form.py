import math

import numpy as np
import pytest
from scipy import integrate, special

from nemytskii_lab.closed_form import (
    barenblatt_eval,
    barenblatt_mass,
    barenblatt_moment2,
    make_barenblatt,
    regularity_threshold,
    time_integrability_exponent,
)

P2 = make_barenblatt(2.0)
P3 = make_barenblatt(3.0)


def _mass_oracle(p, t):
    R = p.support_radius(t)
    val, _ = integrate.quad(lambda x: barenblatt_eval(p, t, x), -R, R,
                            points=[-R, R], limit=200, epsabs=1e-13)
    return val


def _normalizer_oracle(m):
    # independent closed form: unit mass forces
    # C^(q + 1/2) * k^(-1/2) * sqrt(pi) Gamma(q+1)/Gamma(q+3/2) = 1
    alpha = 1.0 / (m + 1.0)
    k = alpha * (m - 1.0) / (2.0 * m)
    q = 1.0 / (m - 1.0)
    I = math.sqrt(math.pi) * special.gamma(q + 1.0) / special.gamma(q + 1.5)
    return (math.sqrt(k) / I) ** (1.0 / (q + 0.5))


def test_exponent_formulas_m2():
    assert abs(P2.alpha - 1.0 / 3.0) < 1e-15
    assert abs(P2.k - 1.0 / 12.0) < 1e-15
    assert abs(P2.beta_ss - 1.0 / 3.0) < 1e-15


def test_normalizer_m2_closed_form():
    assert P2.C_norm == pytest.approx(3.0 ** (1.0 / 3.0) / 4.0, abs=1e-9)
    # closed-form cross-check: (4/3) C^(3/2) k^(-1/2) = 1
    assert (4.0 / 3.0) * P2.C_norm ** 1.5 / math.sqrt(P2.k) == pytest.approx(1.0, abs=1e-9)


# from a nearly linear diffusion (q = 100) to a nearly flat profile (q = 1/19)
ORACLE_MS = (1.01, 1.5, 2.0, 3.0, 5.0, 8.0, 20.0)


def test_normalizer_matches_gamma_oracle():
    for m in ORACLE_MS:
        assert make_barenblatt(m).C_norm == pytest.approx(_normalizer_oracle(m), rel=1e-13)


def test_mass_is_one_at_all_times():
    for p in (P2, P3):
        for t in (0.1, 1.0, 10.0):
            assert abs(barenblatt_mass(p, t) - 1.0) <= 1e-9
            assert _mass_oracle(p, t) == pytest.approx(1.0, abs=1e-7)


def test_eval_center_support_and_outside():
    assert barenblatt_eval(P2, 1.0, 0.0) == pytest.approx(P2.C_norm, abs=1e-12)
    R = P2.support_radius_t1
    assert R == pytest.approx(3.0 ** (2.0 / 3.0), abs=1e-9)
    assert barenblatt_eval(P2, 1.0, R + 1e-9) == 0.0
    assert barenblatt_eval(P2, 1.0, 100.0) == 0.0


def test_eval_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        barenblatt_eval(P2, 0.0, 0.0)
    with pytest.raises(ValueError):
        barenblatt_mass(P2, -1.0)


def test_make_barenblatt_rejections():
    with pytest.raises(ValueError):
        make_barenblatt(1.0)
    for m in (math.nan, math.inf):
        with pytest.raises(ValueError, match="m must exceed 1 and be finite"):
            make_barenblatt(m)


def test_moment2_closed_form_and_oracle():
    target = 3.0 ** (4.0 / 3.0) / 5.0
    assert barenblatt_moment2(P2, 1.0) == pytest.approx(target, abs=1e-10)
    R = P2.support_radius_t1
    oracle, _ = integrate.quad(lambda x: x * x * (P2.C_norm - P2.k * x * x), -R, R,
                               epsabs=1e-13)
    assert barenblatt_moment2(P2, 1.0) == pytest.approx(oracle, abs=1e-10)


def test_moment2_matches_the_quad_oracle():
    for m in ORACLE_MS:
        p = make_barenblatt(m)
        R, q = p.support_radius_t1, 1.0 / (m - 1.0)
        oracle, _ = integrate.quad(lambda x: x * x * max(p.C_norm - p.k * x * x, 0.0) ** q,
                                   -R, R, epsabs=0.0, epsrel=2e-14, limit=200)
        assert barenblatt_moment2(p, 1.0) == pytest.approx(oracle, rel=1e-13)


def test_moment2_self_similar_scaling():
    base = barenblatt_moment2(P2, 1.0)
    for t in (0.1, 0.5, 4.0):
        assert barenblatt_moment2(P2, t) == pytest.approx(base * t ** (2.0 / 3.0),
                                                          rel=1e-12)
    assert barenblatt_moment2(P2, 1e-9) < 1e-5


def test_self_similarity_pointwise():
    xs = np.linspace(-3, 3, 301)
    for t in (0.3, 2.0):
        lhs = barenblatt_eval(P2, t, xs)
        rhs = t ** (-P2.alpha) * barenblatt_eval(P2, 1.0, (xs - P2.x0) * t ** (-P2.beta_ss) + P2.x0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_center_offset():
    p = make_barenblatt(2.0, x0=1.5)
    assert barenblatt_eval(p, 1.0, 1.5) == pytest.approx(p.C_norm, abs=1e-12)
    assert barenblatt_eval(p, 1.0, 0.0) == barenblatt_eval(P2, 1.0, -1.5)


def _pde_residual(p, dx, dt):
    # centered discrete residual of d_t u - Lap(u^m) away from the free boundary
    t = 1.0
    xs = np.arange(-0.7 * p.support_radius_t1, 0.7 * p.support_radius_t1, dx)
    u = lambda tt, x: barenblatt_eval(p, tt, x)
    du_dt = (u(t + dt, xs) - u(t - dt, xs)) / (2 * dt)
    um = lambda x: np.asarray(u(t, x)) ** p.m
    lap = (um(xs + dx) - 2 * um(xs) + um(xs - dx)) / dx**2
    return float(np.max(np.abs(du_dt - lap)))


def test_pde_residual_refines():
    r1 = _pde_residual(P2, 2e-3, 2e-3)
    r2 = _pde_residual(P2, 1e-3, 1e-3)
    assert r2 < r1
    assert math.log2(r1 / r2) >= 1.0


def test_regularity_threshold_cases():
    s_max, cond = regularity_threshold(2.0, 1.0)
    assert s_max == pytest.approx(1.0) and cond
    s_max, _ = regularity_threshold(2.0, 2.0)
    assert s_max == pytest.approx(2.0)
    _, cond3 = regularity_threshold(3.0, 1.0)
    assert not cond3
    with pytest.raises(ValueError):
        regularity_threshold(2.0, 2.5)
    with pytest.raises(ValueError):
        regularity_threshold(2.0, 0.0)


def test_time_exponent_cases():
    e, integrable = time_integrability_exponent(P2, 1.0, 1.0)
    assert e == pytest.approx(-1.0, abs=1e-12)
    assert not integrable
    e, integrable = time_integrability_exponent(P2, 1.0, 0.5)
    assert e == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert integrable
    e, integrable = time_integrability_exponent(P2, 1.0, 0.0)
    assert e > -1.0 and integrable


def test_threshold_consistent_with_time_exponent():
    # e > -1 exactly when s < 2 pw / m, swept over a parameter grid
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = rng.uniform(1.1, 5.0)
        pw = rng.uniform(0.1, m)
        s = rng.uniform(0.0, 2.5)
        p = make_barenblatt(m)
        s_max, _ = regularity_threshold(m, pw)
        e, integrable = time_integrability_exponent(p, pw, s)
        if abs(s - s_max) > 1e-9:
            assert integrable == (s < s_max)
        identity = p.alpha * (m / pw) * (s_max - s)
        assert abs((e + 1.0) - identity) <= 1e-12


@pytest.mark.parametrize("fn", [lambda t: barenblatt_eval(P2, t, 0.0),
                                lambda t: barenblatt_mass(P2, t),
                                lambda t: barenblatt_moment2(P2, t)],
                         ids=["eval", "mass", "moment2"])
def test_time_guard_rejects_nan(fn):
    with pytest.raises(ValueError, match="got nan"):
        fn(math.nan)


@pytest.mark.parametrize("call, message", [
    (lambda: regularity_threshold(1.0, 0.5), "m must exceed 1, got 1.0"),
    (lambda: regularity_threshold(2.0, 0.0), r"p must lie in \(0, m\], got 0.0"),
    (lambda: regularity_threshold(2.0, 2.5), r"p must lie in \(0, m\], got 2.5"),
    (lambda: time_integrability_exponent(P2, 0.0, 0.5),
     r"pw must lie in \(0, m\], got 0.0"),
    (lambda: time_integrability_exponent(P2, 2.5, 0.5),
     r"pw must lie in \(0, m\], got 2.5"),
    (lambda: time_integrability_exponent(P2, 1.0, -0.1), "s must be nonnegative"),
], ids=["threshold-m", "threshold-p-zero", "threshold-p-above-m", "exponent-pw-zero",
        "exponent-pw-above-m", "exponent-negative-s"])
def test_closed_form_input_guards_raise_with_their_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
