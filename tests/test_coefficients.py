import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from nemytskii_lab import coefficients
from nemytskii_lab.coefficients import (
    DriftSpec,
    NonlinearitySpec,
    beta_tilde_epsilon,
    capital_G,
    check_hypotheses,
    cutoff_E,
    entropy_Psi,
    lambda_zero,
    mollified_b,
    mollified_b_prime,
    sigma_squared,
    yosida_resolvent,
)

M2 = NonlinearitySpec.power_law(2.0)
M3 = NonlinearitySpec.power_law(3.0)


# -- diffusivity -------------------------------------------------------------

def test_beta_power_law_values():
    assert M2.beta(0.5) == pytest.approx(0.25, abs=1e-15)
    assert M2.beta(0.0) == 0.0
    assert M3.beta(-1.0) == pytest.approx(-1.0, abs=1e-15)


def test_beta_strictly_increasing_sampled():
    r = np.linspace(-3, 3, 400)
    assert np.all(np.diff(M3.beta(r)) > 0)


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_beta_bits_do_not_depend_on_the_array_size(m):
    # numpy elides temporaries of 32768 elements or more; beta and beta' of
    # a 1e5-element array must equal the same on slices below that size
    spec = NonlinearitySpec.power_law(m)
    r = np.random.default_rng(8).uniform(-3.0, 3.0, 100_000)
    r[:4] = (0.0, -0.0, 5e-324, -1e-300)
    for f in (spec.beta, spec.beta_prime):
        parts = np.concatenate([f(r[i:i + 20_000]) for i in range(0, r.size, 20_000)])
        assert np.array_equal(f(r).view(np.int64), parts.view(np.int64))


def test_spec_parameter_validation():
    with pytest.raises(ValueError):
        NonlinearitySpec.power_law(1.0)
    with pytest.raises(ValueError, match="2\\*zeta/m"):
        NonlinearitySpec.power_law(1.5, zeta=0.8)
    with pytest.raises(ValueError, match="m must exceed 1"):
        NonlinearitySpec.power_law(math.nan)


# -- diffusion coefficient ---------------------------------------------------

def test_sigma_squared_values():
    assert sigma_squared(M2, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert sigma_squared(M2, 0.0) == 0.0
    assert sigma_squared(M3, 2.0) == pytest.approx(8.0, abs=1e-12)


def test_sigma_squared_rejects_negative():
    with pytest.raises(ValueError):
        sigma_squared(M2, -0.1)


def _sigma_squared_gathered(spec, r):
    # the former formula: masked gathers of the positive and the zero entries
    pos = r > 0
    out = np.empty_like(r)
    out[pos] = 2.0 * np.asarray(spec.beta(r[pos])) / r[pos]
    out[~pos] = 2.0 * spec.beta_prime(0.0)
    return out


@pytest.mark.parametrize("spec", [NonlinearitySpec.power_law(1.5), M2, M3],
                         ids=["m=1.5", "m=2", "m=3"])
def test_sigma_squared_bit_identical_to_gathered_formula(spec):
    rng = np.random.default_rng(5)
    r = rng.uniform(0.0, 3.0, 4096)
    r[rng.random(r.size) < 0.4] = 0.0   # vacuum cells
    r[:4] = (0.0, 5e-324, 1e-300, -0.0)
    got = sigma_squared(spec, r)
    assert np.array_equal(got.view(np.int64),
                          _sigma_squared_gathered(spec, r).view(np.int64))
    assert not np.signbit(got[3])   # +0.0 at r = -0.0, as the zero fill gave


def test_sigma_squared_degenerate_envelope():
    # continuity at 0: bounded by 2 C_K r^(m-1) with C_K = 1 for the power law
    r = np.linspace(0, 2, 100)
    assert np.all(sigma_squared(M2, r) <= 2.0 * r ** (M2.m - 1.0) + 1e-14)


# -- resolvent ---------------------------------------------------------------

def test_yosida_closed_cases():
    assert yosida_resolvent(M3, 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert yosida_resolvent(M2, 1.0, 0.0) == 0.0
    # bisection oracle for g + 0.5 g^2 = 1, i.e. g = sqrt(3) - 1
    oracle = optimize.brentq(lambda g: g + 0.5 * g * g - 1.0, 0.0, 1.0, xtol=1e-15)
    assert yosida_resolvent(M2, 0.5, 1.0) == pytest.approx(oracle, abs=1e-11)
    assert oracle == pytest.approx(math.sqrt(3.0) - 1.0, abs=1e-14)


@given(st.floats(-20, 20), st.floats(-20, 20))
@settings(max_examples=60, deadline=None)
def test_yosida_nonexpansive(r1, r2):
    g1 = yosida_resolvent(M3, 0.3, r1)
    g2 = yosida_resolvent(M3, 0.3, r2)
    assert abs(g1 - g2) <= abs(r1 - r2) + 1e-10


@given(st.floats(-5, 5))
@settings(max_examples=60, deadline=None)
def test_yosida_residual_and_bound(r):
    g = yosida_resolvent(M2, 0.7, r)
    assert abs(g + 0.7 * float(M2.beta(g)) - r) <= 1e-12
    assert abs(g) <= abs(r) + 1e-12


def test_yosida_m2_closed_form_array_and_scalar():
    # g + eps*|g|*g = r has the root g = sign(r)*(sqrt(1 + 4 eps |r|) - 1)/(2 eps);
    # r = +-1e6 checks the large-|r| end, where the tolerance is 4 ulp(r)
    eps = 0.5
    r = np.concatenate([np.linspace(-4, 4, 37), [-1e6, 1e6]])
    oracle = np.sign(r) * (np.sqrt(1.0 + 4.0 * eps * np.abs(r)) - 1.0) / (2.0 * eps)
    arr = yosida_resolvent(M2, eps, r)
    assert isinstance(arr, np.ndarray) and arr.shape == r.shape
    assert np.allclose(arr, oracle, rtol=1e-13, atol=1e-12)
    for v, expected, batched in zip(r, oracle, arr):
        g = yosida_resolvent(M2, eps, float(v))
        assert type(g) is float
        assert g == pytest.approx(expected, rel=1e-13, abs=1e-12)
        # converged entries of a batch keep stepping, so agreement is not bitwise
        assert g == pytest.approx(batched, rel=1e-13, abs=1e-12)


def test_yosida_large_r_converges_without_bisection(monkeypatch):
    # 1e-12 is below the ulp of r = 1e6 (1.2e-10); the per-entry tolerance
    # max(1e-12, 4 ulp(r)) is one Newton can meet
    fallbacks = []
    bisect = coefficients._bisect_resolvent

    def counted(spec, epsilon, r, lo, hi):
        fallbacks.append(r.size)
        return bisect(spec, epsilon, r, lo, hi)

    monkeypatch.setattr(coefficients, "_bisect_resolvent", counted)
    r = np.array([-1e6, 1e6])
    g = yosida_resolvent(M2, 0.5, r)
    assert fallbacks == []
    residual = g + 0.5 * np.asarray(M2.beta(g)) - r
    assert np.all(np.abs(residual) <= 4.0 * np.spacing(np.abs(r)))


def test_yosida_bisection_rejects_broken_bracket():
    # a decreasing "beta" breaks the monotone bracket of the fallback
    broken = SimpleNamespace(
        beta=lambda g: -3.0 * np.asarray(g),
        beta_prime=lambda g: np.full_like(np.asarray(g, dtype=float), -3.0))
    with pytest.raises(AssertionError, match="bracket"):
        yosida_resolvent(broken, 1.0, np.array([2.0, 0.5]))


def _beta_eps(spec, eps, r):
    # beta_eps(r) = beta(g_eps(r)) = beta_tilde_eps(r) - eps*r
    return beta_tilde_epsilon(spec, eps, r) - eps * np.asarray(r, dtype=float)


def test_beta_epsilon_cases():
    assert _beta_eps(M3, 1.0, 2.0) == pytest.approx(1.0, abs=1e-11)
    assert beta_tilde_epsilon(M3, 1.0, 2.0) == pytest.approx(3.0, abs=1e-11)
    assert _beta_eps(M2, 0.3, 0.0) == 0.0
    assert beta_tilde_epsilon(M2, 0.3, 0.0) == 0.0
    # resolvent oracle: beta_eps(1) = g^2 with g = sqrt(3) - 1
    assert _beta_eps(M2, 0.5, 1.0) == pytest.approx((math.sqrt(3) - 1) ** 2, abs=1e-10)


def test_beta_epsilon_converges_pointwise():
    r = np.linspace(0, 3, 60)
    errors = [np.max(np.abs(_beta_eps(M2, eps, r) - M2.beta(r)))
              for eps in (1e-1, 1e-2, 1e-3)]
    assert errors[0] > errors[1] > errors[2]


def test_beta_tilde_slope_floor():
    eps = 0.05
    r = np.linspace(-2, 2, 200)
    vals = beta_tilde_epsilon(M2, eps, r)
    slopes = np.diff(vals) / np.diff(r)
    assert np.all(slopes >= eps - 1e-9)


# -- drift regularization ----------------------------------------------------

def test_mollified_b_constant_passthrough():
    drift = DriftSpec.constant_b(E=lambda x: np.zeros_like(x), b0=0.7,
                                 sup_norm_E=0.0, div_E_minus_sup=0.0)
    r = np.linspace(-5, 5, 11)
    assert np.all(mollified_b(drift, 0.2, r) == 0.7)


def test_mollified_b_prime_scalar_contract():
    constant = DriftSpec.constant_b(E=lambda x: np.zeros_like(x), b0=0.7,
                                    sup_norm_E=0.0, div_E_minus_sup=0.0)
    assert type(mollified_b_prime(constant, 0.2, 0.5)) is float
    assert type(mollified_b_prime(_clipped_identity_drift(), 0.01, 0.5)) is float
    # b is the identity near 0.5, so the damped mollification has slope
    # 1/(1 + eps*r)^2 there
    assert mollified_b_prime(_clipped_identity_drift(), 0.01, 0.5) == pytest.approx(
        1.0 / 1.005 ** 2, abs=1e-6)
    r = np.linspace(-1, 1, 5)
    assert mollified_b_prime(constant, 0.2, r).shape == r.shape


def _clipped_identity_drift():
    b = lambda r: np.clip(np.asarray(r, dtype=float), 0.0, 1.0)
    return DriftSpec(E=lambda x: np.zeros_like(x), b=b, sup_norm_E=0.0,
                     sup_norm_b=1.0, div_E_minus_sup=0.0)


def test_mollified_b_small_epsilon_limit():
    drift = _clipped_identity_drift()
    # quadrature oracle of the bump convolution at r = 0.5 (b linear there)
    for eps in (1e-2, 1e-3):
        val = mollified_b(drift, eps, 0.5)
        assert val == pytest.approx(0.5, abs=5 * eps)


def test_mollified_b_nonnegative():
    drift = _clipped_identity_drift()
    r = np.linspace(-3, 3, 101)
    assert np.all(mollified_b(drift, 0.1, r) >= 0)


def test_cutoff_E_ramp():
    drift = DriftSpec.constant_b(E=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                                 b0=1.0, sup_norm_E=1.0, div_E_minus_sup=0.0)
    eps = 0.25          # cutoff radius 4, ramp to zero at 5
    assert cutoff_E(drift, eps, 3.9) == pytest.approx(1.0)
    assert cutoff_E(drift, eps, -3.9) == pytest.approx(1.0)
    assert cutoff_E(drift, eps, 5.0) == 0.0
    assert cutoff_E(drift, eps, 7.0) == 0.0
    assert 0.0 < cutoff_E(drift, eps, 4.5) < 1.0


def test_cutoff_E_zero_field_and_l2_branch():
    assert cutoff_E(DriftSpec.zero(), 0.1, 123.0) == 0.0
    drift = DriftSpec.constant_b(E=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                                 b0=1.0, sup_norm_E=1.0, div_E_minus_sup=0.0,
                                 e_square_integrable=True)
    assert cutoff_E(drift, 0.25, 100.0) == 1.0


# -- scalar functionals ------------------------------------------------------

def test_capital_G_closed_cases():
    spec = NonlinearitySpec.power_law(2.0, zeta=0.5)
    assert capital_G(spec, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert capital_G(spec, 0.0) == 0.0
    assert capital_G(M2, 1.7) == pytest.approx(1.7, abs=1e-15)


def test_capital_G_against_quadrature_oracle():
    spec = NonlinearitySpec.power_law(3.0, zeta=0.7)
    r = 2.0
    oracle, _ = integrate.quad(lambda s: (s * s) ** (-spec.zeta / spec.m),
                               0.0, r, points=[0.0])
    assert capital_G(spec, r) == pytest.approx(oracle, rel=1e-10)


def test_capital_G_increasing_and_inverse_roundtrip():
    spec = NonlinearitySpec.power_law(2.5, zeta=0.6)
    rs = np.linspace(0.1, 4.0, 20)
    vals = capital_G(spec, rs)
    scalars = [capital_G(spec, float(r)) for r in rs]
    assert all(type(v) is float for v in scalars)
    assert np.array_equal(vals.view(np.int64), np.array(scalars).view(np.int64))
    assert np.all(np.diff(vals) > 0)
    # G(r) = r^(1-a)/(1-a) with a = 2*zeta/m has the inverse (y*(1-a))^(1/(1-a))
    a = 2.0 * spec.zeta / spec.m
    for y in (0.3, 1.0, 2.7):
        inverse = (y * (1.0 - a)) ** (1.0 / (1.0 - a))
        assert capital_G(spec, inverse) == pytest.approx(y, abs=1e-10)


def test_entropy_psi_closed_cases():
    assert entropy_Psi(M2, 1.0) == pytest.approx(-2.0, abs=1e-14)
    assert entropy_Psi(M2, 0.0) == 0.0
    assert entropy_Psi(M2, math.e) == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("spec", [NonlinearitySpec.power_law(1.5), M2, M3],
                         ids=["m=1.5", "m=2", "m=3"])
def test_entropy_psi_bit_identical_to_gathered_formula(spec):
    rng = np.random.default_rng(6)
    r = rng.uniform(0.0, 3.0, 4096) * rng.choice([1e-300, 1.0, 1e5], 4096)
    r[rng.random(r.size) < 0.4] = 0.0   # vacuum cells
    r[:4] = (5e-324, math.inf, math.nan, 1.0)
    pos = r > 0
    expected = np.zeros_like(r)
    expected[pos] = spec.m * r[pos] * (np.log(r[pos]) - 1.0)
    assert np.array_equal(entropy_Psi(spec, r).view(np.int64), expected.view(np.int64))
    # Psi(0) is +0.0, as a scalar and in an array
    assert math.copysign(1.0, entropy_Psi(spec, 0.0)) == 1.0
    assert not np.signbit(entropy_Psi(spec, np.zeros(3))).any()


def test_entropy_psi_matches_quadrature():
    rng = np.random.default_rng(2)
    for r in rng.uniform(0.05, 10.0, 8):
        oracle, _ = integrate.quad(lambda s: M2.m * math.log(s), 0.0, r, points=[0.0])
        assert entropy_Psi(M2, r) == pytest.approx(oracle, abs=1e-8)


# -- step restriction and hypotheses -----------------------------------------

def test_lambda_zero_cases():
    assert lambda_zero(DriftSpec.zero()) == math.inf
    d1 = DriftSpec(E=lambda x: x, b=lambda r: np.ones_like(r), sup_norm_E=1.0,
                   sup_norm_b=1.0, div_E_minus_sup=0.0, sup_div_minus_plus_E=1.0)
    assert lambda_zero(d1) == pytest.approx(0.5, abs=1e-15)
    # b = 0: the drift E b vanishes, so E's norms restrict no step
    d2 = DriftSpec(E=lambda x: x, b=lambda r: np.zeros_like(r), sup_norm_E=4.0,
                   sup_norm_b=0.0, div_E_minus_sup=0.0, sup_div_minus_plus_E=4.0)
    assert lambda_zero(d2) == math.inf
    assert lambda_zero(DriftSpec.constant_b(E=np.tanh, b0=0.0, sup_norm_E=1.0,
                                            div_E_minus_sup=1.0)) == math.inf


def _monomial_drift(l: float) -> DriftSpec:
    b = lambda r: np.minimum(np.abs(np.asarray(r, dtype=float)) ** l, 1.0)
    return DriftSpec(E=lambda x: np.zeros_like(x), b=b, sup_norm_E=0.0,
                     sup_norm_b=1.0, div_E_minus_sup=0.0, b_monomial_degree=l)


def test_hypotheses_monomial_criterion():
    ok = check_hypotheses(NonlinearitySpec.power_law(2.0), _monomial_drift(1.0))
    assert ok["b_monomial_degree"]["pass"]
    bad = check_hypotheses(NonlinearitySpec.power_law(4.0), _monomial_drift(1.0))
    assert not bad["b_monomial_degree"]["pass"]


def test_hypotheses_zero_drift_all_pass():
    clauses = check_hypotheses(M2, DriftSpec.zero())
    assert all(clause["pass"] for clause in clauses.values())


def test_hypotheses_iota_surrogate():
    # Lipschitz E with slope 1: iota = 1/2 witnesses the one-sided bound
    drift = DriftSpec.constant_b(E=lambda x: np.sin(np.asarray(x, dtype=float)),
                                 b0=1.0, sup_norm_E=1.0, div_E_minus_sup=1.0,
                                 iota=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5))
    assert check_hypotheses(M2, drift)["E_monotonicity_surrogate"]["pass"]


def test_drift_vanishes_when_E_or_b_is_zero():
    assert DriftSpec.zero().vanishes
    assert DriftSpec.constant_b(E=np.tanh, b0=0.0, sup_norm_E=1.0,
                                div_E_minus_sup=1.0).vanishes
    assert DriftSpec.constant_b(E=np.zeros_like, b0=1.0, sup_norm_E=0.0,
                                div_E_minus_sup=0.0).vanishes
    assert not DriftSpec.constant_b(E=np.tanh, b0=1.0, sup_norm_E=1.0,
                                    div_E_minus_sup=1.0).vanishes


def test_a_vanishing_drift_has_no_growth_constant():
    # E's norms enter only through the drift E b
    kw = dict(E=np.tanh, sup_norm_E=1.0, div_E_minus_sup=1.0, sup_div_minus_plus_E=1.25)
    assert DriftSpec.constant_b(b0=0.0, **kw).growth_constant() == 0.0
    assert DriftSpec.constant_b(b0=1.0, **kw).growth_constant() == 1.25
    assert DriftSpec.zero().growth_constant() == 0.0


# -- guards that NaN fails ------------------------------------------------------

@pytest.mark.parametrize("name", ["sup_norm_E", "sup_norm_b", "div_E_minus_sup",
                                  "sup_div_minus_plus_E"])
def test_drift_spec_rejects_a_nan_norm(name):
    norms = dict(sup_norm_E=1.0, sup_norm_b=1.0, div_E_minus_sup=1.0,
                 sup_div_minus_plus_E=2.0)
    norms[name] = math.nan
    with pytest.raises(ValueError, match=f"{name} must be nonnegative, got nan"):
        DriftSpec(E=np.tanh, b=np.ones_like, **norms)


def test_constant_b_rejects_a_nan_b0():
    with pytest.raises(ValueError, match="b must be nonnegative, got nan"):
        DriftSpec.constant_b(E=np.tanh, b0=math.nan, sup_norm_E=1.0,
                             div_E_minus_sup=1.0)


@pytest.mark.parametrize("fn, owner", [(yosida_resolvent, M2),
                                       (mollified_b, DriftSpec.zero()),
                                       (cutoff_E, DriftSpec.zero())],
                         ids=["yosida_resolvent", "mollified_b", "cutoff_E"])
def test_epsilon_guard_rejects_nan(fn, owner):
    with pytest.raises(ValueError, match="epsilon must be positive, got nan"):
        fn(owner, math.nan, np.array([0.5, 1.0]))


@pytest.mark.parametrize("call, message", [
    (lambda: NonlinearitySpec.power_law(2.0, zeta=-0.1),
     r"zeta must lie in \[0, 1\], got -0.1"),
    (lambda: NonlinearitySpec.power_law(3.0, zeta=1.2),
     r"zeta must lie in \[0, 1\], got 1.2"),
    (lambda: capital_G(M2, -1e-3), r"G is defined for r >= 0"),
    (lambda: capital_G(M2, np.array([1.0, -1.0])), r"G is defined for r >= 0"),
    (lambda: entropy_Psi(M2, -1e-3), r"Psi is defined for r >= 0"),
    (lambda: entropy_Psi(M2, np.array([1.0, -1.0])), r"Psi is defined for r >= 0"),
], ids=["zeta-below-0", "zeta-above-1", "G-scalar", "G-array", "Psi-scalar",
        "Psi-array"])
def test_coefficients_input_guards_raise_with_their_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
