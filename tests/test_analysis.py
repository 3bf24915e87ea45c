import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nemytskii_lab.analysis import (
    GagliardoResult,
    SampledFunction,
    gagliardo_seminorm,
    lipschitz_estimate_check,
    maximal_function,
    w1_distance,
)
from nemytskii_lab.closed_form import barenblatt_eval, make_barenblatt
from nemytskii_lab.coefficients import NonlinearitySpec
from nemytskii_lab.fpe_solver import GridField, Trajectory, entropy_audit

P2 = make_barenblatt(2.0)
SPEC2 = NonlinearitySpec.power_law(2.0)

# frozen quadrature oracle for the unit-mass profile at t = 1 (m = 2):
#   integral of 2 u (ln u - 1)             -> -4.600925140887928
ENTROPY_ORACLE = -4.600925140887928


def centered_grid(lo, hi, dx):
    n = int(round((hi - lo) / dx))
    return lo + (np.arange(n) + 0.5) * dx


# -- sampled function ---------------------------------------------------------

def test_sampled_function_validation():
    with pytest.raises(ValueError, match="uniform"):
        SampledFunction(grid=np.array([0.0, 1.0, 3.0]), values=np.zeros(3))
    with pytest.raises(ValueError, match="increasing"):
        SampledFunction(grid=np.array([0.0, 0.0, 1.0]), values=np.zeros(3))


_UNIT = SampledFunction(grid=np.linspace(0.0, 1.0, 11), values=np.ones(11))


@pytest.mark.parametrize("call, message", [
    (lambda: SampledFunction(grid=np.linspace(0.0, 1.0, 5), values=np.ones(4)),
     "grid and values must be matching 1-D arrays"),
    (lambda: SampledFunction(grid=np.linspace(0.0, 1.0, 5), values=np.ones((5, 1))),
     "grid and values must be matching 1-D arrays"),
    (lambda: SampledFunction(grid=np.linspace(0.0, 1.0, 5), values=np.ones(5),
                             derivative_values=np.ones(4)),
     "derivative samples must match the grid"),
    (lambda: maximal_function(_UNIT, 0.0, 0.5), "R must be positive"),
    (lambda: maximal_function(_UNIT, -1.0, 0.5), "R must be positive"),
    (lambda: maximal_function(_UNIT, 0.1, 1.2), "x outside the sampled range"),
    (lambda: maximal_function(_UNIT, 0.1, -0.2), "x outside the sampled range"),
    (lambda: w1_distance(np.array([]), np.array([0.5])), "empty sample set"),
    (lambda: w1_distance(np.array([0.1, np.nan]), np.array([0.5])),
     "samples must be finite"),
    (lambda: w1_distance(np.array([0.5]), np.array([np.inf, 0.1])),
     "samples must be finite"),
    (lambda: w1_distance(np.array([0.2, -np.inf, 0.1]), np.array([0.5])),
     "samples must be finite"),
], ids=["values-length", "values-2d", "derivative-length", "R-zero", "R-negative",
        "x-right", "x-left", "w1-empty", "w1-nan", "w1-inf", "w1-minus-inf"])
def test_analysis_input_guards_raise_with_their_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# -- maximal function ---------------------------------------------------------

def test_maximal_constant():
    grid = centered_grid(-3, 3, 0.01)
    f = SampledFunction(grid=grid, values=np.full_like(grid, 2.5))
    for x in (-1.0, 0.3, 2.2):
        assert maximal_function(f, math.inf, x) == pytest.approx(2.5, abs=1e-6)
        assert maximal_function(f, 0.5, x) == pytest.approx(2.5, abs=1e-6)


def indicator_function(dx=0.01):
    # cell edges at integer multiples of dx, so [0, 1] tiles exactly
    grid = centered_grid(-2.0, 4.0, dx)
    vals = ((grid > 0) & (grid < 1)).astype(float)
    return SampledFunction(grid=grid, values=vals)


def test_maximal_indicator_far_point():
    f = indicator_function()
    # sup_r |[0,1] ∩ [2-r, 2+r]| / (2r) peaks at r = 2
    assert maximal_function(f, math.inf, 2.0) == pytest.approx(0.25, abs=1e-6)


def test_maximal_indicator_interior_point():
    f = indicator_function()
    assert maximal_function(f, math.inf, 0.5) == pytest.approx(1.0, abs=1e-6)


def test_maximal_monotone_in_radius():
    rng = np.random.default_rng(0)
    grid = centered_grid(-2, 2, 0.02)
    f = SampledFunction(grid=grid, values=rng.normal(size=grid.size))
    x = 0.37
    vals = [maximal_function(f, R, x) for R in (0.1, 0.5, 1.0, 4.0, math.inf)]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))


def test_maximal_dominates_point_value():
    rng = np.random.default_rng(1)
    grid = centered_grid(-1, 1, 0.01)
    f = SampledFunction(grid=grid, values=rng.normal(size=grid.size))
    for i in (5, 50, 120, 190):
        assert maximal_function(f, math.inf, float(grid[i])) >= abs(f.values[i]) - 1e-12


def test_maximal_strong_type_sanity():
    # L2-boundedness at suite level: one fitted constant across 50 draws
    rng = np.random.default_rng(5)
    grid = np.linspace(-2, 2, 257)
    dx = grid[1] - grid[0]
    worst = 0.0
    for _ in range(50):
        vals = rng.normal(size=grid.size)
        f = SampledFunction(grid=grid, values=vals)
        xs = grid[::16]
        M = np.array([maximal_function(f, math.inf, float(x)) for x in xs])
        ratio = (np.sum(M**2) * (grid[16] - grid[0])) / (np.sum(vals**2) * dx)
        worst = max(worst, ratio)
    assert math.isfinite(worst)
    assert worst < 10.0     # recorded ~2.4; asserted only as a sane finite cap


# -- Lipschitz-type estimate ----------------------------------------------------

def linear_sample(slope, dx=0.01):
    grid = centered_grid(-2, 2, dx)
    return SampledFunction(grid=grid, values=slope * grid,
                           derivative_values=np.full_like(grid, slope))


def test_lipschitz_linear_ratio_half():
    rep = lipschitz_estimate_check(linear_sample(3.0), [(-1.0, 1.0), (0.2, 0.7)],
                                   math.inf)
    assert rep.max_ratio == pytest.approx(0.5, abs=1e-9)
    assert rep.violations == 0


def test_lipschitz_constant_function():
    rep = lipschitz_estimate_check(linear_sample(0.0), [(-1.0, 0.5)], math.inf)
    assert rep.max_ratio == 0.0
    assert rep.violations == 0


def test_lipschitz_counts_the_pairs_above_the_bound():
    # derivative samples of 0 where f varies: M|f'| = 0, so every pair with
    # f(x) != f(y) has an infinite ratio and violates C_d; the pair on the
    # flat part of f and the pair x = y are not counted as violations
    grid = centered_grid(-2, 2, 0.01)
    f = SampledFunction(grid=grid, values=np.maximum(grid, 0.0),
                        derivative_values=np.zeros_like(grid))
    rep = lipschitz_estimate_check(f, [(0.5, 1.0), (0.2, 1.5), (-1.5, -0.5),
                                       (0.7, 0.7)], math.inf)
    assert rep.max_ratio == math.inf
    assert (rep.violations, rep.n_pairs) == (2, 3)


def test_lipschitz_requires_derivative_and_radius():
    grid = centered_grid(-1, 1, 0.01)
    f = SampledFunction(grid=grid, values=grid)
    with pytest.raises(ValueError, match="derivative"):
        lipschitz_estimate_check(f, [(0.0, 0.5)], math.inf)
    with pytest.raises(ValueError, match="radius"):
        lipschitz_estimate_check(linear_sample(1.0), [(-1.0, 1.0)], 0.5)


def random_piecewise_linear(seed, n=512):
    rng = np.random.default_rng(seed)
    dx = 4.0 / n
    grid = centered_grid(-2, 2, dx)
    slopes = rng.normal(size=n) * rng.integers(0, 2, size=n)
    values = np.concatenate([[0.0], np.cumsum(slopes[:-1] * dx)])
    return SampledFunction(grid=grid, values=values, derivative_values=slopes), rng


def test_lipschitz_random_sweep_never_exceeds_one():
    worst = 0.0
    for seed in range(20):
        f, rng = random_piecewise_linear(seed)
        idx = rng.integers(0, f.grid.size, size=(25, 2))
        pairs = [(float(f.grid[i]), float(f.grid[j])) for i, j in idx if i != j]
        rep = lipschitz_estimate_check(f, pairs, math.inf)
        worst = max(worst, rep.max_ratio)
        assert rep.violations == 0
    assert worst <= 1.0 + 1e-9


# -- Gagliardo seminorm ---------------------------------------------------------

def profile_sample(p, p_exp, n=801, margin=1.2):
    R = p.support_radius_t1
    grid = np.linspace(-margin * R, margin * R, n)
    vals = np.maximum(p.C_norm - p.k * grid**2, 0.0) ** (p_exp / (p.m - 1.0))
    return SampledFunction(grid=grid, values=vals)


def test_gagliardo_zero_function():
    f = SampledFunction(grid=np.linspace(-1, 1, 64), values=np.zeros(64))
    res = gagliardo_seminorm(f, 0.5, 2.0)
    assert res.value == 0.0 and res.converged and not res.divergent


def test_gagliardo_profile_refinement_stable():
    f = profile_sample(P2, 1.0)
    res = gagliardo_seminorm(f, 0.5, 2.0)
    assert isinstance(res, GagliardoResult)
    assert res.value > 0 and res.converged and not res.divergent


def test_gagliardo_monotone_in_s_small_diameter():
    # smooth bump scaled to diameter < 1 keeps |x-y| < 1, making the kernel
    # increase with s pointwise
    grid = np.linspace(-0.45, 0.45, 401)
    f = SampledFunction(grid=grid, values=np.exp(-40 * grid**2))
    vals = [gagliardo_seminorm(f, s, 2.0).value for s in (0.2, 0.4, 0.6, 0.8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_gagliardo_growth_toward_high_order():
    # kinked profile (exponent 3/4) stays finite for s < 1 but grows sharply;
    # recorded oracle ratio ~7.5 between s = 0.99 and s = 0.5 at n = 801
    p3 = make_barenblatt(3.0)
    f = profile_sample(p3, 1.5)
    v_mid = gagliardo_seminorm(f, 0.5, 2.0).value
    v_high = gagliardo_seminorm(f, 0.99, 2.0).value
    assert v_high > 5.0 * v_mid
    assert math.isfinite(v_high)


def test_gagliardo_rejects_bad_orders():
    f = profile_sample(P2, 1.0, n=101)
    with pytest.raises(ValueError):
        gagliardo_seminorm(f, 1.0, 2.0)
    with pytest.raises(ValueError):
        gagliardo_seminorm(f, 0.5, 0.5)


@pytest.mark.parametrize("n", [2, 3])
def test_gagliardo_needs_three_samples(n):
    f = SampledFunction(grid=np.linspace(-1.0, 1.0, n), values=np.linspace(0.0, 1.0, n))
    if n < 3:
        with pytest.raises(ValueError, match="at least 3 samples, got 2"):
            gagliardo_seminorm(f, 0.5, 2.0)
    else:
        assert gagliardo_seminorm(f, 0.5, 2.0).value > 0.0


# -- Wasserstein-1 ---------------------------------------------------------------

def test_w1_identical_fields():
    g = GridField.from_function(-4, 4, 800, lambda x: barenblatt_eval(P2, 1.0, x)).normalized()
    assert w1_distance(g, g) == 0.0
    # both laws on the one point 1.5: a single breakpoint and no segment
    assert w1_distance(np.full(3, 1.5), np.array([1.5])) == 0.0


def test_w1_point_masses():
    assert w1_distance(np.zeros(50), np.ones(50)) == pytest.approx(1.0, abs=1e-12)


def test_w1_translation():
    g1 = GridField.from_function(-4, 4, 1600, lambda x: barenblatt_eval(P2, 1.0, x)).normalized()
    g2 = GridField.from_function(-4, 4, 1600, lambda x: barenblatt_eval(P2, 1.0, x - 0.1)).normalized()
    assert w1_distance(g1, g2) == pytest.approx(0.1, abs=1e-6)


def test_w1_mass_mismatch_rejected():
    g = GridField(-1, 1, np.ones(32))           # mass 2
    h = GridField(-1, 1, 0.5 * np.ones(32))     # mass 1
    with pytest.raises(ValueError, match="mass"):
        w1_distance(g, h)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_w1_triangle_inequality(seed):
    rng = np.random.default_rng(seed)

    def fld():
        return GridField(-2, 2, np.abs(rng.normal(size=64)) + 0.01).normalized()

    a, b, c = fld(), fld(), fld()
    assert w1_distance(a, c) <= w1_distance(a, b) + w1_distance(b, c) + 1e-10


def test_w1_samples_vs_field_consistency():
    rng = np.random.default_rng(3)
    samples = rng.uniform(-1, 1, 200_000)
    flat = GridField(-1, 1, np.full(100, 0.5))
    assert w1_distance(samples, flat) < 5e-3


def _w1_where_formula(mu, nu):
    """The former segment sum: both branches in full, chosen by np.where."""
    from nemytskii_lab.analysis import _cdf_of
    b1, f1, _ = _cdf_of(mu)
    b2, f2, _ = _cdf_of(nu)
    breaks = np.unique(np.concatenate([b1, b2]))
    a, b = breaks[:-1], breaks[1:]
    inset = np.minimum(1e-9, 0.25 * (b - a))
    da = f1(a + inset) - f2(a + inset)
    db = f1(b - inset) - f2(b - inset)
    w = b - a
    seg = np.where(da * db >= 0, 0.5 * (np.abs(da) + np.abs(db)) * w,
                   0.5 * (da * da + db * db) / np.maximum(np.abs(da) + np.abs(db), 1e-300) * w)
    return float(np.sum(seg))


@pytest.mark.parametrize("kind", ["samples-field", "samples-samples", "field-field"])
def test_w1_bit_identical_to_where_formula(kind):
    rng = np.random.default_rng(9)
    field = GridField.from_function(-1.5, 1.5, 2000,
                                    lambda x: barenblatt_eval(P2, 1.0, x)).normalized()
    other = GridField(-2, 2, np.abs(rng.normal(size=64)) + 0.01).normalized()
    samples = rng.normal(0.0, 0.5, 50_000)
    mu, nu = {"samples-field": (samples, field),
              "samples-samples": (samples, rng.normal(0.1, 0.4, 30_000)),
              "field-field": (field, other)}[kind]
    assert np.float64(w1_distance(mu, nu)).view(np.int64) \
        == np.float64(_w1_where_formula(mu, nu)).view(np.int64)


# -- entropy -----------------------------------------------------------------

def entropy_of_field(u: GridField) -> float:
    """The entropy entropy_audit records for a one-step chain whose iterate is u."""
    traj = Trajectory(initial=u, times=np.array([1.0]), values=u.values[None, :],
                      infos=[])
    return entropy_audit(traj, SPEC2)[0].entropy


def test_entropy_of_field_cases():
    zeros = GridField(-1, 1, np.zeros(32))
    assert entropy_of_field(zeros) == 0.0
    ones = GridField(0, 1, np.ones(32))
    assert entropy_of_field(ones) == pytest.approx(-2.0, abs=1e-12)
    g = GridField.from_function(-3, 3, 4000, lambda x: barenblatt_eval(P2, 1.0, x))
    assert entropy_of_field(g) == pytest.approx(ENTROPY_ORACLE, rel=1e-5)
