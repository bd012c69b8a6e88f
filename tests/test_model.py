"""Step-model parameterization, classical reductions, and moment matching."""

import math
import random
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from mptree.errors import DomainError
from mptree.model import (MAX_MOMENT_ORDER, ModelParams, StepFactors,
                          crr_params, gbm_moment, jarrow_rudd_params,
                          node_values, p_up, step_factors_asymptotic,
                          step_factors_exact, step_moment, tian_params)

DAILY = 1.0 / 252.0


def mp(gamma=0.05, delta=0.05, g=0.5, v=0.0, sigma=0.2):
    return ModelParams(gamma=gamma, delta=delta, g=g, v=v, sigma=sigma)


# The classical closed-form trees, as references for the reductions.

def crr_factors(r, sigma, dt):
    """Cox-Ross-Rubinstein: u = exp(sigma*sqrt(dt)), d = 1/u."""
    u = math.exp(sigma * math.sqrt(dt))
    d = 1.0 / u
    return StepFactors(u=u, d=d, p=(math.exp(r * dt) - d) / (u - d))


def jarrow_rudd_factors(r, sigma, dt):
    """Jarrow-Rudd: exp((r - sigma^2/2)*dt +/- sigma*sqrt(dt)), p = 1/2."""
    drift = (r - sigma * sigma / 2.0) * dt
    s = sigma * math.sqrt(dt)
    return StepFactors(u=math.exp(drift + s), d=math.exp(drift - s), p=0.5)


def tian_factors(r, sigma, dt):
    """Tian: with V = exp(sigma^2*dt),
    u, d = (1/2)*exp(r*dt)*V*(V + 1 +/- sqrt(V^2 + 2V - 3)) and
    p = (exp(r*dt) - d)/(u - d), which match the first three one-step
    gross-return moments of a GBM with drift r exactly."""
    grow = math.exp(r * dt)
    v_cap = math.exp(sigma * sigma * dt)
    radical = math.sqrt(v_cap * v_cap + 2.0 * v_cap - 3.0)
    u = 0.5 * grow * v_cap * (v_cap + 1.0 + radical)
    d = 0.5 * grow * v_cap * (v_cap + 1.0 - radical)
    return StepFactors(u=u, d=d, p=(grow - d) / (u - d))


# ---------------------------------------------------------------------------
# validation and p_up
# ---------------------------------------------------------------------------

def test_validate_accepts_interior_params():
    assert p_up(mp(), DAILY) == 0.5


def test_validate_rejects_probability_slope_pushing_p_negative():
    with pytest.raises(DomainError, match="time step too coarse"):
        p_up(mp(v=-60.0), DAILY)


def test_validate_rejects_boundary_g():
    with pytest.raises(DomainError, match="base up probability"):
        p_up(mp(g=1.0), DAILY)
    with pytest.raises(DomainError, match="base up probability"):
        p_up(mp(g=0.0), DAILY)


def test_validate_rejects_nonpositive_sigma():
    with pytest.raises(DomainError, match="sigma"):
        p_up(mp(sigma=0.0), DAILY)


def test_validate_rejects_nonfinite_drift():
    with pytest.raises(DomainError, match="finite"):
        p_up(mp(gamma=math.inf), DAILY)


@pytest.mark.parametrize("dt", [0.0, math.nan])
def test_validate_rejects_nonpositive_dt(dt):
    with pytest.raises(DomainError, match="time step must be positive"):
        p_up(mp(), dt)
    with pytest.raises(DomainError, match="time step must be positive"):
        step_moment(mp(), dt, 2)


@pytest.mark.parametrize("gamma, delta, name", [
    (1e300, 0.05, "log u = 1e+299"),
    (0.05, 1e300, "log d = 1e+299"),
], ids=["up", "down"])
def test_exact_factors_reject_an_exponent_too_large_for_exp(gamma, delta, name):
    with pytest.raises(DomainError, match=re.escape(f"{name} is too large for exp")):
        step_factors_exact(mp(gamma=gamma, delta=delta), 0.1)


def test_exact_factors_accept_a_large_finite_exponent():
    factors = step_factors_exact(mp(gamma=700.0, delta=0.0), 1.0)
    assert math.isfinite(factors.u) and factors.u > math.exp(700.0)


@pytest.mark.parametrize("u, d, p, message", [
    (1.0, 1.0, 0.5, "0 < d < u"),
    (0.9, 1.1, 0.5, "0 < d < u"),
    (1.1, 0.0, 0.5, "0 < d < u"),
    (math.inf, 1.0, 0.5, "step factors must be finite, got u=inf"),
    (1.1, 0.9, 1.0, "up probability must be in"),
    (1.1, 0.9, 0.0, "up probability must be in"),
])
def test_step_factors_reject_unordered_factors_or_a_boundary_probability(u, d, p, message):
    with pytest.raises(DomainError, match=message):
        StepFactors(u=u, d=d, p=p)


def test_asymptotic_factors_and_moments_reject_an_up_factor_that_overflows():
    # p = 2e-310, so (1-p)/p overflows and with it h_u and u.
    params = ModelParams(1e-310, 1e-310, 1e-310, 1e-310, 1e-310)
    with pytest.raises(DomainError, match="step factors must be finite"):
        step_factors_asymptotic(params, 1e-310)
    with pytest.raises(DomainError, match="step factors must be finite"):
        step_moment(params, 1e-310, 1)


@pytest.mark.parametrize("ctor", [crr_params, jarrow_rudd_params, tian_params])
@pytest.mark.parametrize("sigma", [0.0, -0.2, math.nan])
def test_classical_params_reject_a_sigma_that_is_not_positive(ctor, sigma):
    with pytest.raises(DomainError, match="volatility sigma must be positive"):
        ctor(0.05, sigma)


def test_p_up_values():
    assert p_up(mp(g=0.5, v=0.0), 0.01) == 0.5
    assert p_up(mp(g=0.5, v=0.1), 0.04) == pytest.approx(0.52, rel=1e-15)
    assert p_up(mp(g=0.529, v=0.0), DAILY) == 0.529


def test_mean_drift_blends_branch_drifts():
    params = mp(gamma=0.10, delta=0.02, g=0.25)
    assert params.mean_drift == pytest.approx(0.25 * 0.10 + 0.75 * 0.02, rel=1e-15)


# ---------------------------------------------------------------------------
# step factors
# ---------------------------------------------------------------------------

def test_exact_factors_at_symmetric_p():
    # At p = 1/2 both radicals collapse to 1, so h_u = h_d = sigma.
    f = step_factors_exact(mp(gamma=0.0, delta=0.0, sigma=0.2), 0.01)
    assert f.u == pytest.approx(math.exp(-0.0002 + 0.02), rel=1e-15)
    assert f.d == pytest.approx(math.exp(-0.0002 - 0.02), rel=1e-15)
    assert f.p == 0.5


def test_exact_factors_mean_gross_return_near_one_plus_b_dt():
    # E[gross return] = 1 + b*dt + O(dt^(3/2)) for gamma = delta = b.
    b, sigma = 0.07, 0.25
    for g in (0.2, 0.5, 0.8):
        for dt in (DAILY, DAILY / 4):
            f = step_factors_exact(mp(gamma=b, delta=b, g=g, sigma=sigma), dt)
            mean = f.p * f.u + (1 - f.p) * f.d
            assert abs(mean - (1 + b * dt)) < 2.0 * sigma ** 3 * dt ** 1.5


def test_asymptotic_factors_direct_arithmetic():
    f = step_factors_asymptotic(mp(gamma=0.05, delta=0.05, sigma=0.2), 0.01)
    assert f.u == pytest.approx(1.0205, rel=1e-15)
    assert f.d == pytest.approx(0.9805, rel=1e-15)


def test_asymptotic_factors_degenerate_step():
    f = step_factors_asymptotic(mp(gamma=0.0, delta=0.0, sigma=1e-9), 1e-8)
    assert f.u == pytest.approx(1.0, abs=1e-12)
    assert f.d == pytest.approx(1.0, abs=1e-12)


def test_asymptotic_factors_reject_nonpositive_down():
    with pytest.raises(DomainError, match="too coarse"):
        step_factors_asymptotic(mp(sigma=2.5), 0.5)


def test_asymptotic_agrees_with_exact_to_three_halves_order():
    # |u_a - u_e| / dt^(3/2) stays bounded as dt halves from 1/252 to 1/4032.
    params = mp(gamma=0.05, delta=0.03, g=0.4, v=0.1, sigma=0.25)
    ratios_u, ratios_d = [], []
    dt = DAILY
    while dt >= 1.0 / 4032.0 - 1e-12:
        exact = step_factors_exact(params, dt)
        asym = step_factors_asymptotic(params, dt)
        ratios_u.append(abs(asym.u - exact.u) / dt ** 1.5)
        ratios_d.append(abs(asym.d - exact.d) / dt ** 1.5)
        dt /= 2.0
    assert max(ratios_u) <= 4.0 * ratios_u[0] + 1e-12
    assert max(ratios_d) <= 4.0 * ratios_d[0] + 1e-12


def test_validated_params_give_ordered_positive_factors():
    rng = random.Random(20240811)
    for _ in range(200):
        params = ModelParams(gamma=rng.uniform(-0.5, 0.5),
                             delta=rng.uniform(-0.5, 0.5),
                             g=rng.uniform(0.05, 0.95),
                             v=rng.uniform(-0.5, 0.5),
                             sigma=rng.uniform(0.05, 0.8))
        dt = rng.choice([DAILY, DAILY / 2, DAILY / 8])
        try:
            p = p_up(params, dt)
        except DomainError:
            continue
        assert 0.0 < p < 1.0
        f = step_factors_exact(params, dt)
        assert f.u > f.d > 0.0


@pytest.mark.parametrize("params", [mp(), mp(gamma=0.08, delta=0.02, g=0.57, v=0.2)])
def test_node_values_match_exact_powers_at_large_n(params):
    n = 65_536
    factors = step_factors_exact(params, 1.0 / n)
    values = node_values(100.0, factors, n)
    with localcontext() as ctx:
        ctx.prec = 50
        u, d = Decimal(factors.u), Decimal(factors.d)
        for i in (0, n // 2, n):
            exact = 100 * u ** i * d ** (n - i)
            assert abs(Decimal(float(values[i])) / exact - 1) <= Decimal("1e-13"), i
    assert np.all(np.diff(values) > 0.0)


# ---------------------------------------------------------------------------
# classical reductions
# ---------------------------------------------------------------------------

def test_crr_params_slope():
    assert crr_params(0.02, 0.2).v == pytest.approx(0.0, abs=1e-16)
    assert crr_params(0.05, 0.2).v == pytest.approx(0.075, rel=1e-14)


def test_crr_probability_matches_classical_to_first_order():
    p_mp = p_up(crr_params(0.05, 0.2), DAILY)
    assert p_mp == pytest.approx(0.50472, abs=1e-5)
    p_classical = crr_factors(0.05, 0.2, DAILY).p
    assert abs(p_mp - p_classical) < 2e-6


def test_jarrow_rudd_probability_is_half_for_all_dt():
    params = jarrow_rudd_params(0.05, 0.2)
    for dt in (1.0, 0.1, DAILY, DAILY / 64):
        assert p_up(params, dt) == 0.5


def test_jarrow_rudd_factors_match_formula_exactly():
    r, sigma = 0.05, 0.2
    for dt in (0.01, DAILY):
        f = step_factors_exact(jarrow_rudd_params(r, sigma), dt)
        ref = jarrow_rudd_factors(r, sigma, dt)
        assert f.u == pytest.approx(ref.u, rel=1e-15)
        assert f.d == pytest.approx(ref.d, rel=1e-15)
    f0 = step_factors_exact(jarrow_rudd_params(0.0, 0.2), 0.01)
    assert f0.u == pytest.approx(math.exp(-0.0002 + 0.02), rel=1e-15)


def test_tian_params_drifts_and_slope():
    params = tian_params(0.05, 0.2)
    assert params.gamma == params.delta == 0.05
    assert params.g == 0.5
    assert params.v == pytest.approx(-0.15, rel=1e-15)


def test_tian_reduction_matches_classical_factors():
    # Asymptotic factors agree with the closed-form Tian tree to
    # O(dt^(3/2)) and the probability to O(dt).
    r, sigma = 0.05, 0.2
    params = tian_params(r, sigma)
    u_ratios, p_ratios = [], []
    dt = DAILY
    for _ in range(6):
        asym = step_factors_asymptotic(params, dt)
        ref = tian_factors(r, sigma, dt)
        u_ratios.append(abs(asym.u - ref.u) / dt ** 1.5)
        p_ratios.append(abs(asym.p - ref.p) / dt)
        dt /= 2.0
    assert max(u_ratios) <= 4.0 * u_ratios[0] + 1e-12
    assert max(p_ratios) <= 4.0 * p_ratios[0] + 1e-12


def test_tian_factors_direct_evaluation():
    r, sigma, dt = 0.05, 0.2, 0.01
    v_cap = math.exp(sigma * sigma * dt)
    rad = math.sqrt(v_cap * v_cap + 2 * v_cap - 3)
    f = tian_factors(r, sigma, dt)
    assert f.u == pytest.approx(0.5 * math.exp(r * dt) * v_cap * (v_cap + 1 + rad),
                                rel=1e-15)
    assert f.d == pytest.approx(0.5 * math.exp(r * dt) * v_cap * (v_cap + 1 - rad),
                                rel=1e-15)
    assert f.p == pytest.approx((math.exp(r * dt) - f.d) / (f.u - f.d), rel=1e-15)


def test_tian_factors_match_first_three_gbm_moments():
    # Tian's defining property: exact match of moments 1..3 for drift r.
    for r, sigma, dt in [(0.05, 0.2, 0.01), (0.01, 0.35, DAILY), (0.1, 0.15, 0.02)]:
        f = tian_factors(r, sigma, dt)
        for j in (1, 2, 3):
            tree = f.p * f.u ** j + (1 - f.p) * f.d ** j
            assert tree == pytest.approx(gbm_moment(r, sigma, dt, j), rel=1e-13)


@pytest.mark.parametrize("name,mp_ctor,classical", [
    ("crr", crr_params, crr_factors),
    ("jr", jarrow_rudd_params, jarrow_rudd_factors),
    ("tian", tian_params, tian_factors),
])
def test_specialization_consistency_sweep(name, mp_ctor, classical):
    # |u_MP - u_classical| / dt^(3/2) and |p_MP - p_classical| / dt bounded
    # as dt halves.
    r, sigma = 0.04, 0.3
    params = mp_ctor(r, sigma)
    u_norm, p_norm = [], []
    dt = DAILY
    for _ in range(6):
        asym = step_factors_asymptotic(params, dt)
        ref = classical(r, sigma, dt)
        u_norm.append(abs(asym.u - ref.u) / dt ** 1.5)
        p_norm.append(abs(asym.p - ref.p) / dt)
        dt /= 2.0
    assert max(u_norm) <= 4.0 * (u_norm[0] + 1e-9)
    assert max(p_norm) <= 4.0 * (p_norm[0] + 1e-9)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_step_moment_first_moment_is_exact():
    # sigma*sqrt(dt) terms cancel by construction: E = 1 + b*dt.
    for g in (0.2, 0.5, 0.8):
        params = mp(gamma=0.05, delta=0.05, g=g)
        assert step_moment(params, 0.01, 1) == pytest.approx(1 + 0.05 * 0.01,
                                                             rel=1e-13)


def test_step_moment_direct_arithmetic():
    value = step_moment(mp(gamma=0.05, delta=0.05, g=0.5, sigma=0.2), 0.01, 2)
    assert value == pytest.approx(0.5 * 1.0205 ** 2 + 0.5 * 0.9805 ** 2, rel=1e-15)
    assert value == pytest.approx(1.00140025, rel=1e-12)


def test_step_moment_second_moment_polynomial():
    # p*u^2 + (1-p)*d^2 = 1 + (2b + sigma^2)*dt + b^2*dt^2 exactly, any g.
    b, sigma = 0.05, 0.2
    for g in (0.1, 0.5, 0.9):
        for dt in (0.01, DAILY):
            m2 = step_moment(mp(gamma=b, delta=b, g=g, sigma=sigma), dt, 2)
            expected = 1 + (2 * b + sigma ** 2) * dt + b ** 2 * dt ** 2
            assert m2 == pytest.approx(expected, rel=1e-14)


def test_gbm_moment_values():
    assert gbm_moment(0.05, 0.2, 0.01, 1) == pytest.approx(math.exp(0.0005),
                                                           rel=1e-15)
    assert gbm_moment(0.05, 0.2, 0.01, 2) == pytest.approx(math.exp(0.0014),
                                                           rel=1e-15)
    assert gbm_moment(0.05, 0.2, 0.01, 2) == pytest.approx(1.00140098, abs=1e-8)


def test_step_moment_rejects_an_overflowing_power():
    # g = 1e-12 makes h_u = sigma*sqrt((1-p)/p) = 1e6, so u = 1e5 at dt = 0.01:
    # u^61 is about 1e305, u^62 beyond the largest float.
    params = mp(g=1e-12, sigma=1.0)
    assert math.isfinite(step_moment(params, 0.01, 61))
    with pytest.raises(DomainError, match=re.escape("u^62 overflows")):
        step_moment(params, 0.01, 62)


def test_gbm_moment_rejects_an_exponent_too_large_for_exp():
    # 64*(0.05 + 63/2) = 2019.2 at dt = 1; at dt = 0.35 it is 706.72.
    assert math.isfinite(gbm_moment(0.05, 1.0, 0.35, 64))
    with pytest.raises(DomainError, match=re.escape("log moment = 2019.2 is too large")):
        gbm_moment(0.05, 1.0, 1.0, 64)


def test_gbm_moment_rejects_a_nan_exponent():
    with pytest.raises(DomainError, match=re.escape("log moment is NaN")):
        gbm_moment(0.05, math.nan, 0.01, 2)


@pytest.mark.parametrize("fn", [step_moment, None])
def test_moment_order_guards(fn):
    params = mp()
    if fn is step_moment:
        with pytest.raises(DomainError):
            step_moment(params, 0.01, 0)
        with pytest.raises(DomainError):
            step_moment(params, 0.01, MAX_MOMENT_ORDER + 1)
    else:
        with pytest.raises(DomainError):
            gbm_moment(0.05, 0.2, 0.01, MAX_MOMENT_ORDER + 1)
        with pytest.raises(DomainError):
            gbm_moment(0.05, 0.2, -0.01, 1)
        with pytest.raises(DomainError, match="time step must be positive"):
            gbm_moment(0.05, 0.2, math.nan, 2)


def test_moment_matching_order_dt_squared_for_low_orders_and_symmetric_g():
    # For j <= 2 (any g) and for g = 1/2 (any j) the mismatch scales as
    # dt^2: the dt^2-normalized error is flat across the sweep.
    b, sigma = 0.05, 0.2
    cases = [(g, j) for g in (0.1, 0.3, 0.5, 0.7, 0.9) for j in (1, 2)]
    cases += [(0.5, j) for j in range(3, 9)]
    for g, j in cases:
        params = mp(gamma=b, delta=b, g=g)
        scaled = []
        dt = DAILY
        for _ in range(6):
            scaled.append(abs(step_moment(params, dt, j)
                              - gbm_moment(b, sigma, dt, j)) / dt ** 2)
            dt /= 2.0
        assert max(scaled) <= 4.0 * min(scaled), (g, j, scaled)


def test_moment_matching_order_three_halves_for_high_orders_asymmetric_g():
    # For j >= 3 and g != 1/2 the residual is O(dt^(3/2)) with coefficient
    # C(j,3) * sigma^3 * |1-2g| / sqrt(g(1-g)); dt^(3/2)-normalized errors
    # stabilize at that constant.
    b, sigma = 0.05, 0.2
    for g in (0.1, 0.9):
        for j in (3, 5, 8):
            params = mp(gamma=b, delta=b, g=g)
            coeff = (math.comb(j, 3) * sigma ** 3 * abs(1 - 2 * g)
                     / math.sqrt(g * (1 - g)))
            dt = DAILY / 32
            scaled = abs(step_moment(params, dt, j)
                         - gbm_moment(b, sigma, dt, j)) / dt ** 1.5
            assert scaled == pytest.approx(coeff, rel=0.05), (g, j)


def test_moment_cancellation_per_halving_factor():
    # dt^2-normalized mismatch moves by far less than a factor of 4 per
    # halving for every g and j in the grid.
    b, sigma = 0.05, 0.2
    for g in (0.1, 0.3, 0.5, 0.7, 0.9):
        params = mp(gamma=b, delta=b, g=g)
        for j in range(1, 9):
            previous = None
            dt = DAILY
            for _ in range(6):
                scaled = abs(step_moment(params, dt, j)
                             - gbm_moment(b, sigma, dt, j)) / dt ** 2
                if previous is not None and previous > 0:
                    ratio = scaled / previous
                    assert 0.25 <= ratio <= 4.0, (g, j, ratio)
                previous = scaled
                dt /= 2.0


def test_variance_matching():
    # p(1-p) * (u_a - d_a)^2 = sigma^2*dt + O(dt^(3/2)).
    sigma = 0.2
    for g in (0.2, 0.5, 0.8):
        params = mp(gamma=0.08, delta=0.01, g=g, sigma=sigma)
        norms = []
        dt = DAILY
        for _ in range(5):
            f = step_factors_asymptotic(params, dt)
            var = f.p * (1 - f.p) * (f.u - f.d) ** 2
            norms.append(abs(var - sigma ** 2 * dt) / dt ** 1.5)
            dt /= 2.0
        assert max(norms) <= 4.0 * (norms[0] + 1e-9)
