"""Exact identities of the model as property tests.

Models are drawn from the `conftest.random_model` domain by seed; tilts
from the interior of the admissible interval, or solved from a drawn rate.
"""

from dataclasses import replace
from math import factorial

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import optimize

from tempderiv import (CosGrid, a1, cat_cumulants, charfun_T, charfun_cat,
                       innovation_charfun, k1, martingale_residual,
                       solve_theta, transformed_timechange, truncation_bounds, v_cumulants)
from tempderiv.charfun import UNIT_NODES, esscher_interval, tilted_exponent_sum

from conftest import random_model
from helpers import cumulant_V, leg_value

seeds = st.integers(0, 2**32 - 1)
fractions = st.floats(0.05, 0.95)
freqs = st.floats(1e-6, 3.0)
rates = st.floats(0.0, 0.05)
PROPERTY = settings(deadline=None, max_examples=30)


def draw(seed: int, frac: float):
    p = random_model(np.random.default_rng(seed))
    lo, hi = esscher_interval(p.timechange)
    return p, lo + frac * (hi - lo)


def assert_charfun_identities(phi, u: float) -> None:
    vals = phi(np.array([0.0, u, -u]))
    assert vals[0] == 1.0
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)
    assert abs(vals[2] - np.conj(vals[1])) <= 1e-15


@PROPERTY
@given(seeds, fractions, freqs, st.floats(0.0, 60.0))
def test_charfun_T_identities(seed, frac, u, t):
    p, theta = draw(seed, frac)
    assert_charfun_identities(lambda uu: charfun_T(uu, t, p, theta), u)


@PROPERTY
@given(seeds, fractions, freqs, st.integers(1, 60))
def test_charfun_cat_identities(seed, frac, u, horizon_T):
    p, theta = draw(seed, frac)
    assert_charfun_identities(lambda uu: charfun_cat(uu / horizon_T, p, theta, horizon_T), u)


@PROPERTY
@given(seeds, fractions, freqs, st.floats(0.1, 3.0))
def test_innovation_charfun_identities(seed, frac, u, vol_scale):
    p, theta = draw(seed, frac)
    tc = p.timechange
    assert_charfun_identities(
        lambda uu: innovation_charfun(uu, tc.a, tc.b, tc.mu1, p.alpha, vol_scale, theta), u)


@PROPERTY
@given(seeds, fractions, st.floats(1e-6, 50.0), st.floats(1e-3, 10.0))
def test_real_exponent_equals_cumulant_V(seed, frac, u, k):
    p, theta = draw(seed, frac)
    kern = np.full((1, UNIT_NODES.size), k)
    tc_q = transformed_timechange(p.timechange, theta)
    got = tilted_exponent_sum(kern, np.array([u, -u]), tc_q, pieces=np.ones(1))
    want = cumulant_V(1j * np.array([u, -u]) * k, p.timechange, theta)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@PROPERTY
@given(seeds, fractions, freqs, st.integers(1, 60), st.floats(0.0, 60.0), st.floats(0.1, 3.0))
def test_tilt_is_a_change_of_parameters(seed, frac, u, horizon_T, t, vol_scale):
    """Each charfun at theta is its theta = 0 value on the transformed model, exactly."""
    p, theta = draw(seed, frac)
    tc, tc_q = p.timechange, transformed_timechange(p.timechange, theta)
    p_q = replace(p, timechange=tc_q)
    uu = np.array([0.0, u, -u])
    assert np.all(charfun_cat(uu, p, theta, horizon_T) == charfun_cat(uu, p_q, 0.0, horizon_T))
    assert np.all(charfun_T(uu, t, p, theta) == charfun_T(uu, t, p_q, 0.0))
    assert np.all(innovation_charfun(uu, tc.a, tc.b, tc.mu1, p.alpha, vol_scale, theta)
                  == innovation_charfun(uu, tc_q.a, tc_q.b, tc_q.mu1, p.alpha, vol_scale))


@PROPERTY
@given(seeds, fractions)
def test_v_cumulants_are_derivatives_of_cumulant_V(seed, frac):
    """l_V^(n)(theta) = v_cumulants(transformed_timechange(tc, theta))[n-1], n = 1..4,
    against central differences of l_V with steps of 1% of the distance d to the
    nearer end of the admissible interval; l_V^(n) is of order a (n-1)!/d^n."""
    p, theta = draw(seed, frac)
    tc = p.timechange
    lo, hi = esscher_interval(tc)
    d = min(theta - lo, hi - theta)
    h = 0.01 * d
    lv = np.array([cumulant_V(theta + j * h, tc).real for j in (-2, -1, 0, 1, 2)])
    fd = ((lv[3] - lv[1]) / (2 * h),
          (lv[3] - 2 * lv[2] + lv[1]) / h**2,
          (lv[4] - 2 * lv[3] + 2 * lv[1] - lv[0]) / (2 * h**3),
          (lv[4] - 4 * lv[3] + 6 * lv[2] - 4 * lv[1] + lv[0]) / h**4)
    kappa = v_cumulants(transformed_timechange(tc, theta))
    for n in range(1, 5):
        scale = tc.a * factorial(n - 1) / d**n
        assert abs(kappa[n - 1] - fd[n - 1]) <= 2e-3 * scale


@PROPERTY
@given(seeds, fractions, st.floats(-1e3, 1e3))
def test_log_argument_real_part_at_least_one(seed, frac, y):
    """For w = iy the Log argument 1 - x = A1(w + theta) / A1(theta) has Re >= 1."""
    p, theta = draw(seed, frac)
    tc = p.timechange
    s_rate = tc.b * a1(theta, tc)
    w = 1j * y
    one_minus_x = 1.0 - (w * (tc.mu1 + theta) + 0.5 * w * w) / s_rate
    assert one_minus_x.real >= 1.0
    assert one_minus_x.real == np.float64(1.0) + y * y / (2.0 * s_rate)


@PROPERTY
@given(seeds, rates, st.integers(1, 365))
def test_martingale_condition(seed, r, horizon_T):
    """E_theta*[T_T] = det_mean(T) + l_V'(theta*) k1(T, alpha, vol) = e^{rT/365} T0."""
    p = random_model(np.random.default_rng(seed))
    theta = solve_theta(p, r, float(horizon_T)).theta
    det = p.det_mean(horizon_T)
    l_prime = v_cumulants(transformed_timechange(p.timechange, theta))[0]
    noise = l_prime * k1(horizon_T, p.alpha, p.vol)
    forward = np.exp(r * horizon_T / 365.0) * p.t0
    # relative to the size of the terms, which can exceed T0 itself
    assert abs(det + noise - forward) <= 1e-12 * (abs(det) + abs(noise) + abs(forward))


@PROPERTY
@given(seeds, rates, st.integers(1, 365))
def test_tilt_root_matches_brent(seed, r, horizon_T):
    """The closed-form root against Brent on the whole admissible interval."""
    p = random_model(np.random.default_rng(seed))
    lo, hi = esscher_interval(p.timechange)
    edge = 1e-12 * (hi - lo)
    oracle = optimize.brentq(lambda t: martingale_residual(t, p, r, float(horizon_T)),
                             lo + edge, hi - edge, xtol=1e-15, rtol=4.0 * np.finfo(float).eps)
    assert abs(solve_theta(p, r, float(horizon_T)).theta - oracle) <= 1e-12


@PROPERTY
@given(seeds, rates, st.sampled_from([30, 90, 365]), st.floats(-2.0, 2.0))
def test_put_call_parity(seed, r, horizon_T, z):
    """call(K) - put(K) = disc (E xi - K) on the auto grid with 256 terms.

    What is left is the CAT law's mass beyond 10 sd, largest for a near 0.5
    at T = 30 (2.4e-10 sd at worst in 1500 draws).
    """
    p = random_model(np.random.default_rng(seed))
    theta = solve_theta(p, r, float(horizon_T)).theta
    mean, var = cat_cumulants(p, theta, horizon_T)
    grid = CosGrid(*truncation_bounds(mean, var, 10.0), 256, 256)
    strike = mean + z * np.sqrt(var)
    disc = np.exp(-r * horizon_T / 365.0)
    phi = lambda u: charfun_cat(u, p, theta, horizon_T)
    call = disc * leg_value(phi, grid, strike, call=True, terms=256)
    put = disc * leg_value(phi, grid, strike, call=False, terms=256)
    assert abs(call - put - disc * (mean - strike)) <= 1e-9 * np.sqrt(var)
