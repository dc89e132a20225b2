"""Exact identities of the characteristic functions as property tests.

Models are drawn from the `conftest.random_model` domain by seed; tilts
from the interior of the admissible interval.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from tempderiv import a1, charfun_T, charfun_cat, cumulant_V, innovation_charfun
from tempderiv.charfun import UNIT_NODES, esscher_interval, tilted_exponent_sum

from conftest import random_model

seeds = st.integers(0, 2**32 - 1)
fractions = st.floats(0.05, 0.95)
freqs = st.floats(1e-6, 3.0)
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
@given(seeds, fractions, freqs, st.integers(1, 60), st.sampled_from(["exact_kernel", "product"]))
def test_charfun_cat_identities(seed, frac, u, horizon_T, mode):
    p, theta = draw(seed, frac)
    assert_charfun_identities(lambda uu: charfun_cat(uu / horizon_T, p, theta, horizon_T, mode),
                              u)


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
    got = tilted_exponent_sum(kern, np.array([u, -u]), p.timechange, theta)[0]
    want = cumulant_V(1j * np.array([u, -u]) * k, p.timechange, theta)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


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
