import numpy as np
import pytest

from tempderiv import (DomainError, FourCoeffs, GammaTimeChange,
                       ModelParams, NoBracketError, SimConfig, charfun_T,
                       martingale_residual, simulate_cat, solve_theta,
                       transformed_timechange, v_cumulants)
from tempderiv.charfun import esscher_interval

from conftest import random_model
from helpers import cumulant_V


def l_prime(theta, tc):
    """l_V'(theta): the first cumulant of the tilted time change."""
    return v_cumulants(transformed_timechange(tc, theta))[0]


class TestCumulantVPrime:
    def test_at_zero(self):
        tc = GammaTimeChange(2.0, 5.0, 0.7)
        assert l_prime(0.0, tc) == pytest.approx(tc.a * tc.mu1 / tc.b, rel=1e-14)

    def test_symmetric_zero(self):
        assert l_prime(0.0, GammaTimeChange(2.0, 5.0, 0.0)) == 0.0

    def test_finite_difference_certification(self):
        """The mu1 + theta numerator against central differences of l_V."""
        rng = np.random.default_rng(21)
        h = 1e-6
        for _ in range(50):
            tc = GammaTimeChange(rng.uniform(0.5, 3), rng.uniform(0.5, 3),
                                 rng.uniform(-0.5, 0.5))
            lo, hi = esscher_interval(tc)
            theta = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
            fd = (cumulant_V(theta + h, tc).real - cumulant_V(theta - h, tc).real) / (2 * h)
            assert l_prime(theta, tc) == pytest.approx(fd, abs=1e-7)

    def test_outside_domain_rejected(self):
        tc = GammaTimeChange(1.0, 0.5, 0.0)
        with pytest.raises(DomainError, match="admissible"):
            transformed_timechange(tc, 2.0)
        with pytest.raises(DomainError, match="admissible"):
            martingale_residual(2.0, ModelParams(alpha=0.25, t0=12.0,
                                                 seasonal=FourCoeffs(12.0, 0.0, 0.0, 0.0),
                                                 vol=FourCoeffs(3.0, 0.0, 0.0, 0.0),
                                                 timechange=tc),
                                0.02, 30.0)


class TestTransformedTimechange:
    def test_tilt_identity(self):
        """V under the tilted measure: drift mu1+theta, rate b*A1(theta)."""
        tc = GammaTimeChange(1.5, 1.0, 0.3)
        theta = -0.4
        tc_q = transformed_timechange(tc, theta)
        assert tc_q.a == tc.a
        u = np.array([0.3 + 0.1j, -0.2 + 0.7j, 1j * 0.9, 0.5])
        lhs = cumulant_V(u, tc, theta)
        rhs = cumulant_V(u, tc_q, 0.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_charfun_consistency_at_solved_tilt(self, toronto_like_model):
        p = toronto_like_model
        theta = solve_theta(p, 0.02, 60.0).theta
        tc_q = transformed_timechange(p.timechange, theta)
        p_q = ModelParams(alpha=p.alpha, t0=p.t0, seasonal=p.seasonal, vol=p.vol,
                          timechange=tc_q)
        for u in np.linspace(-1, 1, 9):
            assert charfun_T(u, 25.0, p, theta) == pytest.approx(
                charfun_T(u, 25.0, p_q, 0.0), abs=1e-10)


class TestMartingaleResidual:
    def test_zero_at_solution(self, toronto_like_model):
        sol = solve_theta(toronto_like_model, 0.02, 90.0)
        assert abs(martingale_residual(sol.theta, toronto_like_model, 0.02, 90.0)) < 1e-10

    def test_continuous_on_admissible_interval(self, toronto_like_model):
        p = toronto_like_model
        lo, hi = esscher_interval(p.timechange)
        width = hi - lo
        grid = np.linspace(lo + 1e-4 * width, hi - 1e-4 * width, 1024)
        vals = np.array([martingale_residual(t, p, 0.03, 60.0) for t in grid])
        assert np.all(np.isfinite(vals))

    def test_large_alpha_t_no_overflow(self, toronto_like_model):
        p = ModelParams(alpha=2.0, t0=toronto_like_model.t0,
                        seasonal=toronto_like_model.seasonal,
                        vol=toronto_like_model.vol,
                        timechange=toronto_like_model.timechange)
        # alpha * T = 730 would overflow e^{alpha T}; the decayed form must not
        val = martingale_residual(0.1, p, 0.02, 365.0)
        assert np.isfinite(val)


class TestSolveTheta:
    def test_residual_contract(self, toronto_like_model):
        sol = solve_theta(toronto_like_model, 0.02, 90.0)
        assert abs(sol.residual) < 1e-10
        lo, hi = esscher_interval(toronto_like_model.timechange)
        assert lo < sol.theta < hi

    def test_rate_sensitivity(self, toronto_like_model):
        base = solve_theta(toronto_like_model, 0.02, 90.0)
        bumped = solve_theta(toronto_like_model, 0.022, 90.0)
        assert abs(bumped.theta - base.theta) > 0.0

    def test_no_bracket_reported(self):
        # nearly deterministic vol with a huge start level: the required
        # tilt exceeds what the admissible interval can deliver
        p = ModelParams(alpha=0.3, t0=3000.0, seasonal=FourCoeffs(0.0, 0, 0, 0),
                        vol=FourCoeffs(1e-6, 0, 0, 0), timechange=GammaTimeChange(1.0, 1.0, 0.0))
        with pytest.raises(NoBracketError):
            solve_theta(p, 0.0, 30.0)

    def test_martingale_by_monte_carlo(self, toronto_like_model):
        p = toronto_like_model
        r = 0.02
        horizon = 60
        sol = solve_theta(p, r, float(horizon))
        cfg = SimConfig(step=1.0, n_paths=40_000, seed=3)
        _, terminal = simulate_cat(p, cfg, horizon, sol.theta)
        disc = np.exp(-r / 365.0 * horizon) * terminal
        se = np.std(disc, ddof=1) / np.sqrt(disc.size)
        assert abs(np.mean(disc) - p.t0) < 3 * se

    def test_random_models_solvable(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            p = random_model(rng)
            sol = solve_theta(p, rng.uniform(0.0, 0.05), 45.0)
            assert abs(sol.residual) < 1e-10


class TestRate:
    def test_rejects_negative_rate(self, toronto_like_model):
        with pytest.raises(DomainError, match="interest rate"):
            solve_theta(toronto_like_model, -0.01, 30.0)
        with pytest.raises(DomainError, match="interest rate"):
            martingale_residual(0.0, toronto_like_model, -0.01, 30.0)
