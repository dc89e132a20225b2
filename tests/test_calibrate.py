import types

import numpy as np
import pytest
from scipy import optimize, stats
from scipy.integrate import quad_vec

from tempderiv import (CalibrationError, FourCoeffs, GammaTimeChange,
                       ModelParams, SimConfig, cumulant_V, empirical_charfun, fit_alpha,
                       fit_seasonal,
                       fit_timechange, innovation_charfun, innovations,
                       log_likelihood, simulate_paths, v_cumulants)
from tempderiv import calibrate
from tempderiv.calibrate import _mom_init, kernel_weight, seasonal_design
from tempderiv.seasonal import eval_seasonal

from conftest import random_model


def synthetic_series(beta, n=2000, noise_sd=3.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    clean = seasonal_design(t) @ np.asarray(beta)
    return clean + (rng.standard_normal(n) * noise_sd if noise_sd else 0.0)


RECOVERY_MODEL = ModelParams(
    alpha=0.25, t0=-5.0,
    seasonal=FourCoeffs(8.0, 0.0008, -6.0, -13.0),
    vol=FourCoeffs(1.0, 0.0, 0.0, 0.0),
    timechange=GammaTimeChange(1.5, 1.0, 0.2),
    horizon=10_001.0,
)


class TestFitSeasonal:
    def test_exact_recovery_noiseless(self):
        beta = [7.9733, 0.0008223, -5.8796, -12.866]
        fit = fit_seasonal(synthetic_series(beta, noise_sd=0.0))
        assert np.max(np.abs(fit.params - beta)) < 1e-8

    def test_intercept_equivariance(self):
        y = synthetic_series([5.0, 0.001, -4.0, -9.0], seed=1)
        f0 = fit_seasonal(y)
        f1 = fit_seasonal(y + 2.5)
        assert f1.params[0] - f0.params[0] == pytest.approx(2.5, abs=1e-10)
        assert np.max(np.abs(f1.params[1:] - f0.params[1:])) < 1e-10

    def test_residual_mean_orthogonality(self):
        fit = fit_seasonal(synthetic_series([8, 0.0008, -6, -13], seed=2))
        assert abs(np.mean(fit.residuals)) < 1e-8

    def test_ci_brackets_estimate(self):
        fit = fit_seasonal(synthetic_series([8, 0.0008, -6, -13], seed=3))
        assert np.all(fit.ci_low <= fit.params) and np.all(fit.params <= fit.ci_high)

    def test_iid_noise_coverage(self):
        # quick 30-seed guard; the full 100-seed >= 90% experiment runs in acceptance
        beta = np.array([8.0, 0.0008, -6.0, -13.0])
        hits = np.zeros(4)
        n_seeds = 30
        for seed in range(n_seeds):
            fit = fit_seasonal(synthetic_series(beta, n=2000, noise_sd=3.0, seed=seed))
            hits += (fit.ci_low <= beta) & (beta <= fit.ci_high)
        assert np.all(hits >= 25)  # P(X <= 24 | p = 0.95) < 0.5% per coefficient

    def test_too_short_rejected(self):
        with pytest.raises(CalibrationError):
            fit_seasonal(np.ones(4))

    @pytest.mark.parametrize("n", [5, 6, 14, 2000])
    def test_inference_equals_scipy_stats_t(self, n):
        fit = fit_seasonal(synthetic_series([8, 0.0008, -6, -13], n=n, seed=n))
        dof = n - 4
        tcrit = stats.t.ppf(0.975, dof)
        assert np.array_equal(fit.ci_low, fit.params - tcrit * fit.se)
        assert np.array_equal(fit.ci_high, fit.params + tcrit * fit.se)
        assert np.array_equal(fit.p_values, 2.0 * stats.t.sf(np.abs(fit.tstats), dof))


class TestFitAlpha:
    def test_deterministic_decay_exact(self):
        t = np.arange(400, dtype=float)
        stub = types.SimpleNamespace(residuals=np.exp(-0.5 * t))
        assert fit_alpha(None, stub).alpha == pytest.approx(0.5, abs=1e-9)

    def test_slow_decay_continuous_limit(self):
        t = np.arange(400, dtype=float)
        stub = types.SimpleNamespace(residuals=0.999**t)
        assert fit_alpha(None, stub).alpha == pytest.approx(-np.log(0.999), rel=1e-6)

    def test_no_mean_reversion_rejected(self):
        t = np.arange(300, dtype=float)
        with pytest.raises(CalibrationError, match="mean reversion"):
            fit_alpha(None, types.SimpleNamespace(residuals=1.01**t))

    def test_recovery_on_simulated_model(self):
        times, paths = simulate_paths(RECOVERY_MODEL, SimConfig(step=1.0, n_paths=6, seed=50),
                                      5000.0)
        ok = 0
        for row in paths:
            fit = fit_alpha(None, fit_seasonal(row))
            ok += abs(fit.alpha - 0.25) / 0.25 < 0.2
        assert ok >= 5


class TestCumulantsAndCharfun:
    def test_cumulants_match_finite_differences(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            a, b = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
            mu1 = rng.uniform(-0.6, 0.6)
            tc = GammaTimeChange(a, b, mu1)
            k = v_cumulants(tc)
            h = 1e-2
            grid = np.array([-2 * h, -h, 0.0, h, 2 * h])
            lv = np.array([cumulant_V(complex(g), tc).real for g in grid])
            fd = (
                (lv[3] - lv[1]) / (2 * h),
                (lv[3] - 2 * lv[2] + lv[1]) / h**2,
                (lv[4] - 2 * lv[3] + 2 * lv[1] - lv[0]) / (2 * h**3),
                (lv[4] - 4 * lv[3] + 6 * lv[2] - 4 * lv[1] + lv[0]) / h**4,
            )
            scale = np.maximum(np.abs(np.array(k)), 0.05)
            assert np.max(np.abs((np.array(k) - fd) / scale)) < 2e-3

    def test_innovation_charfun_against_quad_vec(self):
        a, b, mu1, alpha = 1.5, 1.0, 0.2, 0.25
        tc = GammaTimeChange(a, b, mu1)
        u = np.array([0.1, 0.7, 1.5, 2.0])
        vol_scale = np.array([1.0, 0.6, 1.8])

        def f(s):
            kern = vol_scale * np.exp(-alpha * (1.0 - s))
            return cumulant_V(1j * np.multiply.outer(kern, u), tc)

        integral, _ = quad_vec(f, 0.0, 1.0, epsabs=1e-13, epsrel=0.0)
        oracle = np.exp(integral)
        got = innovation_charfun(u, a, b, mu1, alpha, vol_scale=vol_scale)
        assert np.max(np.abs(got - oracle)) < 1e-12
        assert np.max(np.abs(innovation_charfun(u, a, b, mu1, alpha) - oracle[0])) < 1e-12

    def test_kernel_weight_closed_form(self):
        assert kernel_weight(0.3, 2) == pytest.approx((1 - np.exp(-0.6)) / 0.6, rel=1e-14)

    def test_mom_init_ballpark(self):
        rng = np.random.default_rng(61)
        a, b, mu1 = 1.5, 1.0, 0.2
        n = 200_000
        r = rng.gamma(a, 1 / b, n)
        v = mu1 * r + np.sqrt(r) * rng.standard_normal(n)
        # pseudo-innovations with kernel weights folded out at alpha -> 0
        a0, b0, mu0 = _mom_init(v - np.mean(v), 1e-8)
        assert a0 == pytest.approx(a, rel=0.3)
        assert b0 == pytest.approx(b, rel=0.3)
        assert mu0 == pytest.approx(mu1, rel=0.4)

    def test_mom_init_gaussian_series_seeds_inside_the_box(self):
        """Seasonal sine plus N(0, 2) noise: the inversion diverges, so the seed is
        the symmetric member, and the constant fit ends below the 1e6 penalty."""
        rng = np.random.default_rng(99)
        days = np.arange(700)
        fit = fit_seasonal(8 + 6 * np.sin(2 * np.pi * days / 365) + rng.normal(0, 2, 700))
        alpha = fit_alpha(None, fit).alpha
        tf = fit_timechange(fit.residuals, alpha=alpha, vol_shape="constant")
        a0, b0, mu0 = tf.init
        assert mu0 == 0.0 and abs(np.log(a0)) <= 25 and abs(np.log(b0)) <= 25
        eps = innovations(fit.residuals, alpha)
        k2 = np.var(eps) / kernel_weight(alpha, 2)
        assert a0 / b0 == pytest.approx(k2, rel=1e-12)  # the sample variance kept
        assert tf.converged and tf.objective < 1.0


@pytest.fixture(scope="module")
def recovery_runs():
    """Eight independent 10k-day trajectories of the recovery model, pre-fitted."""
    _, paths = simulate_paths(RECOVERY_MODEL, SimConfig(step=1.0, n_paths=8, seed=100),
                              10_000.0)
    runs = []
    for row in paths:
        fit = fit_seasonal(row)
        alpha = fit_alpha(None, fit).alpha
        runs.append((fit.residuals, alpha))
    return runs


class TestFitTimechange:
    def test_recovery(self, recovery_runs):
        ok = 0
        for resid, alpha in recovery_runs[:5]:
            tf = fit_timechange(resid, alpha=alpha, vol_shape="constant")
            rel = (abs(tf.a - 1.5) / 1.5, abs(tf.b - 1.0), abs(tf.mu1 - 0.2) / 0.2)
            ok += all(r < 0.2 for r in rel)
        assert ok >= 4

    def test_objective_not_worse_than_truth(self, recovery_runs):
        resid, alpha = recovery_runs[5]
        tf = fit_timechange(resid, alpha=alpha, vol_shape="constant")
        eps = innovations(resid, alpha)
        emp = empirical_charfun(eps - np.mean(eps), calibrate.CF_GRID)[None, :]
        residuals = calibrate._cf_residuals(emp, alpha)
        truth = float(np.sum(residuals(np.log(1.5), np.log(1.0), 0.2, np.ones(1)) ** 2))
        assert tf.objective <= truth + 1e-8

    def test_mu1_sign_flip(self, recovery_runs):
        resid, alpha = recovery_runs[6]
        tf_pos = fit_timechange(resid, alpha=alpha, vol_shape="constant")
        tf_neg = fit_timechange(-resid, alpha=alpha, vol_shape="constant")
        assert tf_pos.mu1 > 0 and tf_neg.mu1 < 0

    def test_user_init(self, recovery_runs):
        resid, alpha = recovery_runs[7]
        tf = fit_timechange(resid, init=(1.5, 1.0, 0.2), alpha=alpha, vol_shape="constant")
        assert abs(tf.a - 1.5) / 1.5 < 0.25

    def test_too_few_innovations(self):
        with pytest.raises(CalibrationError, match="500"):
            fit_timechange(np.ones(100), alpha=0.2)

    def test_requires_alpha(self):
        with pytest.raises(CalibrationError):
            fit_timechange(np.ones(1000))

    @pytest.mark.parametrize("vol_shape", ["constant", "seasonal"])
    def test_constant_series_rejected(self, vol_shape):
        """Zero innovations leave the moment seed undefined: a typed error, not a division."""
        with pytest.raises(CalibrationError, match="positive variance"):
            fit_timechange(np.zeros(1000), alpha=0.2, vol_shape=vol_shape)

    def test_seasonal_vol_profile_recovered(self):
        p = ModelParams(alpha=0.25, t0=-5.0, seasonal=FourCoeffs(8.0, 0.0008, -6.0, -13.0),
                        vol=FourCoeffs(2.0, 0.0, 0.4, 0.8),
                        timechange=GammaTimeChange(1.5, 1.0, 0.2), horizon=10_001.0)
        _, paths = simulate_paths(p, SimConfig(step=1.0, n_paths=1, seed=555), 10_000.0)
        fit = fit_seasonal(paths[0])
        alpha = fit_alpha(None, fit).alpha
        tf = fit_timechange(fit.residuals, alpha=alpha, vol_shape="seasonal")
        t = np.arange(0.0, 365.0)
        true_sigma = eval_seasonal(p.vol, t)
        got_sigma = eval_seasonal(tf.vol, t)
        corr = np.corrcoef(true_sigma, got_sigma)[0, 1]
        assert corr > 0.95  # shape of the seasonal profile identified


class FakeLeastSquares:
    """Stands in for scipy.optimize.least_squares: each call ends at its start with `status`."""

    def __init__(self, status):
        self.status = status
        self.calls = 0

    def __call__(self, fun, x0, **kwargs):
        self.calls += 1
        f = fun(x0)
        return types.SimpleNamespace(x=np.array(x0), cost=0.5 * float(f @ f), status=self.status)


class TestLeastSquaresStatus:
    resid = np.random.default_rng(80).standard_normal(801)

    def test_not_converged_raises(self, monkeypatch):
        for status in (0, -1):
            monkeypatch.setattr(optimize, "least_squares", FakeLeastSquares(status))
            with pytest.raises(CalibrationError, match="did not converge"):
                fit_timechange(self.resid, alpha=0.25)

    def test_converged_reports_status(self, monkeypatch):
        eps = innovations(self.resid, 0.25)
        emp = empirical_charfun(eps - np.mean(eps), calibrate.CF_GRID)[None, :]
        residuals = calibrate._cf_residuals(emp, 0.25)
        for status in (1, 2, 3, 4):
            fake = FakeLeastSquares(status)
            monkeypatch.setattr(optimize, "least_squares", fake)
            tf = fit_timechange(self.resid, alpha=0.25)
            assert fake.calls == 1 and tf.converged and tf.status == (status,)
            # the reported objective is the CF distance at the solver's end point
            start = np.array([np.log(tf.a), np.log(tf.b), tf.mu1])
            objective = float(np.sum(residuals(*start, np.ones(1)) ** 2))
            assert tf.objective == pytest.approx(objective, rel=1e-12)

    def test_seasonal_reports_both_stages(self, monkeypatch):
        fake = FakeLeastSquares(2)
        monkeypatch.setattr(optimize, "least_squares", fake)
        tf = fit_timechange(self.resid, alpha=0.25, vol_shape="seasonal")
        assert fake.calls == 2 and tf.converged and tf.status == (2, 2)


class TestScaleDegeneracy:
    def test_distance_invariant_under_scale(self):
        """(sigma, a, b, mu1) == (s sigma, a, s^2 b, s mu1): why the seasonal refine pins c0."""
        rng = np.random.default_rng(90)
        t_groups = np.arange(12) * 365.0 / 12.0 + 15.0
        for _ in range(10):
            p = random_model(rng)
            tc = p.timechange
            sig = eval_seasonal(p.vol, t_groups)
            emp = np.exp(1j * rng.normal(0.0, 0.1, (12, calibrate.CF_GRID.size)))
            residuals = calibrate._cf_residuals(emp, p.alpha)
            distance = lambda *args: float(np.sum(residuals(*args) ** 2))
            la, lb = np.log(tc.a), np.log(tc.b)
            base = distance(la, lb, tc.mu1, sig)
            for s in rng.uniform(0.2, 5.0, 3):
                scaled = distance(la, lb + 2.0 * np.log(s), s * tc.mu1, s * sig)
                assert scaled == pytest.approx(base, rel=1e-13)


class TestLogLikelihood:
    def test_order_invariant(self):
        rng = np.random.default_rng(70)
        x = rng.normal(0, 1, 600)
        ll1 = log_likelihood(x, 1.5, 1.0, 0.2, 0.25)
        ll2 = log_likelihood(x[::-1].copy(), 1.5, 1.0, 0.2, 0.25)
        assert ll1 == pytest.approx(ll2, rel=1e-14)

    def test_higher_at_truth_than_perturbed(self):
        _, paths = simulate_paths(RECOVERY_MODEL, SimConfig(step=1.0, n_paths=5, seed=300),
                                  4000.0)
        wins = 0
        for row in paths:
            fit = fit_seasonal(row)
            alpha = fit_alpha(None, fit).alpha
            eps = innovations(fit.residuals, alpha)
            eps = eps - np.mean(eps)
            at_truth = log_likelihood(eps, 1.5, 1.0, 0.2, alpha)
            perturbed = log_likelihood(eps, 2.25, 1.0, 0.2, alpha)  # +50% on a
            wins += at_truth > perturbed
        assert wins >= 4

    def test_gaussian_limit_matches_normal_loglik(self):
        rng = np.random.default_rng(71)
        alpha = 0.25
        var = kernel_weight(alpha, 2)  # unit-vol innovation variance in the limit
        x = rng.normal(0.0, np.sqrt(var), 500)
        ll = log_likelihood(x, 1e6, 1e6, 0.0, alpha)
        normal_ll = float(np.sum(-0.5 * x**2 / var - 0.5 * np.log(2 * np.pi * var)))
        assert abs(ll - normal_ll) / x.size < 1e-4
