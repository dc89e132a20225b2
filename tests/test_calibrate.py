import math
import types
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, stats
from scipy.integrate import quad_vec

from tempderiv import (CalibrationError, FourCoeffs, GammaTimeChange,
                       ModelParams, SimConfig, fit_alpha, fit_seasonal,
                       fit_timechange, ingest_csv, innovation_charfun, innovations,
                       simulate_paths, v_cumulants)
from tempderiv import calibrate
from tempderiv.calibrate import TimeChangeFit, _mom_init, kernel_weight, seasonal_design
from tempderiv.seasonal import ANNUAL_OMEGA, eval_seasonal

from conftest import random_model
from helpers import cumulant_V, empirical_charfun, log_likelihood

DATA = Path(__file__).parent / "data"


def synthetic_series(beta, n=2000, noise_sd=3.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    clean = seasonal_design(t) @ np.asarray(beta)
    return clean + (rng.standard_normal(n) * noise_sd if noise_sd else 0.0)


def constant_functions(emp, alpha):
    """The constant fit's (residuals, jacobian) in x = (log a, log b, mu1), sigma = 1."""
    one = np.ones(1)
    return calibrate._cf_functions(emp, alpha, lambda x: one, np.empty((2 * emp.size, 0)))


def group_functions(emp_groups, alpha):
    """(residuals, jacobian) in x = (log a, log b, mu1, sig_1, ..., sig_G): each
    group's vol scale is a free coefficient, on its own rows."""
    rows = np.repeat(np.eye(emp_groups.shape[0]), calibrate.CF_GRID.size, axis=0)
    return calibrate._cf_functions(emp_groups, alpha, lambda x: x[3:], np.tile(rows, (2, 1)))


def seasonal_functions(emp_groups, alpha, c0, t_groups):
    """The seasonal fit's (residuals, jacobian) in x = (log a, log b, mu1, c1, c2, c3),
    c0 pinned, with d sig_g / d(c1, c2, c3) written row by row."""
    n_u = calibrate.CF_GRID.size
    group = np.arange(2 * emp_groups.size) // n_u % emp_groups.shape[0]
    t = t_groups[group]
    dsig_dc = np.column_stack([t, np.sin(ANNUAL_OMEGA * t), np.cos(ANNUAL_OMEGA * t)])
    sig_of = lambda x: eval_seasonal(FourCoeffs(c0, *x[3:]), t_groups)
    return calibrate._cf_functions(emp_groups, alpha, sig_of, dsig_dc)


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

    def test_design_has_full_rank_for_every_length_fitted(self):
        """[1, t, sin wt, cos wt] on t = 0..n-1 depends on n alone, and fit_seasonal
        rejects n <= 4: from n = 5 up the design has rank 4, its smallest singular value
        far above lstsq's cutoff, so the fit needs no rank check."""
        for n in (5, 6, 7, 8, 13, 364, 365, 366, 730, 2999, 10_000, 100_000):
            x = seasonal_design(np.arange(n))
            assert np.linalg.matrix_rank(x) == 4
            s = np.linalg.svd(x, compute_uv=False)
            assert s[-1] > 100.0 * np.finfo(float).eps * n * s[0]

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
        assert fit_alpha(stub).alpha == pytest.approx(0.5, abs=1e-9)

    def test_slow_decay_continuous_limit(self):
        t = np.arange(400, dtype=float)
        stub = types.SimpleNamespace(residuals=0.999**t)
        assert fit_alpha(stub).alpha == pytest.approx(-np.log(0.999), rel=1e-6)

    def test_no_mean_reversion_rejected(self):
        t = np.arange(300, dtype=float)
        with pytest.raises(CalibrationError, match="mean reversion"):
            fit_alpha(types.SimpleNamespace(residuals=1.01**t))

    def test_recovery_on_simulated_model(self):
        times, paths = simulate_paths(RECOVERY_MODEL, SimConfig(step=1.0, n_paths=6, seed=50),
                                      5000.0)
        ok = 0
        for row in paths:
            fit = fit_alpha(fit_seasonal(row))
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

    def test_kernel_weight_small_alpha_against_series(self):
        # (1 - e^{-x})/x = sum_n (-x)^n/(n+1)!; six terms are exact in double for x <= 4e-4
        for alpha in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            for order in (1, 2, 3, 4):
                x = order * alpha
                series = sum((-x) ** n / math.factorial(n + 1) for n in range(6))
                assert kernel_weight(alpha, order) == pytest.approx(series, rel=1e-14)

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

    @pytest.mark.parametrize("a, b, mu1, alpha", [(1.5, 1.0, 0.2, 0.25), (0.7, 2.0, -0.5, 0.05),
                                                  (4.0, 0.3, 0.1, 1e-8), (1.0, 1.0, 0.8, 0.6)])
    def test_mom_init_reproduces_sample_cumulants(self, a, b, mu1, alpha):
        """For a skewed sample with R = k3^2 / (k2 k4) < 2/3 the seed is exact: its
        V cumulants are the sample's (k2, k3, k4), kernel weights folded out."""
        rng = np.random.default_rng(7)
        r = rng.gamma(a, 1 / b, 20_000)
        v = mu1 * r + np.sqrt(r) * rng.standard_normal(r.size)
        v -= np.mean(v)
        m2, m3, m4 = (np.mean(v**j) for j in (2, 3, 4))
        k2, k3, k4 = (m2 / kernel_weight(alpha, 2), m3 / kernel_weight(alpha, 3),
                      (m4 - 3.0 * m2 * m2) / kernel_weight(alpha, 4))
        assert 0.0 < k3 * k3 / (k2 * k4) < 2.0 / 3.0
        seed = _mom_init(v, alpha)
        assert seed[2] != 0.0
        got = v_cumulants(GammaTimeChange(*seed))[1:]
        assert got == pytest.approx((k2, k3, k4), rel=1e-12)

    def test_mom_init_gaussian_series_seeds_inside_the_box(self):
        """Seasonal sine plus N(0, 2) noise: the floored fourth cumulant puts R far
        above 2/3, so the seed is the symmetric member, and the constant fit ends
        below the 1e6 penalty."""
        rng = np.random.default_rng(99)
        days = np.arange(700)
        fit = fit_seasonal(8 + 6 * np.sin(2 * np.pi * days / 365) + rng.normal(0, 2, 700))
        alpha = fit_alpha(fit).alpha
        tf = fit_timechange(fit.residuals, alpha=alpha, vol_shape="constant")
        a0, b0, mu0 = tf.init
        assert mu0 == 0.0 and abs(np.log(a0)) <= 25 and abs(np.log(b0)) <= 25
        eps = innovations(fit.residuals, alpha)
        k2 = np.var(eps) / kernel_weight(alpha, 2)
        assert a0 / b0 == pytest.approx(k2, rel=1e-12)  # the sample variance kept
        assert tf.status > 0 and tf.objective < 1.0


@pytest.fixture(scope="module")
def recovery_runs():
    """Seven independent 10k-day trajectories of the recovery model, pre-fitted."""
    _, paths = simulate_paths(RECOVERY_MODEL, SimConfig(step=1.0, n_paths=7, seed=100),
                              10_000.0)
    runs = []
    for row in paths:
        fit = fit_seasonal(row)
        alpha = fit_alpha(fit).alpha
        runs.append((fit.residuals, alpha))
    return runs


class TestGridCharfuns:
    def test_grid_is_equispaced_in_cf_step(self):
        """The fit's charfuns are powers of exp(i CF_STEP x), so the grid must be k CF_STEP."""
        assert np.array_equal(calibrate.CF_GRID, np.arange(1, 41) * calibrate.CF_STEP)

    @pytest.mark.parametrize("sd", [0.1, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("n, n_groups", [(30, 1), (2000, 1), (20_000, 1),
                                             (360, 12), (2144, 12), (20_000, 12)])
    def test_recurrence_matches_direct_exponentials(self, sd, n, n_groups):
        """Student-t(4) samples, scaled to sd, centred group by group: each row equals
        empirical_charfun of its group to 5e-14 (the direct exp is itself off by about
        |u x| eps at sd 100)."""
        rng = np.random.default_rng(n + n_groups)
        x = rng.standard_t(4, n) * (sd / math.sqrt(2.0))
        samples = [x[g::n_groups] - np.mean(x[g::n_groups]) for g in range(n_groups)]
        got = calibrate._grid_charfuns(samples)
        want = np.array([empirical_charfun(s, calibrate.CF_GRID) for s in samples])
        assert got.shape == (n_groups, calibrate.CF_GRID.size)
        assert np.max(np.abs(got - want)) < 5e-14


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
        residuals, _ = constant_functions(emp, alpha)
        truth = float(np.sum(residuals(np.array([np.log(1.5), np.log(1.0), 0.2])) ** 2))
        assert tf.objective <= truth + 1e-8

    def test_mu1_sign_flip(self, recovery_runs):
        resid, alpha = recovery_runs[6]
        tf_pos = fit_timechange(resid, alpha=alpha, vol_shape="constant")
        tf_neg = fit_timechange(-resid, alpha=alpha, vol_shape="constant")
        assert tf_pos.mu1 > 0 and tf_neg.mu1 < 0

    def test_too_few_innovations(self):
        with pytest.raises(CalibrationError, match="500"):
            fit_timechange(np.ones(100), alpha=0.2)

    def test_requires_alpha(self):
        with pytest.raises(TypeError):
            fit_timechange(np.ones(1000))
        for alpha in (0.0, -1.0, float("nan")):
            with pytest.raises(CalibrationError, match="positive alpha"):
                fit_timechange(np.ones(1000), alpha)

    @pytest.mark.parametrize("vol_shape", ["constant", "seasonal"])
    def test_constant_series_rejected(self, vol_shape):
        """Zero innovations leave the moment seed undefined: a typed error, not a division."""
        with pytest.raises(CalibrationError, match="positive variance"):
            fit_timechange(np.zeros(1000), alpha=0.2, vol_shape=vol_shape)

    @pytest.mark.parametrize("vol_shape", ["constant", "seasonal"])
    def test_converged_means_an_interior_optimum(self, vol_shape):
        """`converged` is a positive status with no parameter on the search box's wall:
        False for criterion 10's near-Gaussian series, True for the station file."""
        rng = np.random.default_rng(99)
        days = np.arange(700)
        wall = fit_seasonal(8 + 6 * np.sin(2 * np.pi * days / 365) + rng.normal(0, 2, 700))
        station = fit_seasonal(ingest_csv(DATA / "fit_daily.csv"))
        fits = [fit_timechange(fit.residuals, alpha=fit_alpha(fit).alpha, vol_shape=vol_shape)
                for fit in (wall, station)]
        assert [tf.status > 0 for tf in fits] == [True, True]
        assert [tf.at_bound for tf in fits] == [["mu1"], []]
        assert [tf.converged for tf in fits] == [False, True]

    def test_seasonal_vol_profile_recovered(self):
        p = ModelParams(alpha=0.25, t0=-5.0, seasonal=FourCoeffs(8.0, 0.0008, -6.0, -13.0),
                        vol=FourCoeffs(2.0, 0.0, 0.4, 0.8),
                        timechange=GammaTimeChange(1.5, 1.0, 0.2), horizon=10_001.0)
        _, paths = simulate_paths(p, SimConfig(step=1.0, n_paths=1, seed=555), 10_000.0)
        fit = fit_seasonal(paths[0])
        alpha = fit_alpha(fit).alpha
        tf = fit_timechange(fit.residuals, alpha=alpha, vol_shape="seasonal")
        t = np.arange(0.0, 365.0)
        true_sigma = eval_seasonal(p.vol, t)
        got_sigma = eval_seasonal(tf.vol, t)
        corr = np.corrcoef(true_sigma, got_sigma)[0, 1]
        assert corr > 0.95  # shape of the seasonal profile identified


def two_stage_fit(resid, alpha):
    """The seasonal fit as two solves: the constant shape on the profile-standardized
    innovations from the moment seed, then the twelve month groups from that optimum
    and the profile's c1..c3, with c0 pinned at the profile's value."""
    eps = innovations(resid, alpha)
    t = np.arange(eps.size, dtype=float)
    design = seasonal_design(t)
    profile = design @ np.linalg.lstsq(design, eps**2, rcond=None)[0]
    scale = np.sqrt(np.maximum(profile, max(1e-8, 0.05 * float(np.median(profile)))))
    work = eps / scale - np.mean(eps / scale)
    c0, *free = map(float, np.linalg.lstsq(design, scale, rcond=None)[0])
    a0, b0, mu0 = _mom_init(work, alpha)
    emp = empirical_charfun(work, calibrate.CF_GRID)[None, :]
    x, _, _ = calibrate._least_squares(*constant_functions(emp, alpha),
                                       np.array([np.log(a0), np.log(b0), mu0]))
    doy = np.mod(t, 365.0)
    month = np.minimum((doy / (365.0 / 12.0)).astype(int), 11)
    groups = [month == g for g in range(12)]
    t_groups = np.array([np.mean(doy[g]) for g in groups])
    emp_groups = np.array([empirical_charfun(eps[g] - np.mean(eps[g]), calibrate.CF_GRID)
                           for g in groups])
    x, obj, (status, nfev, njev) = calibrate._least_squares(
        *seasonal_functions(emp_groups, alpha, c0, t_groups), np.array([*x, *free]))
    return TimeChangeFit(a=np.exp(x[0]), b=np.exp(x[1]), mu1=x[2], vol=FourCoeffs(c0, *x[3:]),
                         objective=obj, init=(a0, b0, mu0), status=status, nfev=nfev,
                         njev=njev)


class TestOneSolve:
    def test_seasonal_fit_reaches_the_two_stage_optimum(self, toronto_like_model):
        """Starting the month groups from the moment seed, not from a constant-shape
        solve, finds the same optimum wherever the two-stage fit is interior."""
        _, paths = simulate_paths(toronto_like_model, SimConfig(step=1.0, n_paths=8, seed=16),
                                  2000.0)

        def identified(tf):
            c0 = tf.vol.k0
            return [tf.a, tf.b / c0**2, tf.mu1 / c0, tf.vol.k2 / c0, tf.vol.k3 / c0]

        interior = 0
        for row in paths:
            fit = fit_seasonal(row)
            alpha = fit_alpha(fit).alpha
            ref = two_stage_fit(fit.residuals, alpha)
            if ref.at_bound:
                continue
            interior += 1
            tf = fit_timechange(fit.residuals, alpha=alpha, vol_shape="seasonal")
            assert tf.init == pytest.approx(ref.init, rel=1e-15)
            assert tf.objective <= ref.objective * (1.0 + 1e-10)
            assert identified(tf) == pytest.approx(identified(ref), rel=1e-6)
            # the truth's slope c1 is 0, so it is compared as the year's drift of sigma / c0
            assert 365.0 * tf.vol.k1 / tf.vol.k0 == pytest.approx(
                365.0 * ref.vol.k1 / ref.vol.k0, rel=0.0, abs=1e-6)
        assert interior >= 6


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
        residuals, _ = constant_functions(emp, 0.25)
        for status in (1, 2, 3, 4):
            fake = FakeLeastSquares(status)
            monkeypatch.setattr(optimize, "least_squares", fake)
            tf = fit_timechange(self.resid, alpha=0.25)
            assert fake.calls == 1 and tf.converged and tf.status == status
            # the reported objective is the CF distance at the solver's end point
            start = np.array([np.log(tf.a), np.log(tf.b), tf.mu1])
            objective = float(np.sum(residuals(start) ** 2))
            assert tf.objective == pytest.approx(objective, rel=1e-12)

    def test_seasonal_reports_both_stages(self, monkeypatch):
        """The seasonal shape's two stages, the squared-innovation profile (a linear
        fit) and the month-group CF match, take one least-squares solve and report its
        status as one int."""
        fake = FakeLeastSquares(2)
        monkeypatch.setattr(optimize, "least_squares", fake)
        tf = fit_timechange(self.resid, alpha=0.25, vol_shape="seasonal")
        assert fake.calls == 1 and tf.converged and tf.status == 2


def richardson(fun, x, i, h):
    """Richardson-extrapolated central difference of fun along coordinate i (error O(h^4))."""
    def central(h):
        step = np.zeros_like(x)
        step[i] = h
        return (fun(x + step) - fun(x - step)) / (2.0 * h)
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def fd_least_squares(residuals, jacobian, x0):
    """The Levenberg-Marquardt solve with a forward-difference Jacobian instead."""
    res = optimize.least_squares(residuals, x0, method="lm", ftol=1e-12)
    assert res.status > 0
    return res.x, 2.0 * float(res.cost), (int(res.status), int(res.nfev), 0)


class TestResiduals:
    @pytest.mark.parametrize("mu1_sign", [1.0, -1.0, 0.0])
    def test_model_equals_the_innovation_charfun_form(self, mu1_sign):
        """The fit's residuals form the exponent on (group, node, u) arrays and
        `innovation_charfun` through `tilted_exponent_sum`: both give the same
        model, in the constant stage (sigma = 1) and over 12 vol groups."""
        rng = np.random.default_rng(98)
        u = calibrate.CF_GRID
        for _ in range(6):
            p = random_model(rng)
            tc = p.timechange
            x = np.array([np.log(tc.a), np.log(tc.b), mu1_sign * (abs(tc.mu1) + 0.1)])
            a, b, mu1 = math.exp(x[0]), math.exp(x[1]), x[2]
            emp = np.exp(1j * rng.normal(0.0, 0.1, (12, u.size)))
            sig = rng.uniform(0.5, 4.0, 12)
            for (residuals, _), vol, x_all in [
                    (constant_functions(emp[:1], p.alpha), np.ones(1), x),
                    (group_functions(emp, p.alpha), sig, np.concatenate([x, sig]))]:
                mean = (a * mu1 / b) * vol[:, None] * kernel_weight(p.alpha, 1)
                model = (innovation_charfun(u, a, b, mu1, p.alpha, vol_scale=vol)
                         * np.exp(-1j * u * mean))
                diff = np.sqrt(calibrate.CF_WEIGHTS) * (emp[:vol.size] - model)
                want = np.concatenate([diff.real.ravel(), diff.imag.ravel()])
                assert np.max(np.abs(residuals(x_all) - want)) <= 1e-13


class TestJacobian:
    T_GROUPS = np.arange(12) * 365.0 / 12.0 + 15.0

    def draws(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            p = random_model(rng)
            tc = p.timechange
            x = np.array([np.log(tc.a), np.log(tc.b), tc.mu1])
            emp = np.exp(1j * rng.normal(0.0, 0.1, (12, calibrate.CF_GRID.size)))
            yield p, x, emp

    @staticmethod
    def assert_columns_match(fun, jac, x, steps):
        got = jac(x)
        assert got.shape == (fun(x).size, x.size)
        for i, h in enumerate(steps):
            want = richardson(fun, x, i, h)
            assert np.linalg.norm(got[:, i] - want) <= 1e-9 * np.linalg.norm(want)

    def test_constant_stage_against_richardson(self):
        for p, x, emp in self.draws(95):
            self.assert_columns_match(*constant_functions(emp[:1], p.alpha), x, (1e-3,) * 3)

    def test_refine_stage_against_richardson(self):
        for p, x, emp in self.draws(96):
            vol = p.vol
            fun, jac = seasonal_functions(emp, p.alpha, vol.k0, self.T_GROUPS)
            # c1 multiplies t_g (up to 350 days): a step of 1e-3 would move sig by 0.35
            self.assert_columns_match(fun, jac, np.array([*x, vol.k1, vol.k2, vol.k3]),
                                      (1e-3,) * 3 + (1e-6, 1e-3, 1e-3))

    def test_zero_where_the_residuals_are_the_penalty(self):
        sig = np.full(12, 1.5)
        for args in [(25.5, 0.0, 0.1, sig), (0.0, -26.0, 0.1, sig), (0.0, 0.0, 50.5, sig),
                     (0.0, 0.0, 0.1, np.where(np.arange(12) == 4, 1e-6, 1.5)),
                     (0.0, 0.0, 0.1, np.full(1, -0.3))]:
            emp = np.ones((args[3].size, calibrate.CF_GRID.size), complex)
            _, jacobian = group_functions(emp, 0.25)
            x = np.array([*args[:3], *args[3]])
            jac = jacobian(x)
            assert jac.shape == (2 * args[3].size * calibrate.CF_GRID.size, x.size)
            assert not np.any(jac)

    def test_refine_of_a_fit_against_richardson(self, monkeypatch):
        """The seasonal fit's own vol chain rule, at the start of a station-like fit."""
        solves, solve = [], calibrate._least_squares

        def capture(residuals, jacobian, x0):
            solves.append((residuals, jacobian, np.array(x0)))
            return solve(residuals, jacobian, x0)

        monkeypatch.setattr(calibrate, "_least_squares", capture)
        fit_timechange(TestLeastSquaresStatus.resid, alpha=0.25, vol_shape="seasonal")
        [(fun, jac, x)] = solves
        self.assert_columns_match(fun, jac, x, (1e-3,) * 3 + (1e-6, 1e-3, 1e-3))

    def test_objective_not_above_finite_difference_fit(self, recovery_runs, monkeypatch):
        """The closed form changes the path, not the optimum, of the fit."""
        fits = [(resid, alpha, shape) for resid, alpha in recovery_runs[:4]
                for shape in ("constant", "seasonal")]
        analytic = [fit_timechange(r, alpha=a, vol_shape=s).objective for r, a, s in fits]
        monkeypatch.setattr(calibrate, "_least_squares", fd_least_squares)
        for (resid, alpha, shape), objective in zip(fits, analytic):
            fd = fit_timechange(resid, alpha=alpha, vol_shape=shape).objective
            assert objective <= fd * (1.0 + 1e-10)

    def test_counts_are_the_calls(self, monkeypatch):
        """nfev and njev count every call of the one solve's residuals and Jacobian."""
        calls = []

        def counting(factory):
            def make(*args):
                record = {"residuals": 0, "jacobian": 0}
                calls.append(record)

                def counted(kind, f):
                    def call(x):
                        record[kind] += 1
                        return f(x)
                    return call
                residuals, jacobian = factory(*args)
                return counted("residuals", residuals), counted("jacobian", jacobian)
            return make

        monkeypatch.setattr(calibrate, "_cf_functions", counting(calibrate._cf_functions))
        resid = TestLeastSquaresStatus.resid
        for shape in ("constant", "seasonal"):
            calls.clear()
            tf = fit_timechange(resid, alpha=0.25, vol_shape=shape)
            assert calls == [{"residuals": tf.nfev, "jacobian": tf.njev}]
            assert 0 < tf.nfev <= 10 and 0 < tf.njev <= 10


class TestScaleDegeneracy:
    def test_distance_invariant_under_scale(self):
        """(sigma, a, b, mu1) == (s sigma, a, s^2 b, s mu1): why the seasonal fit pins c0."""
        rng = np.random.default_rng(90)
        t_groups = np.arange(12) * 365.0 / 12.0 + 15.0
        for _ in range(10):
            p = random_model(rng)
            tc = p.timechange
            sig = eval_seasonal(p.vol, t_groups)
            emp = np.exp(1j * rng.normal(0.0, 0.1, (12, calibrate.CF_GRID.size)))
            residuals, _ = group_functions(emp, p.alpha)
            distance = lambda *args: float(np.sum(residuals(np.array([*args[:3], *args[3]])) ** 2))
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
            alpha = fit_alpha(fit).alpha
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
