import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from tempderiv import (ContractSpec, DomainError, FourCoeffs, GammaTimeChange,
                       ModelParams, SimConfig, empirical_charfun, gamma_increment,
                       mc_price_cat, simulate_cat, simulate_paths)
from tempderiv.charfun import cat_cumulants, esscher_interval
from tempderiv.esscher import transformed_timechange
from tempderiv.simulate import PATH_BLOCK, _gaussian_call, _step_tables, block_rng

from conftest import random_model


README_MODEL = ModelParams(alpha=0.25, t0=12.0, seasonal=FourCoeffs(12.0, 0.0008, -5.9, -4.0),
                           vol=FourCoeffs(3.5, 0.0, 0.5, 1.0),
                           timechange=GammaTimeChange(1.5, 1.0, 0.3))


@pytest.fixture
def drawn(monkeypatch):
    """(method, variates) of every draw from the block generators, in order."""
    draws = []

    class Counting:
        def __init__(self, rng):
            self._rng = rng

        def __getattr__(self, name):
            def draw(*args):
                out = getattr(self._rng, name)(*args)
                draws.append((name, np.size(out)))
                return out
            return draw

    original = block_rng
    monkeypatch.setattr("tempderiv.simulate.block_rng",
                        lambda seed, blk: Counting(original(seed, blk)))
    return draws


class TestGammaIncrement:
    def test_degenerate_shape_limit(self):
        rng = np.random.default_rng(0)
        draws = gamma_increment(rng, 1e-12, 1.0, size=10_000)
        assert np.mean(draws) < 1e-10

    def test_mean(self):
        rng = np.random.default_rng(1)
        a, b, dt = 2.0, 4.0, 1.0
        draws = gamma_increment(rng, a * dt, b, size=1_000_000)
        sd = np.std(draws, ddof=1)
        assert abs(np.mean(draws) - a * dt / b) < 3 * sd / 1e3

    def test_variance(self):
        rng = np.random.default_rng(2)
        a, b, dt = 2.0, 4.0, 1.0
        draws = gamma_increment(rng, a * dt, b, size=400_000)
        target = a * dt / b**2
        se = np.sqrt(2.0 / draws.size) * np.var(draws, ddof=1)  # approx se of the variance
        assert abs(np.var(draws, ddof=1) - target) < 5 * se

    def test_positive(self):
        rng = np.random.default_rng(3)
        assert np.all(gamma_increment(rng, 2.0, 4.0, size=100_000) > 0)

    def test_rejects_bad_params(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DomainError):
            gamma_increment(rng, 0.0, 1.0)
        with pytest.raises(DomainError):
            gamma_increment(rng, 1.0, -1.0)


class TestSimulatePaths:
    def test_noiseless_matches_deterministic_curve(self, toronto_like_model):
        p = ModelParams(alpha=0.3, t0=5.0, seasonal=toronto_like_model.seasonal,
                        vol=FourCoeffs(0, 0, 0, 0), timechange=GammaTimeChange(1.5, 1.0, 0.3))
        times, paths = simulate_paths(p, SimConfig(step=1.0, n_paths=3, seed=0), 120.0)
        expected = p.det_mean(times)
        assert np.max(np.abs(paths - expected[None, :])) < 1e-10

    def test_path_length(self, toronto_like_model):
        times, paths = simulate_paths(toronto_like_model, SimConfig(step=0.5, n_paths=2, seed=1), 30.0)
        assert times.size == 61 and paths.shape == (2, 61)

    def test_rejects_nonmultiple_horizon(self, toronto_like_model):
        with pytest.raises(DomainError):
            simulate_paths(toronto_like_model, SimConfig(step=1.0, n_paths=1, seed=0), 30.5)

    def test_bit_reproducible(self, toronto_like_model):
        cfg = SimConfig(step=1.0, n_paths=50, seed=42)
        _, a = simulate_paths(toronto_like_model, cfg, 60.0)
        _, b = simulate_paths(toronto_like_model, cfg, 60.0)
        assert np.array_equal(a, b)

    def test_paths_independent_of_total_count(self, toronto_like_model):
        """A path's draws depend only on (seed, block, row), never on n_paths."""
        _, a = simulate_paths(toronto_like_model, SimConfig(step=1.0, n_paths=10, seed=9), 20.0)
        _, b = simulate_paths(toronto_like_model, SimConfig(step=1.0, n_paths=4097, seed=9), 20.0)
        assert np.array_equal(a, b[:10])

    def test_draws_only_one_block_width(self, toronto_like_model, drawn):
        """4 paths over 3,650 days draw one 128-row block: 2 * 128 * 3650 variates."""
        _, paths = simulate_paths(toronto_like_model, SimConfig(step=1.0, n_paths=4, seed=3),
                                  3650.0)
        assert paths.shape == (4, 3651)
        assert sum(size for _, size in drawn) == 2 * PATH_BLOCK * 3650

    def test_block_rng_counter_based(self):
        g1 = block_rng(7, 0).standard_normal(4)
        g2 = block_rng(7, 0).standard_normal(4)
        g3 = block_rng(7, 1).standard_normal(4)
        assert np.array_equal(g1, g2)
        assert not np.array_equal(g1, g3)


class TestSimulateCat:
    def test_requires_daily_step(self, toronto_like_model):
        with pytest.raises(DomainError):
            simulate_cat(toronto_like_model, SimConfig(step=0.5, n_paths=10, seed=0), 30)

    def test_cat_is_path_sum(self, toronto_like_model):
        cfg = SimConfig(step=1.0, n_paths=25, seed=8)
        times, paths = simulate_paths(toronto_like_model, cfg, 30.0)
        xi, terminal = simulate_cat(toronto_like_model, cfg, 30)
        assert np.allclose(xi, paths[:, 1:].sum(axis=1))
        assert np.allclose(terminal, paths[:, -1])

    def test_cat_sums_across_block_and_chunk_edges(self, toronto_like_model):
        """300 paths span three blocks and 1,100 days three step chunks."""
        p = ModelParams(alpha=toronto_like_model.alpha, t0=toronto_like_model.t0,
                        seasonal=toronto_like_model.seasonal, vol=toronto_like_model.vol,
                        timechange=toronto_like_model.timechange, horizon=1101.0)
        for measure, theta in (("P", 0.0), ("Q", -0.2)):
            cfg = SimConfig(step=1.0, n_paths=300, seed=12, measure=measure, theta=theta)
            _, paths = simulate_paths(p, cfg, 1100.0)
            xi, terminal = simulate_cat(p, cfg, 1100)
            days = paths[:, 1:]
            assert np.all(np.abs(xi - days.sum(axis=1)) <= 1e-10 * np.abs(days).sum(axis=1))
            assert np.all(np.abs(terminal - paths[:, -1]) <= 1e-10 * np.abs(days).max(axis=1))

    def test_step_variance_is_the_models(self):
        """Var(xi) implied by the step tables equals the closed-form CAT variance.

        Step j adds w_j (ds_j dR + sqrt(gs2_j dR) Z) to xi, dR ~ Gamma(aD, b),
        so Var(xi) = sum_j w_j^2 (ds_j^2 aD/b^2 + gs2_j aD/b).
        """
        rng = np.random.default_rng(404)
        for _ in range(12):
            p = random_model(rng)
            horizon = int(rng.choice([30, 90, 365]))
            lo, hi = esscher_interval(p.timechange)
            for theta in (0.0, rng.uniform(0.5 * lo, 0.5 * hi)):
                tc = transformed_timechange(p.timechange, theta)
                _, ds, gs2 = _step_tables(p, tc, horizon, 1.0)
                w = np.expm1(-p.alpha * (horizon - np.arange(horizon))) / np.expm1(-p.alpha)
                var = np.sum(w ** 2 * (ds ** 2 * tc.a / tc.b ** 2 + gs2 * tc.a / tc.b))
                assert var == pytest.approx(cat_cumulants(p, theta, horizon)[1], rel=1e-12)


class TestMcPriceCat:
    def test_zero_ticks(self, toronto_like_model):
        c = ContractSpec(horizon_T=30, k1_strike=400.0, k2_strike=300.0,
                         d1=0.0, d2=0.0, rate_r=0.02)
        price, se = mc_price_cat(c, toronto_like_model, 0.0, SimConfig(n_paths=2000, seed=0))
        assert price == 0.0 and se == 0.0

    def test_clt_scaling(self, toronto_like_model):
        c = ContractSpec(horizon_T=30, k1_strike=330.0, k2_strike=250.0,
                         d1=1.0, d2=1.0, rate_r=0.02)
        ratios = []
        for seed in range(5):
            _, se1 = mc_price_cat(c, toronto_like_model, 0.0, SimConfig(n_paths=4000, seed=seed))
            _, se4 = mc_price_cat(c, toronto_like_model, 0.0, SimConfig(n_paths=16000, seed=seed))
            ratios.append(se4 / se1)
        assert 0.4 < float(np.mean(ratios)) < 0.6

    def test_conditional_price_agrees_with_payoff_average(self):
        """Same seeds, README model, T = 30: the conditional estimate lies within
        3 standard errors of the average of simulate_cat's payoffs, with at
        most a fifth of their standard error."""
        theta = -0.07
        mean, var = cat_cumulants(README_MODEL, theta, 30)
        c = ContractSpec(horizon_T=30, k1_strike=mean + 0.5 * np.sqrt(var),
                         k2_strike=mean - 0.5 * np.sqrt(var), d1=1.0, d2=2.0, rate_r=0.02)
        for seed in range(3):
            cfg = SimConfig(n_paths=20_000, seed=seed)
            price, se = mc_price_cat(c, README_MODEL, theta, cfg)
            xi, _ = simulate_cat(README_MODEL, SimConfig(n_paths=20_000, seed=seed,
                                                         measure="Q", theta=theta), 30)
            payoff = c.discount * (c.d1 * np.maximum(xi - c.k1_strike, 0.0)
                                   + c.d2 * np.maximum(c.k2_strike - xi, 0.0))
            plain_se = np.std(payoff, ddof=1) / np.sqrt(xi.size)
            assert abs(price - np.mean(payoff)) <= 3.0 * plain_se
            assert se <= plain_se / 5.0

    def test_draws_only_the_gamma_clock(self, drawn):
        """300 paths (3 blocks) over 600 days (2 chunks): 3 * 128 * 600 Gamma
        variates, the ones simulate_cat draws first in each chunk, and no normals."""
        c = ContractSpec(horizon_T=600, k1_strike=7000.0, k2_strike=6000.0,
                         d1=1.0, d2=1.0, rate_r=0.02)
        mc_price_cat(c, README_MODEL, 0.0, SimConfig(n_paths=300, seed=4))
        assert {name for name, _ in drawn} == {"standard_gamma"}
        assert sum(size for _, size in drawn) == 3 * PATH_BLOCK * 600
        clock = list(drawn)
        drawn.clear()
        simulate_cat(README_MODEL, SimConfig(n_paths=300, seed=4, measure="Q"), 600)
        assert drawn[::2] == clock

    def test_zero_clock_pays_intrinsic(self):
        """a = 1e-3 over one day: many clock draws are exactly 0, so s = 0 on
        those paths; the price is finite, warns of nothing and agrees with the
        payoff average."""
        assert np.any(block_rng(11, 0).standard_gamma(1e-3, (1, PATH_BLOCK)) == 0.0)
        p = ModelParams(alpha=0.25, t0=12.0, seasonal=README_MODEL.seasonal,
                        vol=README_MODEL.vol, timechange=GammaTimeChange(1e-3, 1.0, 0.3))
        mean, var = cat_cumulants(p, 0.0, 1)
        c = ContractSpec(horizon_T=1, k1_strike=mean + 0.1, k2_strike=mean + 0.1,
                         d1=1.0, d2=1.0, rate_r=0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            price, se = mc_price_cat(c, p, 0.0, SimConfig(n_paths=1000, seed=11))
        xi, _ = simulate_cat(p, SimConfig(n_paths=1000, seed=11), 1)
        payoff = c.discount * (np.maximum(xi - c.k1_strike, 0.0)
                               + np.maximum(c.k2_strike - xi, 0.0))
        assert np.isfinite(price) and se > 0.0
        assert abs(price - np.mean(payoff)) <= 3.0 * np.std(payoff, ddof=1) / np.sqrt(xi.size)

    def test_gaussian_call_zero_variance_is_intrinsic(self):
        m = np.array([3.0, 1.0, -2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _gaussian_call(m, np.zeros(3), 1.0)
        assert np.array_equal(got, np.maximum(m - 1.0, 0.0))

    @pytest.mark.parametrize("m, s, strike", [(0.0, 1.0, 0.0), (5.0, 2.0, 3.0),
                                               (-1.0, 0.5, 0.2), (300.0, 25.0, 340.0),
                                               (300.0, 25.0, 230.0), (1.0, 1e-3, 1.0005)])
    def test_gaussian_call_against_quadrature(self, m, s, strike):
        """Both legs against quad of the Gaussian payoff, to 1e-12 relative."""
        def integral(payoff, lo, hi):
            return quad(lambda x: payoff(x) * np.exp(-0.5 * ((x - m) / s) ** 2)
                        / (s * np.sqrt(2.0 * np.pi)), lo, hi, epsabs=0.0, epsrel=1e-13,
                        limit=200)[0]

        call = integral(lambda x: x - strike, strike, m + 40.0 * s)
        put = integral(lambda x: strike - x, m - 40.0 * s, strike)
        got_call, got_put = _gaussian_call(np.array([m, -m]), np.array([s, s]),
                                           np.array([strike, -strike]))
        assert got_call == pytest.approx(call, rel=1e-12)
        assert got_put == pytest.approx(put, rel=1e-12)


class TestEmpiricalCharfun:
    def test_at_zero(self):
        assert empirical_charfun([1.0, 2.0, -3.0], 0.0) == 1.0 + 0.0j

    def test_bounded(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=1000)
        for u in (0.5, 2.0, 11.0):
            assert abs(empirical_charfun(x, u)) <= 1.0 + 1e-12

    def test_gaussian_value(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(1_000_000)
        got = empirical_charfun(x, 1.0)
        assert abs(got - np.exp(-0.5)) < 3.0 / np.sqrt(x.size)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            empirical_charfun([], 1.0)
