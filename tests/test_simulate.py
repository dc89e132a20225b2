import numpy as np
import pytest

from tempderiv import (ContractSpec, DomainError, FourCoeffs, GammaTimeChange,
                       ModelParams, SimConfig, empirical_charfun, gamma_increment,
                       mc_price_cat, simulate_cat, simulate_paths)
from tempderiv.charfun import cat_cumulants, esscher_interval
from tempderiv.esscher import transformed_timechange
from tempderiv.simulate import PATH_BLOCK, _step_tables, block_rng

from conftest import random_model


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

    def test_draws_only_one_block_width(self, toronto_like_model, monkeypatch):
        """4 paths over 3,650 days draw one 128-row block: 2 * 128 * 3650 variates."""
        drawn = []

        class Counting:
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                def draw(*args):
                    out = getattr(self._rng, name)(*args)
                    drawn.append(np.size(out))
                    return out
                return draw

        original = block_rng
        monkeypatch.setattr("tempderiv.simulate.block_rng",
                            lambda seed, blk: Counting(original(seed, blk)))
        _, paths = simulate_paths(toronto_like_model, SimConfig(step=1.0, n_paths=4, seed=3),
                                  3650.0)
        assert paths.shape == (4, 3651)
        assert sum(drawn) == 2 * PATH_BLOCK * 3650

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
