import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from tempderiv import (ContractSpec, DomainError, FourCoeffs, GammaTimeChange,
                       ModelParams, SimConfig, empirical_charfun, mc_price_cat,
                       simulate_cat, simulate_paths)
from tempderiv.charfun import cat_cumulants, esscher_interval
from tempderiv.esscher import transformed_timechange
from tempderiv.simulate import (D_CAP, _gaussian_call, _norm_cdf, _step_tables,
                                 block_rng)

from conftest import README_MODEL, random_model


@pytest.fixture
def drawn(monkeypatch):
    """Record of the stream generators: `streams` lists the stream of each
    generator seeded, `draws` the (method, variates) of every draw, in order."""
    record = SimpleNamespace(streams=[], draws=[])

    class Counting:
        def __init__(self, rng):
            self._rng = rng

        def __getattr__(self, name):
            def draw(*args):
                out = getattr(self._rng, name)(*args)
                record.draws.append((name, np.size(out)))
                return out
            return draw

    def seeded(seed, stream):
        record.streams.append(stream)
        return Counting(block_rng(seed, stream))

    monkeypatch.setattr("tempderiv.simulate.block_rng", seeded)
    return record


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
        """A path's draws depend only on (seed, row), never on n_paths."""
        _, a = simulate_paths(toronto_like_model, SimConfig(step=1.0, n_paths=10, seed=9), 20.0)
        _, b = simulate_paths(toronto_like_model, SimConfig(step=1.0, n_paths=4097, seed=9), 20.0)
        assert np.array_equal(a, b[:10])

    def test_draws_only_the_rows_asked_for(self, toronto_like_model, drawn):
        """4 paths over 3,650 days draw only their own rows: 2 * 4 * 3650 variates."""
        _, paths = simulate_paths(toronto_like_model, SimConfig(step=1.0, n_paths=4, seed=3),
                                  3650.0)
        assert paths.shape == (4, 3651)
        assert sum(size for _, size in drawn.draws) == 2 * 4 * 3650

    def test_paths_independent_of_count_across_row_runs(self, toronto_like_model):
        """1,100 days draw each stream in runs of 59 rows: a path is the same
        whether its run is cut short or followed by more."""
        p = replace(toronto_like_model, horizon=1101.0)
        cfg = lambda n: SimConfig(step=1.0, n_paths=n, seed=21)
        _, full = simulate_paths(p, cfg(300), 1100.0, -0.1)
        for n in (1, 58, 59, 60, 117, 118, 119, 177, 178):
            _, part = simulate_paths(p, cfg(n), 1100.0, -0.1)
            assert np.array_equal(part, full[:n])

    def test_tilt_is_the_transformed_time_change(self, toronto_like_model):
        """theta tilts by the change of Gamma parameters alone: the paths under
        Q(theta) are, bit for bit, the P paths of the transformed time change."""
        p = toronto_like_model
        cfg = SimConfig(step=1.0, n_paths=20, seed=6)
        q = replace(p, timechange=transformed_timechange(p.timechange, -0.2))
        assert np.array_equal(simulate_paths(p, cfg, 60.0, -0.2)[1],
                              simulate_paths(q, cfg, 60.0)[1])
        assert np.array_equal(simulate_cat(p, cfg, 60, -0.2)[0], simulate_cat(q, cfg, 60)[0])
        outside = esscher_interval(p.timechange)[1] + 0.1
        with pytest.raises(DomainError, match="admissible"):
            simulate_paths(p, cfg, 60.0, outside)

    def test_config_has_no_measure(self):
        """The tilt is an argument of the simulators, not a setting."""
        with pytest.raises(TypeError):
            SimConfig(measure="Q")

    def test_block_rng_counter_based(self):
        g1 = block_rng(7, 0).standard_normal(4)
        g2 = block_rng(7, 0).standard_normal(4)
        g3 = block_rng(8, 0).standard_normal(4)
        assert np.array_equal(g1, g2)
        assert not np.array_equal(g1, g3)

    def test_block_streams_differ(self):
        clock = block_rng(7, 0).standard_normal(4)
        noise = block_rng(7, 1).standard_normal(4)
        assert not np.array_equal(clock, noise)

    @pytest.mark.parametrize("a, b", [((2 ** 32, 0), (0, 1)),
                                      ((2 ** 32 + 1, 0), (1, 1)),
                                      ((2 ** 33, 0), (0, 2))])
    def test_large_seeds_share_no_stream(self, a, b):
        """Zero-padded entropy [seed words, stream] would make these (seed, stream) equal."""
        assert not np.array_equal(block_rng(*a).random(4), block_rng(*b).random(4))

    def test_seed_stream_pairs_are_distinct_modulo_2_64(self):
        """Distinct (seed mod 2**64, stream) pairs draw distinct streams; -1 is 2**64 - 1."""
        seeds = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 64 - 1)
        first = {(seed, stream): tuple(block_rng(seed, stream).random(2))
                 for seed in seeds for stream in (0, 1)}
        assert len(set(first.values())) == len(first)
        for stream in (0, 1):
            assert tuple(block_rng(-1, stream).random(2)) == first[2 ** 64 - 1, stream]

    def test_stream_entropy_is_seed_and_spawn_key(self):
        expected = np.random.SeedSequence(7, spawn_key=(1,))
        assert np.array_equal(block_rng(7, 1).random(4),
                              np.random.Generator(np.random.SFC64(expected)).random(4))

    @pytest.mark.parametrize("n_paths", [1, 59, 60, 300])
    def test_one_generator_per_stream_per_run(self, drawn, n_paths):
        """simulate_paths seeds stream 0 and stream 1 once each, and
        mc_price_cat only stream 0, whatever the path count."""
        simulate_paths(README_MODEL, SimConfig(n_paths=n_paths, seed=5), 1100.0)
        assert sorted(drawn.streams) == [0, 1]
        drawn.streams.clear()
        c = ContractSpec(horizon_T=1100, k1_strike=1.5e4, k2_strike=1.4e4,
                         d1=1.0, d2=1.0, rate_r=0.02)
        mc_price_cat(c, README_MODEL, 0.0, SimConfig(n_paths=n_paths, seed=5))
        assert drawn.streams == [0]


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
        """300 paths over 1,100 days are drawn in six runs of up to 59 rows."""
        p = ModelParams(alpha=toronto_like_model.alpha, t0=toronto_like_model.t0,
                        seasonal=toronto_like_model.seasonal, vol=toronto_like_model.vol,
                        timechange=toronto_like_model.timechange, horizon=1101.0)
        cfg = SimConfig(step=1.0, n_paths=300, seed=12)
        for theta in (0.0, -0.2):
            _, paths = simulate_paths(p, cfg, 1100.0, theta)
            xi, terminal = simulate_cat(p, cfg, 1100, theta)
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
            xi, _ = simulate_cat(README_MODEL, cfg, 30, theta)
            payoff = c.discount * (c.d1 * np.maximum(xi - c.k1_strike, 0.0)
                                   + c.d2 * np.maximum(c.k2_strike - xi, 0.0))
            plain_se = np.std(payoff, ddof=1) / np.sqrt(xi.size)
            assert abs(price - np.mean(payoff)) <= 3.0 * plain_se
            assert se <= plain_se / 5.0

    def test_draws_only_the_gamma_clock(self, drawn):
        """300 paths (runs of 109 rows) over 600 days: 300 * 600 Gamma
        variates, the clock draws of simulate_cat, and no normals."""
        c = ContractSpec(horizon_T=600, k1_strike=7000.0, k2_strike=6000.0,
                         d1=1.0, d2=1.0, rate_r=0.02)
        mc_price_cat(c, README_MODEL, 0.0, SimConfig(n_paths=300, seed=4))
        assert {name for name, _ in drawn.draws} == {"standard_gamma"}
        assert sum(size for _, size in drawn.draws) == 300 * 600
        clock = list(drawn.draws)
        drawn.draws.clear()
        simulate_cat(README_MODEL, SimConfig(n_paths=300, seed=4), 600)
        assert drawn.draws[::2] == clock

    def test_zero_clock_pays_intrinsic(self):
        """a = 1e-3 over one day: many clock draws are exactly 0, so s = 0 on
        those paths; the price is finite, warns of nothing and agrees with the
        payoff average."""
        assert np.any(block_rng(11, 0).standard_gamma(1e-3, (1000, 1)) == 0.0)
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


    def test_norm_cdf_against_math_erfc(self):
        """Phi(d) = erfc(-d/sqrt(2))/2 against math.erfc on a grid of step 1e-4 over
        |d| <= D_CAP and at the branch edges of Cody's approximations (|z| = 0.46875
        and 4): within 16 ulp where the value is a normal float, within 1e-310 where
        it is subnormal or 0."""
        edges = np.array([0.46875, 4.0]) * np.sqrt(2.0)
        d = np.concatenate([np.linspace(-D_CAP, D_CAP, 800_001),
                            np.nextafter(edges, 0.0), edges, np.nextafter(edges, 9.0)])
        d = np.concatenate([d, -d])
        z = d * -np.sqrt(0.5)
        want = 0.5 * np.array([math.erfc(v) for v in z.tolist()])
        got = _norm_cdf(d)
        normal = want >= np.finfo(float).tiny
        assert np.all(np.abs(got - want)[normal] <= 16 * np.spacing(want[normal]))
        assert np.all(np.abs(got - want)[~normal] <= 1e-310)
        assert np.array_equal(_norm_cdf(np.array([-D_CAP, 0.0, D_CAP])), [0.0, 0.5, 1.0])


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
