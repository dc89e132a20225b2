from dataclasses import replace

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from tempderiv import (ContractSpec, CosGrid, DomainError, PricingWarning,
                       SimConfig, cat_cumulants, charfun_cat, cos_coefficients,
                       density_from_charfun, mc_price_cat, price_strangle, solve_theta,
                       truncation_bounds)
from tempderiv.cosine import _psi_chi

from conftest import README_MODEL, random_model
from helpers import full_charfun_cat, full_density, full_strangle, leg_value

GAUSS_GRID = CosGrid(-10.0, 10.0, 256, 256)
gauss_cf = lambda u: np.exp(-0.5 * np.asarray(u) ** 2)
INV_SQRT_2PI = 0.3989422804014327


class TestTruncationBounds:
    def test_degenerate_width(self):
        assert truncation_bounds(3.0, 4.0, 0.0) == (3.0, 3.0)

    def test_standard(self):
        assert truncation_bounds(0.0, 1.0, 10.0) == (-10.0, 10.0)

    def test_rejects_negative_variance(self):
        with pytest.raises(DomainError):
            truncation_bounds(0.0, -1e-3)

    def test_gaussian_tail_mass_negligible(self):
        b1, b2 = truncation_bounds(0.0, 1.0, 10.0)
        tail = 2.0 * special.ndtr(b1)
        assert tail < 1e-20


class TestCosCoefficients:
    def test_k0(self):
        coeffs = cos_coefficients(gauss_cf, GAUSS_GRID, 8)
        assert coeffs[0] == pytest.approx(2.0 / 20.0, rel=1e-14)

    def test_normalization_guard(self):
        with pytest.raises(DomainError):
            cos_coefficients(lambda u: 0.5 * gauss_cf(u), GAUSS_GRID, 4)

    def test_gaussian_density_at_zero(self):
        dens = density_from_charfun(gauss_cf, GAUSS_GRID, 0.0, 256)
        assert dens == pytest.approx(INV_SQRT_2PI, abs=1e-8)

    def test_modulation_shift_identity(self):
        shift = 1.7
        shifted_cf = lambda u: gauss_cf(u) * np.exp(1j * np.asarray(u) * shift)
        shifted_grid = CosGrid(GAUSS_GRID.b1 + shift, GAUSS_GRID.b2 + shift, 256, 256)
        x = np.linspace(-3.0, 3.0, 31)
        base = density_from_charfun(gauss_cf, GAUSS_GRID, x, 256)
        moved = density_from_charfun(shifted_cf, shifted_grid, x + shift, 256)
        assert np.max(np.abs(base - moved)) < 1e-10


class TestPayoffCosIntegrals:
    def test_empty_interval(self):
        psi, chi = _psi_chi(np.array([3]), GAUSS_GRID, 1.0, 1.0)
        assert psi[0] == 0.0 and chi[0] == 0.0

    def test_k0_unit_interval(self):
        psi, chi = _psi_chi(np.array([0]), GAUSS_GRID, 0.0, 1.0)
        assert psi[0] == pytest.approx(1.0) and chi[0] == pytest.approx(0.5)

    def test_against_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            lo = rng.uniform(-9, 8)
            hi = rng.uniform(lo, 9)
            psi, chi = _psi_chi(np.array([k]), GAUSS_GRID, lo, hi)
            w = k * np.pi / GAUSS_GRID.width
            psi_q = quad(lambda x: np.cos(w * (x - GAUSS_GRID.b1)), lo, hi, epsabs=1e-14)[0]
            chi_q = quad(lambda x: x * np.cos(w * (x - GAUSS_GRID.b1)), lo, hi, epsabs=1e-14)[0]
            assert psi[0] == pytest.approx(psi_q, abs=1e-12)
            assert chi[0] == pytest.approx(chi_q, abs=1e-12)


class TestLegValue:
    def test_empty_support_call(self):
        with pytest.warns(PricingWarning, match="call strike 12.0 at or above b2=10.0: empty "
                                                "payoff support, leg = 0"):
            assert leg_value(gauss_cf, GAUSS_GRID, 12.0, call=True, terms=64) == 0.0

    def test_empty_support_put(self):
        with pytest.warns(PricingWarning, match="put strike -12.0 at or below b1=-10.0: empty "
                                                "payoff support, leg = 0"):
            assert leg_value(gauss_cf, GAUSS_GRID, -12.0, call=False, terms=64) == 0.0

    def test_gaussian_call_at_the_money(self):
        # E[X^+] for a standard normal
        got = leg_value(gauss_cf, GAUSS_GRID, 0.0, call=True, terms=256)
        assert got == pytest.approx(INV_SQRT_2PI, abs=1e-6)

    def test_put_call_parity(self):
        for strike in (-0.7, 0.0, 1.3):
            call = leg_value(gauss_cf, GAUSS_GRID, strike, call=True, terms=256)
            put = leg_value(gauss_cf, GAUSS_GRID, strike, call=False, terms=256)
            assert call - put == pytest.approx(0.0 - strike, abs=1e-6)

    def test_leg_matches_density_quadrature(self):
        strike = 0.4
        call = leg_value(gauss_cf, GAUSS_GRID, strike, call=True, terms=256)
        oracle = quad(lambda x: (x - strike) * density_from_charfun(gauss_cf, GAUSS_GRID, x, 256),
                      strike, GAUSS_GRID.b2, epsabs=1e-12, limit=400)[0]
        assert call == pytest.approx(oracle, abs=1e-8)


class TestDensityFromCharfun:
    def test_integrates_to_one(self):
        x = np.linspace(GAUSS_GRID.b1, GAUSS_GRID.b2, 4001)
        dens = density_from_charfun(gauss_cf, GAUSS_GRID, x, 256)
        assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-4)

    def test_gaussian_pointwise(self):
        x = np.linspace(-10, 10, 1024)
        dens = density_from_charfun(gauss_cf, GAUSS_GRID, x, 256)
        target = INV_SQRT_2PI * np.exp(-0.5 * x * x)
        assert np.max(np.abs(dens - target)) < 1e-8
        assert np.min(dens) > -1e-6

    def test_rejects_outside(self):
        with pytest.raises(DomainError):
            density_from_charfun(gauss_cf, GAUSS_GRID, 11.0, 64)


@pytest.fixture
def contract():
    return ContractSpec(horizon_T=60, k1_strike=500.0, k2_strike=380.0,
                        d1=1.0, d2=1.0, rate_r=0.02)


def auto_grid(p, theta, horizon_t, l_mult=10.0, n=256):
    mean, var = cat_cumulants(p, theta, horizon_t)
    b1, b2 = truncation_bounds(mean, var, l_mult)
    return CosGrid(b1, b2, n, n)


class TestPriceStrangle:
    def test_zero_ticks(self, toronto_like_model, contract):
        c = ContractSpec(horizon_T=60, k1_strike=500.0, k2_strike=380.0,
                         d1=0.0, d2=0.0, rate_r=0.02)
        grid = auto_grid(toronto_like_model, 0.0, 60)
        assert price_strangle(c, toronto_like_model, 0.0, grid).price == 0.0

    def test_monotone_in_strikes(self, toronto_like_model):
        p = toronto_like_model
        grid = auto_grid(p, 0.0, 60)
        mean, var = cat_cumulants(p, 0.0, 60)
        far_call = mean + 8.0 * np.sqrt(var)  # inside the grid: call leg ~ 0, no clamp
        strikes = np.linspace(-200.0, 200.0, 9)  # across 0, inside the grid
        assert grid.b1 < strikes[0] < 0.0 < strikes[-1] < far_call
        calls = [price_strangle(ContractSpec(60, k, strikes[0], 1.0, 0.0, 0.02), p, 0.0,
                                grid).price for k in strikes]
        puts = [price_strangle(ContractSpec(60, far_call, k, 0.0, 1.0, 0.02), p, 0.0, grid).price
                for k in strikes]
        assert np.all(np.diff(calls) <= 1e-8)
        assert np.all(np.diff(puts) >= -1e-8)

    def test_straddle_matches_monte_carlo_absolute_moment(self, toronto_like_model):
        """r=0, d1=d2=1, K1=K2=K prices E|xi - K|."""
        p = toronto_like_model
        mean, _ = cat_cumulants(p, 0.0, 30)
        k = mean + 20.0
        c = ContractSpec(horizon_T=30, k1_strike=k, k2_strike=k, d1=1.0, d2=1.0, rate_r=0.0)
        grid = auto_grid(p, 0.0, 30)
        cos_price = price_strangle(c, p, 0.0, grid).price
        mc, se = mc_price_cat(c, p, 0.0, SimConfig(step=1.0, n_paths=40_000, seed=77))
        assert abs(cos_price - mc) < 3 * se

    def test_negative_strikes_match_monte_carlo(self, toronto_like_model):
        """A cold month: this model's Q CAT mean is -53.7 at T = 20 (sd 84), so a strangle
        around it has both strikes below 0."""
        p = toronto_like_model
        c = ContractSpec(horizon_T=20, k1_strike=-10.0, k2_strike=-100.0, d1=1.0, d2=1.0,
                         rate_r=0.02)
        theta = solve_theta(p, c.rate_r, 20.0).theta
        cos_price = price_strangle(c, p, theta, auto_grid(p, theta, 20)).price
        mc, se = mc_price_cat(c, p, theta, SimConfig(step=1.0, n_paths=40_000, seed=20))
        assert abs(cos_price - mc) < 5 * se

    def test_spectral_convergence(self, toronto_like_model, contract):
        p = toronto_like_model
        theta = solve_theta(p, contract.rate_r, 60.0).theta
        g256 = auto_grid(p, theta, 60, n=256)
        g512 = auto_grid(p, theta, 60, n=512)
        p256 = price_strangle(contract, p, theta, g256).price
        p512 = price_strangle(contract, p, theta, g512).price
        assert abs(p512 - p256) / abs(p256) < 1e-6

    def test_half_term_quote_is_the_half_grid_price(self, toronto_like_model, contract):
        """One charfun evaluation gives the price and the n // 2-term check."""
        p = toronto_like_model
        theta = solve_theta(p, contract.rate_r, 60.0).theta
        grid = auto_grid(p, theta, 60)
        quote = price_strangle(contract, p, theta, grid)
        half = price_strangle(contract, p, theta, CosGrid(grid.b1, grid.b2, 128, 128))
        assert quote.price_half_terms == half.price
        assert quote.relative_change == abs(quote.price - half.price) / abs(quote.price)

    def test_under_resolved_expansion_warns(self, toronto_like_model, contract):
        p = toronto_like_model
        grid = auto_grid(p, 0.0, 60, n=12)  # far too few terms
        with pytest.warns(PricingWarning, match="under-resolved"):
            price_strangle(contract, p, 0.0, grid)

    def test_interval_widening_stable(self, toronto_like_model, contract):
        p = toronto_like_model
        theta = solve_theta(p, contract.rate_r, 60.0).theta
        p10 = price_strangle(contract, p, theta, auto_grid(p, theta, 60, l_mult=10.0)).price
        p12 = price_strangle(contract, p, theta, auto_grid(p, theta, 60, l_mult=12.0)).price
        assert abs(p12 - p10) / abs(p10) < 1e-6


# at the shortest horizons the legs are under-resolved on 10 sd, and price_strangle says so
@pytest.mark.filterwarnings("ignore::tempderiv.PricingWarning")
class TestLiveTerms:
    """price_strangle and density_from_charfun sum the coefficients only up to the last
    one whose |phi| reaches PHI_FLOOR; every price and density value equals the one
    summed over all max(n1, n2) + 1 coefficients (tests/helpers)."""

    @staticmethod
    def check(p, theta, horizon_T, grids):
        mean, var = cat_cumulants(p, theta, horizon_T)
        b1, b2 = truncation_bounds(mean, var, 10.0)
        sd = np.sqrt(var)
        contract = ContractSpec(horizon_T, mean + 0.5 * sd, mean - 0.5 * sd, 1.0, 1.0, 0.02)
        quotes = []
        for n1, n2 in grids:
            grid = CosGrid(b1, b2, n1, n2)
            quote = price_strangle(contract, p, theta, grid)
            assert (quote.price, quote.price_half_terms) == full_strangle(contract, p, theta,
                                                                          grid)
            quotes.append(quote)
        x = np.linspace(b1, b2, 257)
        grid = CosGrid(b1, b2)
        cut = lambda u: charfun_cat(u, p, theta, horizon_T)
        full = lambda u: full_charfun_cat(u, p, theta, horizon_T)
        assert np.array_equal(density_from_charfun(cut, grid, x, 256),
                              full_density(full, grid, x, 256))
        return quotes

    @pytest.mark.parametrize("horizon_T", [1, 2, 5, 10, 30, 90, 365, 730])
    def test_readme_model_equals_full_evaluation(self, horizon_T):
        p = README_MODEL
        theta = solve_theta(p, 0.02, float(horizon_T)).theta
        grids = [(256, 256), (256, 160), (96, 256)]
        quotes = self.check(p, theta, horizon_T, grids)
        for quote, (n1, n2) in zip(quotes, grids):
            if horizon_T <= 10:  # |phi| stays above the floor: every coefficient is live
                assert quote.live_terms == max(n1, n2) + 1
            else:
                assert 1 < quote.live_terms < 257
                assert quote.live_terms == min(quotes[0].live_terms, max(n1, n2) + 1)

    def test_random_models_equal_full_evaluation(self):
        """On the draws as they are, where a cold model's CAT index and strikes are
        negative, and with temperatures raised by 60, where both strikes are positive: the
        shift moves the phase of phi, not |phi|, on which the cut rests."""
        cold = 0
        for shift in (0.0, 60.0):
            for seed in range(40):
                p = random_model(np.random.default_rng(seed))
                p = replace(p, t0=p.t0 + shift,
                            seasonal=replace(p.seasonal, k0=p.seasonal.k0 + shift))
                horizon_T = (1, 5, 30, 90, 365, 730)[seed % 6]
                theta = solve_theta(p, 0.02, float(horizon_T)).theta
                cold += cat_cumulants(p, theta, horizon_T)[0] < 0.0
                self.check(p, theta, horizon_T, [(256, 256), (256, 160)])
        assert cold > 0


class TestContractSpec:
    def test_rejects_crossed_strikes(self):
        with pytest.raises(DomainError):
            ContractSpec(horizon_T=30, k1_strike=10.0, k2_strike=20.0, d1=1, d2=1, rate_r=0.0)

    def test_straddle_allowed(self):
        ContractSpec(horizon_T=30, k1_strike=10.0, k2_strike=10.0, d1=1, d2=1, rate_r=0.0)

    def test_rejects_negative_tick(self):
        with pytest.raises(DomainError):
            ContractSpec(horizon_T=30, k1_strike=20.0, k2_strike=10.0, d1=-1, d2=1, rate_r=0.0)
