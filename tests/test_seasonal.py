import numpy as np
import pytest

from tempderiv import DomainError, FourCoeffs, eval_seasonal, k1, k2
from tempderiv.seasonal import require_positive

from helpers import QuadratureError, quad_exp_kernel


class TestEvalSeasonal:
    def test_constant(self):
        assert eval_seasonal(FourCoeffs(1, 0, 0, 0), 17.0) == 1.0

    def test_t_zero_is_k0_plus_k3(self):
        c = FourCoeffs(2.5, 0.3, -1.2, 4.1)
        assert eval_seasonal(c, 0.0) == pytest.approx(2.5 + 4.1, abs=1e-14)

    def test_table_style_estimates_at_zero(self):
        # direct substitution of a fitted coefficient set at t = 0
        c = FourCoeffs(7.9733, 0.0008223, -5.8796, -12.866)
        assert eval_seasonal(c, 0.0) == pytest.approx(-4.8927, abs=1e-10)

    def test_periodic_when_no_trend(self):
        c = FourCoeffs(3.0, 0.0, 2.0, -1.5)
        t = np.linspace(0, 730, 97)
        assert np.max(np.abs(eval_seasonal(c, t) - eval_seasonal(c, t + 365.0))) < 1e-12

    def test_vectorized(self):
        c = FourCoeffs(1.0, 0.1, 0.5, 0.2)
        t = np.array([0.0, 10.0, 100.0])
        vals = eval_seasonal(c, t)
        assert vals.shape == (3,)
        assert vals[1] == pytest.approx(eval_seasonal(c, 10.0))


class TestQuadExpKernel:
    def test_zero_function(self):
        assert quad_exp_kernel(lambda u: 0.0 * u, 0.5, 20.0, "decaying") == 0.0

    def test_constant_decaying_analytic(self):
        alpha, t = 0.7, 12.0
        got = quad_exp_kernel(lambda u: np.ones_like(u), alpha, t, "decaying")
        assert got == pytest.approx((1 - np.exp(-alpha * t)) / alpha, rel=1e-12)

    def test_linear_growing_by_parts(self):
        # int_0^1 u e^u du = 1
        got = quad_exp_kernel(lambda u: u, 1.0, 1.0, "growing")
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_orientation(self):
        with pytest.raises(DomainError):
            quad_exp_kernel(lambda u: u, 1.0, 1.0, "sideways")

    def test_nonconvergence_reported(self):
        # non-integrable pole inside the interval: refinement cannot converge
        with pytest.raises(QuadratureError):
            quad_exp_kernel(lambda u: 1.0 / (u - 0.537) ** 2, 1.0, 1.0, "decaying")


class TestK1:
    def test_empty_integral(self):
        assert k1(0.0, 0.3, FourCoeffs(1, 2, 3, 4)) == pytest.approx(0.0, abs=1e-14)

    def test_constant_coeffs_analytic(self):
        beta0, alpha, t = 4.2, 0.31, 55.0
        got = k1(t, alpha, FourCoeffs(beta0, 0, 0, 0))
        assert got == pytest.approx(beta0 * (1 - np.exp(-alpha * t)) / alpha, rel=1e-13)

    def test_against_quadrature_spot(self):
        c = FourCoeffs(1, 1, 1, 1)
        got = k1(30.0, 0.2, c)
        oracle = quad_exp_kernel(lambda u: eval_seasonal(c, u), 0.2, 30.0, "decaying")
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got == pytest.approx(136.64448275623494, rel=1e-12)  # frozen oracle value

    @pytest.mark.parametrize("alpha", [1e-3, 1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("t", [1.0, 30.0, 365.0])
    def test_small_alpha_against_quadrature(self, alpha, t):
        c = FourCoeffs(1.0, 0.5, 0.3, -0.2)
        oracle = quad_exp_kernel(lambda u: eval_seasonal(c, u), alpha, t, "decaying")
        assert k1(t, alpha, c) == pytest.approx(oracle, rel=1e-10)
        assert k1(np.array([t]), alpha, c)[0] == pytest.approx(oracle, rel=1e-10)
        growing = quad_exp_kernel(lambda u: eval_seasonal(c, u), alpha, t, "growing")
        assert k2(t, alpha, c) == pytest.approx(growing, rel=1e-10)
        assert k2(np.array([t]), alpha, c)[0] == pytest.approx(growing, rel=1e-10)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            k1(1.0, 0.0, FourCoeffs(1, 0, 0, 0))
        with pytest.raises(DomainError):
            k1(1.0, -0.5, FourCoeffs(1, 0, 0, 0))

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            u = FourCoeffs(*rng.uniform(-4, 4, 4))
            v = FourCoeffs(*rng.uniform(-4, 4, 4))
            alpha = rng.uniform(0.01, 2.0)
            t = rng.uniform(0.0, 730.0)
            u_plus_v = FourCoeffs(*(u.as_array() + v.as_array()))
            assert k1(t, alpha, u_plus_v) == pytest.approx(
                k1(t, alpha, u) + k1(t, alpha, v), abs=1e-12 * (1 + abs(k1(t, alpha, u))))


class TestK2:
    def test_empty_integral(self):
        assert k2(0.0, 0.4, FourCoeffs(1, 0, 0, 0)) == pytest.approx(0.0, abs=1e-14)

    def test_constant_coeffs_analytic(self):
        c0, alpha, t = 2.0, 0.17, 90.0
        got = k2(t, alpha, FourCoeffs(c0, 0, 0, 0))
        assert got == pytest.approx(c0 * (np.exp(alpha * t) - 1) / alpha, rel=1e-13)

    def test_against_quadrature_spot(self):
        vol = FourCoeffs(2.0, 0.001, 0.5, 0.5)
        got = k2(60.0, 0.25, vol)
        oracle = quad_exp_kernel(lambda u: eval_seasonal(vol, u), 0.25, 60.0, "growing")
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got == pytest.approx(35961823.105761304, rel=1e-12)  # frozen oracle value

    def test_rejects_nonpositive_vol(self):
        # negative at t = 0 already (k0 + k3 = -0.5)
        with pytest.raises(DomainError):
            k2(30.0, 0.2, FourCoeffs(0.5, 0, 0, -1.0))
        # positive at the start, dips negative mid-year
        with pytest.raises(DomainError):
            k2(365.0, 0.2, FourCoeffs(0.1, 0, 0.5, 0.5))

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            k2(1.0, -1.0, FourCoeffs(1, 0, 0, 0))


class TestKernelCertification:
    """k1 / k2 against adaptive quadrature on random draws (module invariant)."""

    def test_k1_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            c = FourCoeffs(*rng.uniform(-5, 5, 4))
            alpha = rng.uniform(0.01, 2.0)
            t = rng.uniform(0.0, 730.0)
            oracle = quad_exp_kernel(lambda u: eval_seasonal(c, u), alpha, t, "decaying")
            assert k1(t, alpha, c) == pytest.approx(oracle, rel=1e-10, abs=1e-10)

    def test_k2_random_draws(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            c = FourCoeffs(rng.uniform(0.5, 5.0), rng.uniform(0, 1e-3),
                           rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
            alpha = rng.uniform(0.01, 2.0)
            # alpha * t capped: beyond ~709 the value exceeds the float64 range
            t = rng.uniform(0.0, min(730.0, 600.0 / alpha))
            oracle = quad_exp_kernel(lambda u: eval_seasonal(c, u), alpha, t, "growing")
            assert k2(t, alpha, c) == pytest.approx(oracle, rel=1e-10, abs=1e-10)


class TestRequirePositive:
    def test_accepts_positive(self):
        require_positive(FourCoeffs(2.0, 0.0, 0.5, 0.5), 730.0)

    def test_rejects_dipping_negative(self):
        with pytest.raises(DomainError):
            require_positive(FourCoeffs(0.5, 0.0, 0.0, -1.0), 365.0)

    def test_fractional_horizon_checked_up_to_its_endpoint(self):
        """sigma(t) = 3.8 - t is 0.3 at t = 3.5 and negative from t = 3.8 on: positive on
        [0, 3.5], negative on [0, 4], so the grid ends at the horizon, not the next day."""
        vol = FourCoeffs(3.8, -1.0, 0.0, 0.0)
        require_positive(vol, 3.5)
        with pytest.raises(DomainError, match=r"sigma\(4.0\)"):
            require_positive(vol, 4.0)
        with pytest.raises(DomainError, match=r"sigma\(3.9\)"):
            require_positive(vol, 3.9)

    def test_negative_coefficients_allowed_if_positive_overall(self):
        # coefficient sign is neither necessary nor sufficient; the function matters
        require_positive(FourCoeffs(5.0, 0.0, -1.0, -1.0), 730.0)
