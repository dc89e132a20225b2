import numpy as np
import pytest
from scipy.integrate import quad, quad_vec

from tempderiv import (DomainError, FourCoeffs, GammaTimeChange, ModelParams,
                       a1, cat_cumulants, charfun_T, charfun_cat, SimConfig,
                       simulate_cat, simulate_paths, solve_theta, truncation_bounds)
from tempderiv.charfun import (PANEL_CAP, PANEL_POINTS, PHI_FLOOR, UNIT_NODES, UNIT_WEIGHTS,
                               _cat_parts, _panel_rule, _panels, esscher_interval,
                               tilted_exponent_sum, transformed_timechange)
from tempderiv.seasonal import eval_seasonal, k1

from conftest import random_model
from helpers import (cumulant_V, day_kernel, empirical_charfun, full_charfun_cat,
                     laplace_exponent_gamma, node_stack_exponent_sum)


def deterministic_model(base: ModelParams) -> ModelParams:
    return ModelParams(alpha=base.alpha, t0=base.t0, seasonal=base.seasonal,
                       vol=FourCoeffs(0, 0, 0, 0), timechange=base.timechange)


class TestLaplaceExponentGamma:
    """The oracle `helpers.laplace_exponent_gamma` at closed values and at its branch cut."""

    def test_zero(self):
        tc = GammaTimeChange(2.0, 3.0, 0.1)
        assert laplace_exponent_gamma(0.0, tc) == 0.0

    def test_direct_value(self):
        tc = GammaTimeChange(1.0, 2.0, 0.0)
        assert laplace_exponent_gamma(1.0, tc) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_derivative_at_zero_is_mean_rate(self):
        # E[R_1] = a/b
        tc = GammaTimeChange(2.5, 4.0, 0.0)
        h = 1e-6
        fd = (laplace_exponent_gamma(h, tc) - laplace_exponent_gamma(-h, tc)) / (2 * h)
        assert fd.real == pytest.approx(tc.a / tc.b, abs=1e-6)

    def test_branch_cut_rejected(self):
        tc = GammaTimeChange(1.0, 2.0, 0.0)
        with pytest.raises(DomainError):
            laplace_exponent_gamma(2.0, tc)  # u = b: argument 0
        with pytest.raises(DomainError):
            laplace_exponent_gamma(5.0, tc)  # u > b: negative real axis


class TestA1:
    def test_zero(self):
        assert a1(0.0, GammaTimeChange(1, 2, 0.3)) == 1.0

    def test_substitution(self):
        assert a1(1.0, GammaTimeChange(1, 2, 0.0)) == pytest.approx(0.75)

    def test_odd_part(self):
        tc = GammaTimeChange(1.0, 1.7, 0.4)
        for u in (0.3, 1.1, 2.0):
            assert a1(u, tc) - a1(-u, tc) == pytest.approx(-2 * tc.mu1 * u / tc.b, rel=1e-12)


class TestCumulantV:
    """The oracle `helpers.cumulant_V`; its tilt is the library's `transformed_timechange`,
    which `test_tilt_telescopes` holds to the definition l_V(u + theta) - l_V(theta)."""

    def test_zero_any_theta(self):
        tc = GammaTimeChange(1.5, 1.0, 0.3)
        for theta in (0.0, 0.4, -0.6):
            assert cumulant_V(0.0, tc, theta) == 0.0

    def test_theta_zero_composition(self):
        tc = GammaTimeChange(1.5, 2.0, 0.3)
        for u in (0.2, 0.9, 0.4 + 0.1j):
            direct = cumulant_V(u, tc, 0.0)
            w = tc.mu1 * u + 0.5 * u * u
            composed = -tc.a * np.log(1 - w / tc.b)
            assert direct == pytest.approx(composed, rel=1e-12)

    def test_brownian_degenerate_limit(self):
        tc = GammaTimeChange(1e6, 1e6, 0.3)
        got = cumulant_V(0.5, tc, 0.0)
        assert got.real == pytest.approx(0.3 * 0.5 + 0.5 * 0.25, abs=1e-5)

    def test_tilt_telescopes(self):
        tc = GammaTimeChange(1.5, 1.0, 0.3)
        theta = 0.35
        for u in (0.2, -0.4, 0.3 + 0.2j):
            lhs = cumulant_V(u, tc, theta)
            rhs = cumulant_V(u + theta, tc, 0.0) - cumulant_V(theta, tc, 0.0)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_inadmissible_theta_rejected(self):
        tc = GammaTimeChange(1.0, 0.5, 0.0)  # admissible |theta| < 1
        with pytest.raises(DomainError):
            cumulant_V(0.1, tc, 1.5)


def quad_vec_cat(u, p: ModelParams, theta: float, horizon_T: int):
    """Oracle CAT charfun: quad_vec on every day piece of the kernel integral at once."""
    j = np.arange(1, horizon_T + 1, dtype=float)
    weight = (1.0 - np.exp(-p.alpha * (horizon_T - j + 1.0))) / (1.0 - np.exp(-p.alpha))

    def f(x):
        s = j - 1.0 + x
        kern = eval_seasonal(p.vol, s) * np.exp(-p.alpha * (j - s)) * weight
        return cumulant_V(1j * np.multiply.outer(kern, u), p.timechange, theta)

    pieces, _ = quad_vec(f, 0.0, 1.0, epsabs=1e-13, epsrel=0.0)
    det = np.sum(p.det_mean(j))
    return np.exp(1j * u * det + pieces.sum(axis=0))


def quad_vec_T(u, t: float, p: ModelParams, theta: float):
    """Oracle for charfun_T: quad_vec on [0, t] with breakpoints at whole days."""
    def f(s):
        kern = eval_seasonal(p.vol, s) * np.exp(-p.alpha * (t - s))
        return cumulant_V(1j * kern * u, p.timechange, theta)

    integral, _ = quad_vec(f, 0.0, t, epsabs=1e-13, epsrel=0.0,
                           points=np.arange(1.0, np.ceil(t)))
    return np.exp(1j * u * p.det_mean(t) + integral)


class TestKernelRule:
    def test_unit_rule_exact_to_degree_15(self):
        for k in range(16):
            assert UNIT_WEIGHTS @ UNIT_NODES**k == pytest.approx(1.0 / (k + 1), abs=1e-15)

    def test_charfun_T_against_quad_vec(self, toronto_like_model):
        u = np.array([0.05, 0.2, 0.5, 1.0, 2.0])
        for t, theta in ((1.0, 0.0), (12.5, 0.3), (40.0, -0.4)):
            got = charfun_T(u, t, toronto_like_model, theta)
            assert np.max(np.abs(got - quad_vec_T(u, t, toronto_like_model, theta))) < 1e-12

    @pytest.mark.parametrize("horizon_T", [30, 365])
    def test_charfun_cat_against_quad_vec_at_cos_frequencies(self, toronto_like_model,
                                                              horizon_T):
        p = toronto_like_model
        theta = solve_theta(p, 0.02, float(horizon_T)).theta
        mean, var = cat_cumulants(p, theta, horizon_T)
        b1, b2 = truncation_bounds(mean, var, 10.0)
        u = np.arange(257) * np.pi / (b2 - b1)
        got = charfun_cat(u, p, theta, horizon_T)
        assert np.max(np.abs(got - quad_vec_cat(u, p, theta, horizon_T))) <= 1e-13


def log_argument_oracle(kern, u, tc: GammaTimeChange):
    """-a sum_n w_n Log(1 + q - ip) in complex arithmetic on one (..., node, u) array."""
    uk = np.multiply.outer(kern, u)
    return -tc.a * (UNIT_WEIGHTS @ np.log(1.0 + uk * uk / (2.0 * tc.b) - 1j * uk * tc.mu1 / tc.b))


def kernel_cases():
    """(kern, u, tc): random_model CAT kernels, mu1 of both signs and 0, tilts at the interval
    ends and inside, negative u and |u k| from 1e-4 to 1e3."""
    for seed in range(6):
        p = random_model(np.random.default_rng(seed))
        kern = day_kernel(p, 30)
        mag = np.logspace(-4.0, 3.0, 29) / kern.max()
        u = np.concatenate([-mag[::-1], mag])
        for mu1 in (p.timechange.mu1, 0.0, -abs(p.timechange.mu1) - 0.1):
            tc = GammaTimeChange(p.timechange.a, p.timechange.b, mu1)
            lo, hi = esscher_interval(tc)
            for theta in (0.0, lo + 5e-4, 0.5 * (lo + hi), hi - 5e-4):
                yield kern, u, transformed_timechange(tc, theta)


class TestTiltedExponentSum:
    def test_one_array_layout_against_complex_log(self):
        """Each day's exponent on its own (kern[None], one unit weight) against complex Log."""
        for kern, u, tc in kernel_cases():
            np.testing.assert_allclose(tilted_exponent_sum(kern[None], u, tc, pieces=np.ones(1)),
                                       log_argument_oracle(kern, u, tc),
                                       rtol=1e-13, atol=1e-15 * tc.a)

    def test_node_loop_layout_against_complex_log(self):
        for kern, u, tc in kernel_cases():
            lengths = np.linspace(0.2, 1.0, len(kern))
            np.testing.assert_allclose(tilted_exponent_sum(kern, u, tc, pieces=lengths),
                                       lengths @ log_argument_oracle(kern, u, tc),
                                       rtol=1e-13, atol=1e-15 * tc.a * lengths.sum())

    def test_piece_sum_equals_reduced_one_array_form(self):
        for kern, u, tc in kernel_cases():
            lengths = np.linspace(0.2, 1.0, len(kern))
            days = tilted_exponent_sum(kern[None], u, tc, pieces=np.ones(1))
            np.testing.assert_allclose(tilted_exponent_sum(kern, u, tc, pieces=lengths),
                                       lengths @ days, rtol=1e-14)

    def test_shapes(self, toronto_like_model):
        kern = day_kernel(toronto_like_model, 5)
        tc = toronto_like_model.timechange
        u = np.array([[0.1, -0.2, 0.3], [0.4, 0.5, -0.6]])
        stacked = np.stack([kern, 2.0 * kern])  # (2, pieces, node)
        one = np.ones(1)
        assert tilted_exponent_sum(kern[None], u, tc, pieces=one).shape == (5, 2, 3)
        assert tilted_exponent_sum(kern, u, tc, pieces=np.ones(5)).shape == (2, 3)
        assert tilted_exponent_sum(kern, 0.3, tc, pieces=np.ones(5)).shape == ()
        assert tilted_exponent_sum(stacked[None], u, tc, pieces=one).shape == (2, 5, 2, 3)
        assert tilted_exponent_sum(stacked, u, tc, pieces=np.ones(2)).shape == (5, 2, 3)
        np.testing.assert_allclose(tilted_exponent_sum(stacked, u, tc, pieces=np.ones(2)),
                                   tilted_exponent_sum(stacked[None], u, tc, pieces=one)
                                   .sum(axis=0), rtol=1e-14)
        assert np.all(tilted_exponent_sum(kern[:0], u, tc, pieces=np.ones(0)) == 0.0)

    @pytest.mark.parametrize("horizon_T", [1, 31, 48, 365, 730])
    def test_node_factors_built_once_equal_node_by_node(self, horizon_T):
        """Factors built for all nodes at once give every value of the node-by-node
        stacks bit for bit: the CAT rows with their panel weights, and each row on its
        own (kern[None], one unit weight), as `innovation_charfun` calls it."""
        for seed in range(6):
            p = random_model(np.random.default_rng(seed))
            lo, hi = esscher_interval(p.timechange)
            theta = lo + (0.2 + 0.1 * seed) * (hi - lo)
            tc = transformed_timechange(p.timechange, theta)
            b1, b2 = truncation_bounds(*cat_cumulants(p, theta, horizon_T), 10.0)
            u = np.arange(257) * np.pi / (b2 - b1)
            _, kern, weights = _cat_parts(p, horizon_T)
            for layout, pieces in ((kern, weights), (kern[None], np.ones(1))):
                assert np.array_equal(tilted_exponent_sum(layout, u, tc, pieces),
                                      node_stack_exponent_sum(layout, u, tc, pieces))

    @pytest.mark.parametrize("t", [0.4, 7.3, 29.9])
    def test_charfun_T_partial_last_piece(self, t):
        """A non-integer t ends on a partial piece, weighted by its length."""
        u = np.array([0.05, 0.3, 1.0, 2.5])
        for seed in range(3):
            p = random_model(np.random.default_rng(seed))
            lo, hi = esscher_interval(p.timechange)
            theta = lo + 0.3 * (hi - lo)
            assert np.max(np.abs(charfun_T(u, t, p, theta) - quad_vec_T(u, t, p, theta))) < 1e-12


class TestCharfunT:
    def test_normalization(self, toronto_like_model):
        assert charfun_T(0.0, 30.0, toronto_like_model) == 1.0 + 0.0j

    def test_deterministic_degenerate(self, toronto_like_model):
        p = deterministic_model(toronto_like_model)
        for u in (0.3, 1.0):
            expected = np.exp(1j * u * p.det_mean(12.0))
            assert charfun_T(u, 12.0, p) == pytest.approx(expected, abs=1e-12)

    def test_conjugate_symmetry(self, toronto_like_model):
        u = np.linspace(-2, 2, 21)
        vals = charfun_T(u, 40.0, toronto_like_model)
        assert np.max(np.abs(vals[::-1] - np.conj(vals))) < 1e-12

    def test_modulus_bounded(self, toronto_like_model):
        u = np.linspace(-2, 2, 41)
        for theta in (0.0, -0.3):
            vals = charfun_T(u, 60.0, toronto_like_model, theta)
            assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_gaussian_limit_oracle(self, gaussian_limit_model):
        """a = b = 1e6: compare with the closed-form Gaussian mean-reverting charfun."""
        p = gaussian_limit_model
        t = 30.0
        mu1 = p.timechange.mu1
        mean_shift = quad(lambda s: eval_seasonal(p.vol, s) * np.exp(-p.alpha * (t - s)),
                          0, t, epsabs=1e-12)[0]
        var = quad(lambda s: eval_seasonal(p.vol, s) ** 2 * np.exp(-2 * p.alpha * (t - s)),
                   0, t, epsabs=1e-12)[0]
        m = p.det_mean(t) + mu1 * mean_shift
        for u in np.linspace(-1, 1, 9):
            target = np.exp(1j * u * m - 0.5 * u * u * var)
            assert charfun_T(u, t, p) == pytest.approx(target, abs=1e-4)

    def test_against_simulation(self, toronto_like_model):
        p = toronto_like_model
        cfg = SimConfig(step=1.0, n_paths=30_000, seed=909)
        _, paths = simulate_paths(p, cfg, 30.0)
        terminal = paths[:, -1]
        for u in (0.05, 0.1, 0.2):
            emp = empirical_charfun(terminal, u)
            se = np.sqrt((1 - abs(emp) ** 2) / terminal.size)
            assert abs(charfun_T(u, 30.0, p) - emp) < 3 * se


class TestCharfunCat:
    def test_normalization(self, toronto_like_model):
        assert charfun_cat(0.0, toronto_like_model, 0.0, 30) == 1.0 + 0.0j

    def test_deterministic_degenerate(self, toronto_like_model):
        p = deterministic_model(toronto_like_model)
        det = sum(p.det_mean(k) for k in range(1, 31))
        for u in (0.01, 0.05):
            got = charfun_cat(u, p, 0.0, 30)
            assert got == pytest.approx(np.exp(1j * u * det), abs=1e-12)

    def test_single_day_equals_charfun_T(self, toronto_like_model):
        p = toronto_like_model
        for u in (0.1, 0.6, 1.4):
            assert charfun_cat(u, p, 0.0, 1) == pytest.approx(
                charfun_T(u, 1.0, p), abs=1e-10)

    def test_conjugate_symmetry_and_bound(self, toronto_like_model):
        u = np.linspace(-0.05, 0.05, 11)
        vals = charfun_cat(u, toronto_like_model, 0.0, 45)
        assert np.max(np.abs(vals[::-1] - np.conj(vals))) < 1e-12
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_against_simulation(self, toronto_like_model):
        p = toronto_like_model
        xi, _ = simulate_cat(p, SimConfig(step=1.0, n_paths=30_000, seed=17), 60)
        for u in (0.001, 0.005):
            emp = empirical_charfun(xi, u)
            se = np.sqrt((1 - abs(emp) ** 2) / xi.size)
            assert abs(charfun_cat(u, p, 0.0, 60) - emp) < 3 * se

    def test_rejects_bad_args(self, toronto_like_model):
        with pytest.raises(DomainError):
            charfun_cat(0.1, toronto_like_model, 0.0, 0)


def assert_floored(got, full):
    """got is 0 exactly where |full| < PHI_FLOOR and equals full elsewhere to 1e-13 of
    it: a last-bit change in an exponent as large as |log PHI_FLOOR| = 60 moves phi by
    about 60 eps relative, and the matrix products may round a column differently in a
    call with fewer columns."""
    live = np.abs(full) >= PHI_FLOOR
    assert np.array_equal(got != 0.0, live)
    assert np.all(np.abs(got - full)[live] <= 1e-13 * np.abs(full[live]))


class TestFloor:
    """charfun_cat returns 0 where |phi| < PHI_FLOOR and forms the complex exponent at
    the other frequencies only.  It finds them on a coarse pass over the modulus, which
    is sound because |phi| does not increase with |u|."""

    @pytest.mark.parametrize("horizon_T", [1, 5, 30, 90, 365, 730])
    def test_modulus_does_not_increase_with_u(self, horizon_T):
        """Random models, tilts 0.05 % of the admissible interval inside its ends and 0,
        on the ascending COS grid of each."""
        for seed in range(6):
            p = random_model(np.random.default_rng(seed))
            lo, hi = esscher_interval(p.timechange)
            for theta in (lo + 5e-4 * (hi - lo), 0.0, hi - 5e-4 * (hi - lo)):
                mean, var = cat_cumulants(p, theta, horizon_T)
                b1, b2 = truncation_bounds(mean, var, 10.0)
                u = np.arange(257) * np.pi / (b2 - b1)
                modulus = np.abs(charfun_cat(u, p, theta, horizon_T))
                assert np.all(np.diff(modulus) <= 0.0)

    @pytest.mark.parametrize("horizon_T", [5, 30, 365])
    def test_floor_zeroes_exactly_the_values_below_it(self, horizon_T):
        """The values at every frequency with those below the floor set to 0, in
        ascending order, in another order and at negative u, and at a scalar u."""
        rng = np.random.default_rng(horizon_T)
        for seed in range(6):
            p = random_model(np.random.default_rng(seed))
            theta = solve_theta(p, 0.02, float(horizon_T)).theta
            mean, var = cat_cumulants(p, theta, horizon_T)
            b1, b2 = truncation_bounds(mean, var, 10.0)
            u = np.arange(257) * np.pi / (b2 - b1)
            full = full_charfun_cat(u, p, theta, horizon_T)
            assert_floored(charfun_cat(u, p, theta, horizon_T), full)
            perm = rng.permutation(u.size)
            assert_floored(charfun_cat(-u[perm], p, theta, horizon_T), np.conj(full[perm]))
            assert_floored(np.array([charfun_cat(u[-1], p, theta, horizon_T)]), full[-1:])
            assert_floored(np.array([charfun_cat(u[1], p, theta, horizon_T)]), full[1:2])

    def test_nan_frequency_propagates(self, toronto_like_model):
        """A NaN u gives NaN, on the coarse pass or off it, and the other values are
        those of the call without it."""
        p = toronto_like_model
        mean, var = cat_cumulants(p, 0.0, 30)
        b1, b2 = truncation_bounds(mean, var, 10.0)
        u = np.arange(257) * np.pi / (b2 - b1)
        want = charfun_cat(u, p, 0.0, 30)
        assert np.count_nonzero(want == 0.0) > 100  # the cut fires on this grid
        for at in (0, 3, 8, 200):
            with_nan = u.copy()
            with_nan[at] = np.nan
            got = charfun_cat(with_nan, p, 0.0, 30)
            assert np.isnan(got[at])
            keep = np.arange(u.size) != at
            assert_floored(got[keep], full_charfun_cat(u, p, 0.0, 30)[keep])
            assert np.array_equal(got[keep] == 0.0, want[keep] == 0.0)
        assert np.isnan(charfun_cat(np.nan, p, 0.0, 30))


# the longest panel whose PANEL_POINTS-point Chebyshev rule has a negative weight
DAY_BY_DAY = 24


class TestCatPanels:
    """charfun_cat sums the day pieces on panels graded back from T (`_panels`,
    `_panel_rule`); these tests hold the panels to the day-by-day sum."""

    @pytest.mark.parametrize("horizon_T", [1, 16, 31, 32, 33, 48, 56, 64, 95, 365, 730])
    def test_exponent_against_day_by_day_sum(self, horizon_T):
        for seed in range(8):
            p = random_model(np.random.default_rng(seed))
            lo, hi = esscher_interval(p.timechange)
            for theta in (lo + 1e-3, hi - 1e-3):
                tc = transformed_timechange(p.timechange, theta)
                mean, var = cat_cumulants(p, theta, horizon_T)
                b1, b2 = truncation_bounds(mean, var, 10.0)
                u = np.arange(257) * np.pi / (b2 - b1)
                det_sum, kern, weights = _cat_parts(p, horizon_T)
                days = tilted_exponent_sum(day_kernel(p, horizon_T)[None], u, tc,
                                           pieces=np.ones(1))
                bound = 1e-13 * (1.0 + np.abs(days).sum(axis=0))
                panel_sum = tilted_exponent_sum(kern, u, tc, pieces=weights)
                assert np.all(np.abs(panel_sum - days.sum(axis=0)) <= bound)
                want = np.exp(1j * u * det_sum + days.sum(axis=0))
                want = np.where(np.abs(want) < PHI_FLOOR, 0.0, want)
                got = charfun_cat(u, p, theta, horizon_T)
                assert np.all(np.abs(got - want) <= bound * np.abs(want))

    def test_short_horizons_are_summed_day_by_day(self):
        p = random_model(np.random.default_rng(3))
        for horizon_T in range(1, 32):
            _, kern, weights = _cat_parts(p, horizon_T)
            assert np.array_equal(kern, day_kernel(p, horizon_T))
            assert np.array_equal(weights, np.ones(horizon_T))

    @pytest.mark.parametrize("horizon_T", [1, 31, 32, 33, 48, 56, 95, 151, 365, 730, 1000])
    def test_panel_layout(self, horizon_T):
        panels = _panels(horizon_T)
        starts, sizes = np.array(panels).T
        assert starts[0] == 0 and np.all(starts[1:] == starts[:-1] + sizes[:-1])
        assert starts[-1] + sizes[-1] == horizon_T
        nominal = np.minimum(2 ** np.arange(len(panels)), PANEL_CAP)
        assert np.all(sizes[::-1][:-1] == nominal[:-1]) and 1 <= sizes[0] <= nominal[-1]
        weights = _cat_parts(random_model(np.random.default_rng(0)), horizon_T)[2]
        assert len(weights) == sum(n if n <= DAY_BY_DAY else PANEL_POINTS for n in sizes)
        assert np.all(weights > 0.0)  # so |phi| does not increase with |u| (charfun._live)
        np.testing.assert_allclose(weights.sum(), horizon_T, rtol=1e-14)

    def test_panel_rule_weights_are_positive(self):
        """Every panel size _panels lays out; the Chebyshev rule has a negative weight
        up to DAY_BY_DAY days, so those panels are summed day by day."""
        for n_days in range(1, PANEL_CAP + 1):
            offsets, weights = _panel_rule(n_days)
            assert np.all(weights > 0.0)
            assert len(offsets) == (n_days if n_days <= DAY_BY_DAY else PANEL_POINTS)

    @pytest.mark.parametrize("n_days", [1, 16, 17, 24, 25, 27, 32, 46, 63, 64])
    def test_panel_rule_sums_polynomials_exactly(self, n_days):
        """Exact to rounding for every polynomial of degree < PANEL_POINTS in the day index."""
        offsets, weights = _panel_rule(n_days)
        assert np.all(np.diff(offsets) > 0) and offsets[0] == 0 and offsets[-1] == n_days - 1
        to_unit = lambda t: 2.0 * t / max(n_days - 1, 1) - 1.0
        basis = np.polynomial.chebyshev.chebvander
        want = basis(to_unit(np.arange(n_days)), PANEL_POINTS - 1).sum(axis=0)
        np.testing.assert_allclose(weights @ basis(to_unit(offsets), PANEL_POINTS - 1), want,
                                   rtol=1e-12, atol=1e-12 * n_days)


class TestCatCumulants:
    def test_deterministic(self, toronto_like_model):
        p = deterministic_model(toronto_like_model)
        mean, var = cat_cumulants(p, 0.0, 30)
        det = sum(p.det_mean(k) for k in range(1, 31))
        assert mean == pytest.approx(det, rel=1e-9)
        assert var == pytest.approx(0.0, abs=1e-8)

    def test_zero_drift_brownian_limit_mean(self):
        p = ModelParams(alpha=0.2, t0=1.0, seasonal=FourCoeffs(5.0, 0.0, -3.0, -8.0),
                        vol=FourCoeffs(1.5, 0, 0, 0), timechange=GammaTimeChange(1e6, 1e6, 0.0))
        mean, _ = cat_cumulants(p, 0.0, 45)
        det = sum(p.det_mean(k) for k in range(1, 46))
        assert mean == pytest.approx(det, rel=1e-6)

    def test_against_sample_moments(self, toronto_like_model):
        p = toronto_like_model
        xi, _ = simulate_cat(p, SimConfig(step=1.0, n_paths=40_000, seed=4), 60)
        mean, var = cat_cumulants(p, 0.0, 60)
        se_mean = np.std(xi, ddof=1) / np.sqrt(xi.size)
        se_var = np.var(xi, ddof=1) * np.sqrt(2.0 / xi.size)
        assert abs(mean - np.mean(xi)) < 3 * se_mean
        assert abs(var - np.var(xi, ddof=1)) < 3 * se_var

    @pytest.mark.parametrize("horizon_T", [1, 30, 90, 365])
    def test_closed_form_oracles(self, horizon_T):
        """Mean from k1 per day, variance from QUADPACK per day piece.

        l_V'(theta) = a(mu1+theta)/(b A1) and
        l_V''(theta) = a(A1 + (mu1+theta)^2/b)/(b A1^2), A1 = A1(theta).
        """
        rng = np.random.default_rng(horizon_T)
        for _ in range(4):
            p = random_model(rng)
            tc = p.timechange
            theta = solve_theta(p, rng.uniform(0.0, 0.05),
                                float(horizon_T)).theta
            mean, var = cat_cumulants(p, theta, horizon_T)
            a1_theta = float(a1(theta, tc))
            l_prime = tc.a * (tc.mu1 + theta) / (tc.b * a1_theta)
            l_second = tc.a * (a1_theta + (tc.mu1 + theta) ** 2 / tc.b) / (tc.b * a1_theta**2)
            days = range(1, horizon_T + 1)
            want_mean = (sum(p.det_mean(k) for k in days)
                         + l_prime * sum(k1(k, p.alpha, p.vol) for k in days))
            assert mean == pytest.approx(want_mean, rel=1e-12)

            def g(s):  # sum_{k >= ceil(s)} e^{-alpha(k - s)}, s in (j - 1, j]
                ks = np.arange(max(np.ceil(s), 1.0), horizon_T + 1)
                return np.sum(np.exp(-p.alpha * (ks - s)))
            square = lambda s: (eval_seasonal(p.vol, s) * g(s)) ** 2
            integral = sum(quad(square, j - 1, j, epsabs=0.0, epsrel=1e-13)[0] for j in days)
            assert var == pytest.approx(l_second * integral, rel=1e-12)


class TestRandomModelProperties:
    def test_normalization_and_symmetry_random(self):
        rng = np.random.default_rng(100)
        for _ in range(10):
            p = random_model(rng)
            assert charfun_T(0.0, 20.0, p) == 1.0 + 0.0j
            z = charfun_T(0.7, 20.0, p)
            assert charfun_T(-0.7, 20.0, p) == pytest.approx(np.conj(z), abs=1e-12)
            assert abs(z) <= 1.0 + 1e-12
