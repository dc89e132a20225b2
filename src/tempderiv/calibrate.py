"""Parameter estimation from daily temperature series.

Pipeline: seasonal OLS fit on the linear-plus-annual-harmonic basis, an
autoregression of the deseasonalized series for the mean-reversion rate,
then time-change parameters from the one-day innovations

    eps_j = Y_{j+1} - e^{-alpha} Y_j,   Y = T - s_fit,

whose model law is int_0^1 sigma_s e^{-alpha(1-s)} dV_s.  The primary fit
minimises a weighted distance between centred empirical and model
characteristic functions on a fixed grid (u = 0.05..2.00 step 0.05,
weights e^{-u^2}).  The distance is a sum of squares of real residuals
(the real and imaginary parts of sqrt(weight) * (empirical - model)), so it
is solved as least squares by Levenberg-Marquardt from a method-of-moments
inversion of the V cumulants, with no restarts.  Matching is centred
because deseasonalization absorbs the mu1 E[R] level shift into the fitted
intercept: the innovation mean is not identifiable, while the odd shape
(skewness) still identifies mu1.

The model carries an exact scale degeneracy (sigma, a, b, mu1) ==
(s*sigma, a, s^2 b, s*mu1).  vol_shape='constant' pins sigma = 1 and lets
the time change carry the scale; the seasonal joint refine pins the vol
level c0 at its first-stage value, so only b / c0^2, mu1 / c0 and c_i / c0
(with a) are identified quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfun import (UNIT_NODES, GammaTimeChange, tilted_exponent_sum,
                      transformed_timechange, v_cumulants)
from .cosine import CosGrid, density_from_charfun, truncation_bounds
from .data import DailySeries
from .errors import CalibrationError
from .seasonal import ANNUAL_OMEGA, FourCoeffs, eval_seasonal
from .simulate import empirical_charfun

CF_GRID = np.arange(1, 41) * 0.05          # u = 0.05 .. 2.00
CF_WEIGHTS = np.exp(-CF_GRID**2)
_LIKELIHOOD_FLOOR = 1e-300

SEASONAL_NAMES = ("beta0", "beta1", "beta2", "beta3")


@dataclass(frozen=True)
class FitReport:
    """OLS fit report with autocorrelation-adjusted inference.

    `se` (used for the confidence intervals and t statistics) inflates the
    plain OLS errors by sqrt((1+rho1)/(1-rho1)) with rho1 the residual
    lag-one autocorrelation, the exact long-run correction for AR(1) errors
    against slowly varying regressors; `se_ols` keeps the i.i.d. values.
    """

    names: tuple[str, ...]
    params: np.ndarray
    se: np.ndarray
    se_ols: np.ndarray
    tstats: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    p_values: np.ndarray
    residuals: np.ndarray
    rho1: float
    nobs: int

    def coeffs(self) -> FourCoeffs:
        return FourCoeffs(*map(float, self.params))


@dataclass(frozen=True)
class AlphaFit:
    alpha: float
    rho: float
    rho_se: float
    nobs: int


@dataclass(frozen=True)
class TimeChangeFit:
    a: float
    b: float
    mu1: float
    vol: FourCoeffs
    objective: float
    init: tuple[float, float, float]
    status: tuple[int, ...]                # Levenberg-Marquardt status of each stage

    @property
    def converged(self) -> bool:
        return all(st > 0 for st in self.status)

    def timechange(self) -> GammaTimeChange:
        return GammaTimeChange(self.a, self.b, self.mu1)


def seasonal_design(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, float)
    return np.column_stack([np.ones_like(t), t, np.sin(ANNUAL_OMEGA * t), np.cos(ANNUAL_OMEGA * t)])


def fit_seasonal(series) -> FitReport:
    """OLS of daily values on [1, t, sin(2pi t/365), cos(2pi t/365)]."""
    from scipy import special

    if isinstance(series, DailySeries):
        y, t = series.values, series.day_index()
    else:
        y = np.asarray(series, float)
        t = np.arange(y.size, dtype=float)
    n = y.size
    if n <= 4:
        raise CalibrationError(f"seasonal fit needs more than 4 observations, got {n}")
    x = seasonal_design(t)
    rank = np.linalg.matrix_rank(x)
    if rank < 4:
        raise CalibrationError(f"rank-deficient seasonal design (rank {rank} < 4)")

    beta, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    dof = n - 4
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(x.T @ x)
    se_ols = np.sqrt(np.diag(cov))

    if resid.size > 1 and np.var(resid) > 0:
        rho1 = float(np.corrcoef(resid[:-1], resid[1:])[0, 1])
    else:
        rho1 = 0.0
    rho_c = min(max(rho1, -0.9), 0.999)
    se = se_ols * math.sqrt((1.0 + rho_c) / (1.0 - rho_c))

    tcrit = special.stdtrit(dof, 0.975)  # Student t: stdtrit is the quantile, stdtr the CDF
    tstats = beta / se
    return FitReport(
        names=SEASONAL_NAMES,
        params=beta, se=se, se_ols=se_ols, tstats=tstats,
        ci_low=beta - tcrit * se, ci_high=beta + tcrit * se,
        p_values=2.0 * special.stdtr(dof, -np.abs(tstats)),
        residuals=resid, rho1=rho1, nobs=n,
    )


def fit_alpha(series, seasonal_fit: FitReport) -> AlphaFit:
    """Mean-reversion rate from the lag-one autoregression of the residuals.

    Y_{t+1} = c + rho Y_t + noise; alpha = -log(rho) per day.  Requires
    0 < rho < 1 (no detectable mean reversion otherwise).
    """
    y = seasonal_fit.residuals
    if y.size < 3:
        raise CalibrationError("too few residuals for the autoregression")
    x = np.column_stack([np.ones(y.size - 1), y[:-1]])
    coef, _, _, _ = np.linalg.lstsq(x, y[1:], rcond=None)
    rho = float(coef[1])
    resid = y[1:] - x @ coef
    dof = max(y.size - 3, 1)
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(x.T @ x)
    rho_se = float(np.sqrt(cov[1, 1]))
    if not (0.0 < rho < 1.0):
        raise CalibrationError(
            f"autoregression slope {rho:.6g} outside (0, 1): no mean reversion detectable"
        )
    return AlphaFit(alpha=float(-np.log(rho)), rho=rho, rho_se=rho_se, nobs=y.size - 1)


def innovations(residuals: np.ndarray, alpha: float) -> np.ndarray:
    """One-day innovations eps_j = Y_{j+1} - e^{-alpha} Y_j."""
    y = np.asarray(residuals, float)
    return y[1:] - np.exp(-alpha) * y[:-1]


def kernel_weight(alpha: float, order: int) -> float:
    """int_0^1 e^{-order*alpha*(1-s)} ds = (1 - e^{-order alpha})/(order alpha)."""
    return float((1.0 - np.exp(-order * alpha)) / (order * alpha))


def innovation_charfun(u, a: float, b: float, mu1: float, alpha: float,
                       vol_scale: float | np.ndarray = 1.0, theta: float = 0.0):
    """Charfun of the one-day innovation int_0^1 vol_scale e^{-alpha(1-s)} dV_s.

    The package's 8-node Gauss-Legendre rule on the one unit piece;
    vectorised over u and over an array `vol_scale` (result shape
    vol_scale.shape + u.shape).
    """
    tc = transformed_timechange(GammaTimeChange(a, b, mu1), theta)
    u_arr = np.atleast_1d(np.asarray(u, float))
    kern = np.multiply.outer(vol_scale, np.exp(-alpha * (1.0 - UNIT_NODES)))
    out = np.exp(tilted_exponent_sum(kern, u_arr, tc))
    return out if np.ndim(u) or np.ndim(vol_scale) else complex(out[0])


def _mom_init(eps_centred: np.ndarray, alpha: float) -> tuple[float, float, float]:
    """Method-of-moments seed: invert the V cumulants from sample moments.

    The fixed-point inversion diverges for a near-Gaussian sample; a seed
    off the search box is replaced by the symmetric member (mu1 = 0) with
    the sample's second and fourth cumulants, a = 3 k2^2 / k4, b = a / k2.
    """
    m2 = float(np.mean(eps_centred**2))
    m3 = float(np.mean(eps_centred**3))
    m4 = float(np.mean(eps_centred**4))
    i2, i3, i4 = (kernel_weight(alpha, j) for j in (2, 3, 4))
    k2s = m2 / i2
    k3s = m3 / i3
    k4s = max(m4 - 3.0 * m2 * m2, 1e-4 * m2 * m2) / i4

    x = 0.0
    a = b = 1.0
    mu1 = 0.0
    for _ in range(8):
        b = 3.0 * k2s * (1.0 + 4.0 * x + 2.0 * x * x) / (k4s * (1.0 + x))
        b = min(max(b, 1e-8), 1e12)
        a = max(b * k2s / (1.0 + x), 1e-8)
        mu1 = k3s * b * b / (a * (3.0 + 2.0 * x))
        x = min(mu1 * mu1 / b, 1e3)
    if not _in_box(math.log(a), math.log(b), mu1):
        a = 3.0 * k2s * k2s / k4s
        return a, a / k2s, 0.0
    return a, b, mu1


def _in_box(la: float, lb: float, mu1: float) -> bool:
    """Whether (log a, log b, mu1) lies in the time-change fits' search box."""
    return abs(la) <= 25 and abs(lb) <= 25 and abs(mu1) <= 50


def _cf_residuals(emp_groups: np.ndarray, alpha: float):
    """The fits' residuals(la, lb, mu1, sig) between empirical and model charfuns.

    Row g of `emp_groups` is matched with the centred innovation charfun at
    vol scale sig[g] and (a, b, mu1) = (e^la, e^lb, mu1); the residuals are
    the real and imaginary parts of sqrt(CF_WEIGHTS) * (empirical - model).
    Off the search box or at sig <= 1e-6 they are a constant vector whose
    sum of squares is 1e6.
    """
    mean_weight = kernel_weight(alpha, 1)
    root_weights = np.sqrt(CF_WEIGHTS)
    penalty = np.full(2 * emp_groups.size, math.sqrt(1e6 / (2 * emp_groups.size)))

    def residuals(la: float, lb: float, mu1: float, sig: np.ndarray) -> np.ndarray:
        if not _in_box(la, lb, mu1) or np.any(sig <= 1e-6):
            return penalty
        a, b = math.exp(la), math.exp(lb)
        model = innovation_charfun(CF_GRID, a, b, mu1, alpha, vol_scale=sig)
        mean_model = (a * mu1 / b) * sig[:, None] * mean_weight
        diff = root_weights * (emp_groups - model * np.exp(-1j * CF_GRID * mean_model))
        return np.concatenate([diff.real.ravel(), diff.imag.ravel()])

    return residuals


def _least_squares(residuals, x0: np.ndarray, stage: str):
    """Levenberg-Marquardt from x0: (solution, sum of squares, status); raises unless status > 0.

    ftol is 1e-12 because the default 1e-8 stops the seasonal refine about
    1e-6 (relative) short of the optimum along its flattest direction.
    """
    from scipy import optimize

    res = optimize.least_squares(residuals, x0, method="lm", ftol=1e-12)
    if res.status <= 0:
        raise CalibrationError(f"{stage} did not converge (least-squares status {res.status})")
    return res.x, 2.0 * float(res.cost), int(res.status)


def fit_timechange(residuals: np.ndarray, init="method_of_moments", alpha: float = None,
                   vol_shape: str = "constant") -> TimeChangeFit:
    """Estimate the Gamma time change (a, b, mu1) and the volatility shape.

    residuals : deseasonalized series Y (the seasonal fit's residuals)
    init : 'method_of_moments' or an explicit (a, b, mu1) triple
    alpha : mean-reversion rate (from fit_alpha)
    vol_shape : 'constant' pins sigma = 1; 'seasonal' first fits a harmonic
        profile to squared innovations, standardizes, then refines jointly
        with the vol level c0 pinned at the profile's value.
    Each stage is one Levenberg-Marquardt least-squares solve in
    (log a, log b, mu1), to which the refine adds (c1, c2, c3); a stage that
    does not converge raises CalibrationError.
    """
    if alpha is None or not alpha > 0:
        raise CalibrationError("fit_timechange requires a positive alpha estimate")
    if vol_shape not in ("constant", "seasonal"):
        raise CalibrationError(f"unknown vol_shape {vol_shape!r}")
    y = np.asarray(residuals, float)
    if y.size - 1 < 500:
        raise CalibrationError(f"need at least 500 innovations, got {y.size - 1}")
    eps = innovations(y, alpha)
    t_eps = np.arange(eps.size, dtype=float)

    vol = FourCoeffs(1.0, 0.0, 0.0, 0.0)
    work = eps
    if vol_shape == "seasonal":
        design = seasonal_design(t_eps)
        vcoef, _, _, _ = np.linalg.lstsq(design, eps**2, rcond=None)
        profile = design @ vcoef
        floor = max(1e-8, 0.05 * float(np.median(profile)))
        scale = np.sqrt(np.maximum(profile, floor))
        work = eps / scale
        ccoef, _, _, _ = np.linalg.lstsq(design, scale, rcond=None)
        vol = FourCoeffs(*map(float, ccoef))

    work_c = work - np.mean(work)
    if init == "method_of_moments":
        a0, b0, mu0 = _mom_init(work_c, alpha)
    else:
        a0, b0, mu0 = init
    x0 = np.array([math.log(max(a0, 1e-8)), math.log(max(b0, 1e-8)), mu0])

    constant = _cf_residuals(empirical_charfun(work_c, CF_GRID)[None, :], alpha)
    x, obj, status = _least_squares(lambda x: constant(*x, np.ones(1)), x0,
                                    "time-change fit")
    statuses = (status,)
    if vol_shape == "seasonal":
        x, vol, obj, status = _joint_refine(eps, t_eps, alpha, x, vol)
        statuses += (status,)

    return TimeChangeFit(a=math.exp(x[0]), b=math.exp(x[1]), mu1=float(x[2]), vol=vol,
                         objective=obj, init=(float(a0), float(b0), float(mu0)),
                         status=statuses)


def _joint_refine(eps, t_eps, alpha, x0: np.ndarray, vol0: FourCoeffs):
    """Joint (log a, log b, mu1, c1..c3) refine on a month-bucketed CF objective, c0 pinned."""
    doy = np.mod(t_eps, 365.0)
    buckets = np.minimum((doy / (365.0 / 12.0)).astype(int), 11)
    months = [buckets == g for g in range(12)]  # 500+ innovations: 30+ days each
    t_groups = np.array([np.mean(doy[idx]) for idx in months])
    emp_groups = np.array([empirical_charfun(eps[idx] - np.mean(eps[idx]), CF_GRID)
                           for idx in months])
    residuals = _cf_residuals(emp_groups, alpha)
    c0 = vol0.k0

    def joint(x):
        return residuals(x[0], x[1], x[2], eval_seasonal(FourCoeffs(c0, *x[3:]), t_groups))

    start = np.array([*x0, vol0.k1, vol0.k2, vol0.k3])
    x, obj, status = _least_squares(joint, start, "seasonal time-change refine")
    return x[:3], FourCoeffs(c0, *map(float, x[3:])), obj, status


def log_likelihood(innov: np.ndarray, a: float, b: float, mu1: float, alpha: float,
                   grid: CosGrid | None = None, terms: int = 256) -> float:
    """Log likelihood of one-day innovations via the cosine density.

    The innovation density has no closed form; it is reconstructed from the
    characteristic function on `grid` (auto-chosen from the first two
    innovation cumulants when omitted) and floored at 1e-300.
    """
    x = np.asarray(innov, float)
    charfun_at = lambda u: innovation_charfun(u, a, b, mu1, alpha)
    if grid is None:
        kappa = v_cumulants(GammaTimeChange(a, b, mu1))
        mean = kappa[0] * kernel_weight(alpha, 1)
        var = kappa[1] * kernel_weight(alpha, 2)
        b1, b2 = truncation_bounds(mean, var, 10.0)
        grid = CosGrid(b1, b2, terms, terms)
    inside = (x >= grid.b1) & (x <= grid.b2)
    dens = np.full(x.shape, _LIKELIHOOD_FLOOR)
    if np.any(inside):
        vals = density_from_charfun(charfun_at, grid, x[inside], terms)
        dens[inside] = np.maximum(vals, _LIKELIHOOD_FLOOR)
    return float(np.sum(np.log(dens)))
