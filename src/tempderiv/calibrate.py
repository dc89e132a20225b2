"""Parameter estimation from daily temperature series.

Pipeline: seasonal OLS fit on the linear-plus-annual-harmonic basis, an
autoregression of the deseasonalized series for the mean-reversion rate,
then time-change parameters from the one-day innovations

    eps_j = Y_{j+1} - e^{-alpha} Y_j,   Y = T - s_fit,

whose model law is int_0^1 sigma_s e^{-alpha(1-s)} dV_s.  The primary fit
minimises a weighted distance between centred empirical and model
characteristic functions on a fixed grid (u = 0.05..2.00 step 0.05,
weights e^{-u^2}); a method-of-moments inversion of the V cumulants seeds
the optimizer.  Matching is centred because deseasonalization absorbs the
mu1 E[R] level shift into the fitted intercept: the innovation mean is not
identifiable, while the odd shape (skewness) still identifies mu1.

The model carries an exact scale degeneracy (sigma, a, b, mu1) ==
(s*sigma, a, s^2 b, s*mu1); vol_shape='constant' pins sigma = 1 and lets
the time change carry the scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfun import UNIT_NODES, GammaTimeChange, tilted_exponent_sum
from .cosine import CosGrid, density_from_charfun, truncation_bounds
from .data import DailySeries
from .errors import CalibrationError, DomainError
from .seasonal import ANNUAL_OMEGA, FourCoeffs, eval_seasonal
from .simulate import empirical_charfun

CF_GRID = np.arange(1, 41) * 0.05          # u = 0.05 .. 2.00
CF_WEIGHTS = np.exp(-CF_GRID**2)
RESTARTS = 2                               # perturbed reruns after a failed first fit
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
    converged: bool
    restarts_used: int

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


def timechange_cumulants(a: float, b: float, mu1: float) -> tuple[float, float, float, float]:
    """First four cumulants of V_1 = B_{R_1} + mu1 R_1 (unit time).

    Derived from l_V(w) = -a log(1 - (mu1 w + w^2/2)/b); certified against
    finite differences of cumulant_V in the tests.
    """
    k1c = a * mu1 / b
    k2c = a / b + a * mu1**2 / b**2
    k3c = 3.0 * a * mu1 / b**2 + 2.0 * a * mu1**3 / b**3
    k4c = 3.0 * a / b**2 + 12.0 * a * mu1**2 / b**3 + 6.0 * a * mu1**4 / b**4
    return k1c, k2c, k3c, k4c


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
    tc = GammaTimeChange(a, b, mu1)
    u_arr = np.atleast_1d(np.asarray(u, float))
    kern = np.multiply.outer(vol_scale, np.exp(-alpha * (1.0 - UNIT_NODES)))
    out = np.exp(tilted_exponent_sum(kern, u_arr, tc, theta))
    return out if np.ndim(u) or np.ndim(vol_scale) else complex(out[0])


def _mom_init(eps_centred: np.ndarray, alpha: float) -> tuple[float, float, float]:
    """Method-of-moments seed: invert the V cumulants from sample moments."""
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
    return a, b, mu1


def _cf_distance(emp_groups: np.ndarray, alpha: float):
    """The fits' objective: distance(la, lb, mu1, sig) between empirical and model charfuns.

    Row g of `emp_groups` is matched with the centred innovation charfun at
    vol scale sig[g] and (a, b, mu1) = (e^la, e^lb, mu1), in the CF_WEIGHTS
    weighted sum of squared moduli; off the search box or at sig <= 1e-6 it is 1e6.
    """
    mean_weight = kernel_weight(alpha, 1)

    def distance(la: float, lb: float, mu1: float, sig: np.ndarray) -> float:
        if abs(la) > 25 or abs(lb) > 25 or abs(mu1) > 50 or np.any(sig <= 1e-6):
            return 1e6
        a, b = math.exp(la), math.exp(lb)
        try:
            model = innovation_charfun(CF_GRID, a, b, mu1, alpha, vol_scale=sig)
        except DomainError:
            return 1e6
        mean_model = (a * mu1 / b) * sig[:, None] * mean_weight
        centred = model * np.exp(-1j * CF_GRID * mean_model)
        return float(np.sum(CF_WEIGHTS * np.abs(emp_groups - centred) ** 2))

    return distance


def _cf_objective(eps_centred: np.ndarray, alpha: float):
    """Constant-volatility objective of logs = (log a, log b, mu1): one group at sigma = 1."""
    distance = _cf_distance(empirical_charfun(eps_centred, CF_GRID)[None, :], alpha)
    return lambda logs: distance(*logs, np.ones(1))


def fit_timechange(residuals: np.ndarray, init="method_of_moments", alpha: float = None,
                   vol_shape: str = "constant") -> TimeChangeFit:
    """Estimate the Gamma time change (a, b, mu1) and the volatility shape.

    residuals : deseasonalized series Y (the seasonal fit's residuals)
    init : 'method_of_moments' or an explicit (a, b, mu1) triple
    alpha : mean-reversion rate (from fit_alpha)
    vol_shape : 'constant' pins sigma = 1; 'seasonal' first fits a harmonic
        profile to squared innovations, standardizes, then refines jointly.
    A Nelder-Mead run that succeeds from the seed ends the search; else the
    lowest of it and RESTARTS perturbed runs is kept, and must have converged.
    """
    from scipy import optimize

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
    objective = _cf_objective(work_c, alpha)

    if init == "method_of_moments":
        a0, b0, mu0 = _mom_init(work_c, alpha)
    else:
        a0, b0, mu0 = init
    x0 = np.array([math.log(max(a0, 1e-8)), math.log(max(b0, 1e-8)), mu0])

    run = lambda start: optimize.minimize(objective, start, method="Nelder-Mead", options={
        "xatol": 1e-7, "fatol": 1e-12, "maxiter": 4000})
    runs = [run(x0)]
    if not runs[0].success:
        rng = np.random.default_rng(0)
        runs += [run(x0 + rng.normal(0, 0.3, 3)) for _ in range(RESTARTS)]
    best = min(runs, key=lambda res: res.fun)
    if not (best.success and np.isfinite(best.fun)):
        raise CalibrationError("time-change fit did not converge within the restart budget")

    a_hat, b_hat = math.exp(best.x[0]), math.exp(best.x[1])
    mu_hat = float(best.x[2])
    obj = float(best.fun)

    if vol_shape == "seasonal":
        a_hat, b_hat, mu_hat, vol, obj = _joint_refine(
            eps, t_eps, alpha, a_hat, b_hat, mu_hat, vol, obj)

    return TimeChangeFit(a=a_hat, b=b_hat, mu1=mu_hat, vol=vol, objective=obj,
                         init=(float(a0), float(b0), float(mu0)),
                         converged=bool(best.success), restarts_used=len(runs))


def _joint_refine(eps, t_eps, alpha, a0, b0, mu0, vol0: FourCoeffs, obj0):
    """Joint (a, b, mu1, c0..c3) polish on a month-bucketed CF objective."""
    from scipy import optimize

    doy = np.mod(t_eps, 365.0)
    buckets = np.minimum((doy / (365.0 / 12.0)).astype(int), 11)
    months = [buckets == g for g in range(12)]  # 500+ innovations: 30+ days each
    t_groups = np.array([np.mean(doy[idx]) for idx in months])
    emp_groups = np.array([empirical_charfun(eps[idx] - np.mean(eps[idx]), CF_GRID)
                           for idx in months])
    distance = _cf_distance(emp_groups, alpha)

    def joint_obj(x):
        return distance(x[0], x[1], x[2], eval_seasonal(FourCoeffs(*x[3:]), t_groups))

    x0 = np.array([math.log(a0), math.log(b0), mu0, vol0.k0, vol0.k1, vol0.k2, vol0.k3])
    base = joint_obj(x0)
    res = optimize.minimize(joint_obj, x0, method="Nelder-Mead",
                            options={"xatol": 1e-6, "fatol": 1e-10, "maxiter": 2000})
    if res.fun < base:
        la, lb, mu1 = res.x[0], res.x[1], float(res.x[2])
        return math.exp(la), math.exp(lb), mu1, FourCoeffs(*map(float, res.x[3:])), float(res.fun)
    return a0, b0, mu0, vol0, obj0


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
        k1c, k2c, _, _ = timechange_cumulants(a, b, mu1)
        mean = k1c * kernel_weight(alpha, 1)
        var = k2c * kernel_weight(alpha, 2)
        b1, b2 = truncation_bounds(mean, var, 10.0)
        grid = CosGrid(b1, b2, terms, terms)
    inside = (x >= grid.b1) & (x <= grid.b2)
    dens = np.full(x.shape, _LIKELIHOOD_FLOOR)
    if np.any(inside):
        vals = density_from_charfun(charfun_at, grid, x[inside], terms)
        dens[inside] = np.maximum(vals, _LIKELIHOOD_FLOOR)
    return float(np.sum(np.log(dens)))
