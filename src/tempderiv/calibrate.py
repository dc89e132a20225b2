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
is solved as least squares by one Levenberg-Marquardt run from a
method-of-moments inversion of the V cumulants, with no restarts.  The
model charfun is exp(sum_n w_n l_V(i u k_n)) with l_V(z) = -a Log A, so
its derivatives in (log a, log b, mu1) and in the vol scale are closed
forms in 1/A (|A| >= 1): the solver takes that Jacobian, not finite
differences.
Matching is centred because deseasonalization absorbs the mu1 E[R] level
shift into the fitted intercept: the innovation mean is not identifiable,
while the odd shape (skewness) still identifies mu1.

The model carries an exact scale degeneracy (sigma, a, b, mu1) ==
(s*sigma, a, s^2 b, s*mu1).  vol_shape='constant' pins sigma = 1 and lets
the time change carry the scale; vol_shape='seasonal' matches month groups
with the vol level c0 pinned at the squared-innovation profile's value, so
only b / c0^2, mu1 / c0 and c_i / c0 (with a) are identified quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfun import (UNIT_NODES, UNIT_WEIGHTS, GammaTimeChange, tilted_exponent_sum,
                      transformed_timechange)
from .data import _as_values
from .errors import CalibrationError
from .seasonal import ANNUAL_OMEGA, FourCoeffs, eval_seasonal

CF_STEP = 0.05
CF_GRID = np.arange(1, 41) * CF_STEP       # u = 0.05 .. 2.00, equispaced
CF_WEIGHTS = np.exp(-CF_GRID**2)
SEARCH_BOX = (("log a", 25.0), ("log b", 25.0), ("mu1", 50.0))  # |x| <= limit

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


@dataclass(frozen=True)
class AlphaFit:
    alpha: float
    rho: float
    rho_se: float


@dataclass(frozen=True)
class TimeChangeFit:
    """Time-change fit with its Levenberg-Marquardt status and call counts.

    `at_bound` names the parameters that end on the search box's wall,
    where the distance still falls outward and the fit is no interior
    optimum; `converged` is a positive status at an interior optimum.
    """

    a: float
    b: float
    mu1: float
    vol: FourCoeffs
    objective: float
    init: tuple[float, float, float]
    status: int
    nfev: int                              # residual evaluations
    njev: int                              # Jacobian evaluations

    @property
    def converged(self) -> bool:
        return self.status > 0 and not self.at_bound

    @property
    def at_bound(self) -> list[str]:
        """Those of log a, log b and mu1 within 1e-3 of their search-box limit."""
        x = (math.log(self.a), math.log(self.b), self.mu1)
        return [name for v, (name, limit) in zip(x, SEARCH_BOX) if limit - abs(v) < 1e-3]


def seasonal_design(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, float)
    return np.column_stack([np.ones_like(t), t, np.sin(ANNUAL_OMEGA * t), np.cos(ANNUAL_OMEGA * t)])


def fit_seasonal(series) -> FitReport:
    """OLS of daily values on [1, t, sin(2pi t/365), cos(2pi t/365)]."""
    from scipy import special

    y = _as_values(series)
    t = np.arange(y.size)
    n = y.size
    if n <= 4:
        raise CalibrationError(f"seasonal fit needs more than 4 observations, got {n}")
    x = seasonal_design(t)
    beta = np.linalg.lstsq(x, y, rcond=None)[0]
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
        residuals=resid, rho1=rho1,
    )


def fit_alpha(seasonal_fit: FitReport) -> AlphaFit:
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
    return AlphaFit(alpha=float(-np.log(rho)), rho=rho, rho_se=rho_se)


def innovations(residuals: np.ndarray, alpha: float) -> np.ndarray:
    """One-day innovations eps_j = Y_{j+1} - e^{-alpha} Y_j."""
    y = np.asarray(residuals, float)
    return y[1:] - np.exp(-alpha) * y[:-1]


def kernel_weight(alpha: float, order: int) -> float:
    """int_0^1 e^{-order*alpha*(1-s)} ds = -expm1(-order alpha)/(order alpha)."""
    x = order * alpha
    return float(-np.expm1(-x) / x)


def innovation_charfun(u, a: float, b: float, mu1: float, alpha: float,
                       vol_scale: float | np.ndarray = 1.0, theta: float = 0.0):
    """Charfun of the one-day innovation int_0^1 vol_scale e^{-alpha(1-s)} dV_s.

    `tilted_exponent_sum` on one unit piece of weight 1; vectorised over u
    and over an array `vol_scale` (result shape vol_scale.shape + u.shape).
    The fit does not call it: `_cf_functions` forms the same exponent with
    the 1/A its Jacobian needs.
    """
    tc = transformed_timechange(GammaTimeChange(a, b, mu1), theta)
    u_arr = np.atleast_1d(np.asarray(u, float))
    kern = np.multiply.outer(vol_scale, np.exp(-alpha * (1.0 - UNIT_NODES)))
    out = np.exp(tilted_exponent_sum(kern[None], u_arr, tc, pieces=np.ones(1)))
    return out if np.ndim(u) or np.ndim(vol_scale) else complex(out[0])


def _mom_init(eps_centred: np.ndarray, alpha: float) -> tuple[float, float, float]:
    """Method-of-moments seed: the (a, b, mu1) whose V cumulants are the sample's.

    With x = mu1^2 / b (see `v_cumulants`), R = k3^2 / (k2 k4) =
    x (3 + 2x)^2 / (3 (1 + x)(1 + 4x + 2x^2)) rises from 0 to 2/3, so for
    R < 2/3 x is the one positive root of the cubic
    (4 - 6R) x^3 + (12 - 18R) x^2 + (9 - 15R) x - 3R, and then
    b = 3 k2 (1 + 4x + 2x^2) / (k4 (1 + x)), a = b k2 / (1 + x) and
    mu1 = sign(k3) sqrt(x b).  For R >= 2/3 (no such member), or a seed off
    the search box, it is the symmetric member (mu1 = 0) with the sample's
    second and fourth cumulants, a = 3 k2^2 / k4, b = a / k2.
    """
    m2 = float(np.mean(eps_centred**2))
    m3 = float(np.mean(eps_centred**3))
    m4 = float(np.mean(eps_centred**4))
    i2, i3, i4 = (kernel_weight(alpha, j) for j in (2, 3, 4))
    k2s = m2 / i2
    k3s = m3 / i3
    k4s = max(m4 - 3.0 * m2 * m2, 1e-4 * m2 * m2) / i4

    ratio = k3s * k3s / (k2s * k4s)
    if ratio < 2.0 / 3.0:
        cubic = [4.0 - 6.0 * ratio, 12.0 - 18.0 * ratio, 9.0 - 15.0 * ratio, -3.0 * ratio]
        # the roots sum to -3, so the positive one has the largest real part
        x = max(float(np.roots(cubic).real.max()), 0.0)
        b = 3.0 * k2s * (1.0 + 4.0 * x + 2.0 * x * x) / (k4s * (1.0 + x))
        a = b * k2s / (1.0 + x)
        mu1 = math.copysign(math.sqrt(x * b), k3s)
        if _in_box(math.log(a), math.log(b), mu1):
            return a, b, mu1
    a = 3.0 * k2s * k2s / k4s
    return a, a / k2s, 0.0


def _in_box(la: float, lb: float, mu1: float) -> bool:
    """Whether (log a, log b, mu1) lies in the time-change fits' search box."""
    return all(abs(x) <= limit for x, (_, limit) in zip((la, lb, mu1), SEARCH_BOX))


def _grid_charfuns(samples) -> np.ndarray:
    """Empirical charfuns on CF_GRID of each centred sample, shape (samples, u).

    CF_GRID is equispaced, u_k = k CF_STEP, so exp(i u_k x) = exp(i CF_STEP x)^k:
    one complex exponential per value, then the powers by repeated
    multiplication.  Each row is np.mean of a C-ordered (u, value) array,
    numpy's pairwise sum (the columns of a mask, taken from one array of all
    the values, come out F-ordered and would be summed in sequence).
    """
    rows = []
    for x in samples:
        step = np.exp(1j * CF_STEP * x)
        rows.append(np.cumprod(np.broadcast_to(step, (CF_GRID.size, step.size)), axis=0)
                    .mean(axis=1))
    return np.array(rows)


def _penalised(la: float, lb: float, mu1: float, sig: np.ndarray) -> bool:
    """Whether the fits' residuals are the constant penalty: off the box or sig <= 1e-6."""
    return not _in_box(la, lb, mu1) or bool(np.any(sig <= 1e-6))


def _cf_functions(emp_groups: np.ndarray, alpha: float, sig_of, dsig_dc: np.ndarray):
    """(residuals(x), jacobian(x)) of the time-change fit in
    x = (log a, log b, mu1, free vol coefficients).

    Row g of `emp_groups` is matched with the centred innovation charfun at
    vol scale sig_of(x)[g] and (a, b, mu1) = (e^x0, e^x1, x2); the residuals
    are the real and imaginary parts of sqrt(CF_WEIGHTS) * (empirical - model).
    `dsig_dc` is d sig / d x[3:] on the residual rows, which run over (real
    or imaginary part, group, u): shape (rows, 0) when the vol is pinned.
    Off the search box or at sig <= 1e-6 the residuals are a constant vector
    whose sum of squares is 1e6, and the Jacobian is zero.

    Both read one evaluation of the model, `model(x)`.  At node s_n of the
    unit rule (weight W_n), with E_n = e^{-alpha(1 - s_n)}, w = i u sig E_n
    and A = 1 + q - ip = 1 + z as in `tilted_exponent_sum` (|A| >= 1), the
    centred model is M = e^{S - iu m} with S = sum_n W_n (-a Log A),
    m = (a mu1/b) sig I1 and I1 = kernel_weight(alpha, 1): the exponent of
    `innovation_charfun`, formed here on (group, node, u) arrays because
    the Jacobian needs 1/A at each node.  The Jacobian is closed-form: each
    column is -sqrt(CF_WEIGHTS) M D, with D the derivative of S - iu m:
        la:  S - iu m
        lb:  a sum_n W_n z/A + iu m
        mu1: (a/b) (sum_n W_n w/A - iu sig I1)
        sig: (a/b) iu (sum_n W_n E_n (mu1 + w)/A - mu1 I1)
    and the sig column of group g's rows, times `dsig_dc`, gives the vol
    coefficients' columns.
    """
    mean_weight = kernel_weight(alpha, 1)
    root_weights = np.sqrt(CF_WEIGHTS)
    decay = np.exp(-alpha * (1.0 - UNIT_NODES))
    iu = 1j * CF_GRID
    penalty = np.full(2 * emp_groups.size, math.sqrt(1e6 / (2 * emp_groups.size)))

    def model(x: np.ndarray):
        """None where the residuals are the penalty; else a, b, sig, u sig E_n as a
        (group, node, u) array, z = A - 1, iu m and the centred exponent S - iu m."""
        la, lb, mu1 = x[:3]
        sig = sig_of(x)
        if _penalised(la, lb, mu1, sig):
            return None
        a, b = math.exp(la), math.exp(lb)
        uk = np.multiply.outer(np.multiply.outer(sig, decay), CF_GRID)
        p, q = uk * (mu1 / b), uk * uk / (2.0 * b)
        log_a = 0.5 * np.log1p(q * (2.0 + q) + p * p) + 1j * np.arctan2(-p, 1.0 + q)
        iu_m = iu * ((a * mu1 / b) * mean_weight) * sig[:, None]
        return a, b, sig, uk, q - 1j * p, iu_m, -a * (UNIT_WEIGHTS @ log_a) - iu_m

    def residuals(x: np.ndarray) -> np.ndarray:
        at_x = model(x)
        if at_x is None:
            return penalty
        diff = root_weights * (emp_groups - np.exp(at_x[-1]))
        return np.concatenate([diff.real.ravel(), diff.imag.ravel()])

    def jacobian(x: np.ndarray) -> np.ndarray:
        at_x = model(x)
        if at_x is None:
            return np.zeros((penalty.size, x.size))
        a, b, sig, uk, z, iu_m, centred = at_x
        mu1 = x[2]
        inv_a = 1.0 / (1.0 + z)
        d = np.stack([
            centred,
            a * (UNIT_WEIGHTS @ (z * inv_a)) + iu_m,
            (a / b) * (UNIT_WEIGHTS @ (1j * uk * inv_a) - iu * sig[:, None] * mean_weight),
            (a / b) * iu * ((UNIT_WEIGHTS * decay) @ ((mu1 + 1j * uk) * inv_a)
                            - mu1 * mean_weight),
        ])
        cols = -root_weights * np.exp(centred) * d
        jac = np.concatenate([cols.real.reshape(4, -1), cols.imag.reshape(4, -1)], axis=1).T
        return np.hstack([jac[:, :3], jac[:, 3:] * dsig_dc])

    return residuals, jacobian


def _least_squares(residuals, jacobian, x0: np.ndarray):
    """Levenberg-Marquardt from x0 with the closed-form Jacobian.

    Returns (solution, sum of squares, (status, residual calls, Jacobian
    calls)) and raises CalibrationError unless status > 0.  The calls are
    counted here: SciPy's `njev` leaves out the Jacobian it takes at the
    solution for its gradient norm.  ftol is 1e-12 because the default 1e-8
    stops the seasonal fit about 1e-6 (relative) short of the optimum
    along its flattest direction.
    """
    from scipy import optimize

    calls = [0, 0]

    def counted(i, f):
        def call(x):
            calls[i] += 1
            return f(x)
        return call

    res = optimize.least_squares(counted(0, residuals), x0, jac=counted(1, jacobian),
                                 method="lm", ftol=1e-12)
    if res.status <= 0:
        raise CalibrationError(f"time-change fit did not converge "
                               f"(least-squares status {res.status})")
    return res.x, 2.0 * float(res.cost), (int(res.status), *calls)


def fit_timechange(residuals: np.ndarray, alpha: float,
                   vol_shape: str = "constant") -> TimeChangeFit:
    """Estimate the Gamma time change (a, b, mu1) and the volatility shape
    in one Levenberg-Marquardt solve with the closed-form Jacobian.

    residuals : deseasonalized series Y (the seasonal fit's residuals)
    alpha : mean-reversion rate (from fit_alpha)
    vol_shape : 'constant' pins sigma = 1 and matches the CF of all the
        centred innovations from the moment seed; 'seasonal' fits a harmonic
        vol profile c0..c3 to the squared innovations, seeds from the
        innovations standardized by it, and matches twelve month groups' CFs
        in (log a, log b, mu1, c1..c3) from (seed, profile c1..c3), with c0
        pinned at the profile's value.
    CalibrationError is raised for innovations without variance and for a
    solve that does not converge.
    """
    if not alpha > 0:
        raise CalibrationError("fit_timechange requires a positive alpha estimate")
    if vol_shape not in ("constant", "seasonal"):
        raise CalibrationError(f"unknown vol_shape {vol_shape!r}")
    y = np.asarray(residuals, float)
    if y.size - 1 < 500:
        raise CalibrationError(f"need at least 500 innovations, got {y.size - 1}")
    eps = innovations(y, alpha)

    if vol_shape == "constant":
        work, free = eps - np.mean(eps), []
        emp = _grid_charfuns([work])
        one = np.ones(1)  # sigma = 1: no free vol coefficient
        sig_of, dsig_dc = (lambda x: one), np.empty((2 * emp.size, 0))
        vol_of = lambda x: FourCoeffs(1.0, 0.0, 0.0, 0.0)
    else:
        t_eps = np.arange(eps.size, dtype=float)
        design = seasonal_design(t_eps)
        vcoef, _, _, _ = np.linalg.lstsq(design, eps**2, rcond=None)
        profile = design @ vcoef
        floor = max(1e-8, 0.05 * float(np.median(profile)))
        scale = np.sqrt(np.maximum(profile, floor))
        work = eps / scale
        work = work - np.mean(work)
        ccoef, _, _, _ = np.linalg.lstsq(design, scale, rcond=None)
        c0, *free = map(float, ccoef)
        doy = np.mod(t_eps, 365.0)
        buckets = np.minimum((doy / (365.0 / 12.0)).astype(int), 11)
        months = [buckets == g for g in range(12)]  # 500+ innovations: 30+ days each
        t_groups = np.array([np.mean(doy[idx]) for idx in months])
        emp = _grid_charfuns([eps[idx] - np.mean(eps[idx]) for idx in months])
        # sig_g = c0 + c1 t + c2 sin(omega t) + c3 cos(omega t) at t = t_g, so
        # d sig / d(c1, c2, c3) on group g's rows is (t_g, sin(omega t_g), cos(omega t_g))
        dsig_dc = np.tile(np.repeat(seasonal_design(t_groups)[:, 1:],
                                    CF_GRID.size, axis=0), (2, 1))
        vol_of = lambda x: FourCoeffs(c0, *map(float, x[3:]))
        sig_of = lambda x: eval_seasonal(vol_of(x), t_groups)

    m2 = float(np.mean(work**2))
    if not m2 * m2 > 0.0:  # the moment seed divides by the fourth cumulant, floored at 1e-4 m2^2
        raise CalibrationError("the time-change fit needs innovations with "
                               f"positive variance, got {m2}")
    a0, b0, mu0 = _mom_init(work, alpha)
    x0 = np.array([math.log(max(a0, 1e-8)), math.log(max(b0, 1e-8)), mu0, *free])
    x, obj, (status, nfev, njev) = _least_squares(
        *_cf_functions(emp, alpha, sig_of, dsig_dc), x0)
    return TimeChangeFit(a=math.exp(x[0]), b=math.exp(x[1]), mu1=float(x[2]), vol=vol_of(x),
                         objective=obj, init=(float(a0), float(b0), float(mu0)),
                         status=status, nfev=nfev, njev=njev)
