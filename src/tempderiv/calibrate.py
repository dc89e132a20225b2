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
the time change carry the scale; vol_shape='seasonal' matches twelve month
groups with the vol level c0 and the trend c1 (a slope per absolute day)
pinned at the squared-innovation profile's values, so only b / c0^2,
mu1 / c0 and c_i / c0 (with a) are identified quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._normal import _t_quantile, _t_tails
from .charfun import unit_rule
from .data import _as_values
from .errors import CalibrationError
from .seasonal import ANNUAL_OMEGA, FourCoeffs

CF_STEP = 0.05
CF_GRID = np.arange(1, 41) * CF_STEP       # u = 0.05 .. 2.00, equispaced
CF_WEIGHTS = np.exp(-CF_GRID**2)
SEARCH_BOX = (("log a", 25.0), ("log b", 25.0), ("mu1", 50.0))  # |x| <= limit
LM_TAU, LM_FTOL, LM_XTOL, LM_MAX_NFEV = 1e-3, 1e-12, 1e-8, 600  # see _least_squares

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
    y = _as_values(series)
    t = np.arange(y.size)
    n = y.size
    if n <= 4:
        raise CalibrationError(f"seasonal fit needs more than 4 observations, got {n}")
    x = seasonal_design(t)
    beta = np.linalg.lstsq(x, y, rcond=None)[0]
    resid = y - x @ beta
    # residuals within 1e-8 of the series' rms are the rounding of an exact fit (at
    # most 1.4e-10 up to n = 40,000), not noise; 1e-3 degrees of noise on 281 K read 3.5e-6
    if resid @ resid <= 1e-16 * (y @ y):
        raise CalibrationError("the seasonal curve fits the series exactly: no noise to fit")
    dof = n - 4
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(x.T @ x)
    se_ols = np.sqrt(np.diag(cov))

    rho1 = float(np.corrcoef(resid[:-1], resid[1:])[0, 1])
    rho_c = min(max(rho1, -0.9), 0.999)
    se = se_ols * math.sqrt((1.0 + rho_c) / (1.0 - rho_c))

    tcrit = _t_quantile(0.975, dof)
    tstats = beta / se
    return FitReport(
        names=SEASONAL_NAMES,
        params=beta, se=se, se_ols=se_ols, tstats=tstats,
        ci_low=beta - tcrit * se, ci_high=beta + tcrit * se,
        p_values=np.array([_t_tails(t, dof)[0] for t in tstats]),
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
    square = eps_centred * eps_centred  # products, not numpy's per-element pow()
    m2 = float(np.mean(square))
    m3 = float(np.mean(square * eps_centred))
    m4 = float(np.mean(square * square))
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


def _cf_functions(emp_groups: np.ndarray, alpha: float, rows: np.ndarray, vol: np.ndarray,
                  free: list[int]):
    """(residuals(x), jacobian(x)) of the time-change fit in
    x = (log a, log b, mu1, vol[free]).

    Row g of `emp_groups` is matched with the centred innovation charfun at
    vol scale sig_g = rows[g] @ vol, with vol[free] = x[3:] and the other
    coefficients pinned, and (a, b, mu1) = (e^x0, e^x1, x2); the residuals
    are the real and imaginary parts of sqrt(CF_WEIGHTS) * (empirical - model),
    over (real or imaginary part, group, u).
    Off the search box or at sig <= 1e-6 the residuals are a constant vector
    whose sum of squares is 1e6, and the Jacobian is zero.

    Both read one evaluation of the model, `model(x)`.  At node s_n of the
    unit rule (weight W_n), with E_n = e^{-alpha(1 - s_n)}, w = i u sig E_n
    and A = 1 + q - ip = 1 + z as in `charfun.tilted_exponent_sum` (|A| >= 1),
    the centred model is M = e^{S - iu m} with S = sum_n W_n (-a Log A),
    m = (a mu1/b) sig I1 and I1 = kernel_weight(alpha, 1): the exponent that
    `tilted_exponent_sum` forms on one unit piece, formed here on (group,
    node, u) arrays because the Jacobian needs 1/A at each node.  The
    Jacobian is closed-form: each column is -sqrt(CF_WEIGHTS) M D, with D
    the derivative of S - iu m:
        la:  S - iu m
        lb:  a sum_n W_n z/A + iu m
        mu1: (a/b) (sum_n W_n w/A - iu sig I1)
        sig: (a/b) iu (sum_n W_n E_n (mu1 + w)/A - mu1 I1)
    and the sig column of group g times rows[g, free] gives the free vol
    coefficients' columns.
    """
    mean_weight = kernel_weight(alpha, 1)
    root_weights = np.sqrt(CF_WEIGHTS)
    nodes, unit_weights = unit_rule(alpha)
    decay = np.exp(-alpha * (1.0 - nodes))
    iu = 1j * CF_GRID
    penalty = np.full(2 * emp_groups.size, math.sqrt(1e6 / (2 * emp_groups.size)))
    dsig_dc = rows[:, free].T[:, :, None]  # (free, group, 1)

    def model(x: np.ndarray):
        """None where the residuals are the penalty; else a, b, sig, u sig E_n as a
        (group, node, u) array, z = A - 1, iu m and the centred exponent S - iu m."""
        la, lb, mu1 = x[:3]
        coef = vol.copy()
        coef[free] = x[3:]
        sig = rows @ coef
        if not _in_box(la, lb, mu1) or np.any(sig <= 1e-6):
            return None
        a, b = math.exp(la), math.exp(lb)
        uk = np.multiply.outer(np.multiply.outer(sig, decay), CF_GRID)
        p, q = uk * (mu1 / b), uk * uk / (2.0 * b)
        log_a = 0.5 * np.log1p(q * (2.0 + q) + p * p) + 1j * np.arctan2(-p, 1.0 + q)
        iu_m = iu * ((a * mu1 / b) * mean_weight) * sig[:, None]
        return a, b, sig, uk, q - 1j * p, iu_m, -a * (unit_weights @ log_a) - iu_m

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
            a * (unit_weights @ (z * inv_a)) + iu_m,
            (a / b) * (unit_weights @ (1j * uk * inv_a) - iu * sig[:, None] * mean_weight),
            (a / b) * iu * ((unit_weights * decay) @ ((mu1 + 1j * uk) * inv_a)
                            - mu1 * mean_weight),
        ])
        cols = -root_weights * np.exp(centred) * d
        cols = np.concatenate([cols[:3], cols[3] * dsig_dc]).reshape(x.size, -1)
        return np.concatenate([cols.real, cols.imag], axis=1).T

    return residuals, jacobian


def _least_squares(residuals, jacobian, x0: np.ndarray):
    """Levenberg-Marquardt from x0 with the closed-form Jacobian (Madsen, Nielsen
    & Tingleff 2004, Methods for Non-Linear Least Squares Problems, IMM DTU).

    The damping is Marquardt's: the step h solves (J^T J + mu D) h = -J^T f, with
    D the running maximum of diag(J^T J) (1 for a zero column), taken from one SVD
    of J D^(-1/2) per Jacobian.  mu starts at LM_TAU and follows Nielsen's update:
    times max(1/3, 1 - (2 rho - 1)^3) after a step with gain ratio rho > 0, which
    is taken, and times 2, 4, 8, ... after each step in a row that is not.  The
    solve stops with status 1 when both the actual and the predicted relative
    reductions of the sum of squares are at most LM_FTOL (MINPACK's test, with
    rho <= 2), with status 2 when the scaled step is at most LM_XTOL of the
    scaled x, and with status 0 after LM_MAX_NFEV residual calls.  ftol is 1e-12
    because 1e-8 stops the seasonal fit about 1e-6 (relative) short of the
    optimum along its flattest direction.

    Returns (solution, sum of squares, (status, residual calls, Jacobian calls))
    and raises CalibrationError unless status > 0.
    """
    x = np.array(x0, float)
    f = residuals(x)
    cost = float(f @ f)
    nfev, njev, status = 1, 0, 0
    diag = np.zeros(x.size)
    mu, grow = LM_TAU, 2.0
    while not status and nfev < LM_MAX_NFEV:
        jac = jacobian(x)
        njev += 1
        diag = np.maximum(diag, np.einsum("ij,ij->j", jac, jac))
        scale = np.sqrt(np.where(diag > 0.0, diag, 1.0))
        u, s, vt = np.linalg.svd(jac / scale, full_matrices=False)
        c = u.T @ f
        while not status and nfev < LM_MAX_NFEV:
            scaled_step = -(vt.T @ (s * c / (s * s + mu)))
            trial_x = x + scaled_step / scale
            trial_f = residuals(trial_x)
            nfev += 1
            trial = float(trial_f @ trial_f)
            # L(0) - L(h) of the linear model, and the gain ratio
            predicted = float(c @ (c * (1.0 - (mu / (s * s + mu)) ** 2)))
            rho = (cost - trial) / predicted if predicted > 0.0 else 0.0
            if abs(cost - trial) <= LM_FTOL * cost and predicted <= LM_FTOL * cost and rho <= 2.0:
                status = 1
            elif np.linalg.norm(scaled_step) <= LM_XTOL * np.linalg.norm(scale * x):
                status = 2
            if rho > 0.0:
                x, f, cost = trial_x, trial_f, trial
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                grow = 2.0
                break
            mu *= grow
            grow *= 2.0
    if status <= 0:
        raise CalibrationError(f"time-change fit did not converge "
                               f"(least-squares status {status})")
    return x, cost, (status, nfev, njev)


def fit_timechange(residuals: np.ndarray, alpha: float,
                   vol_shape: str = "constant") -> TimeChangeFit:
    """Estimate the Gamma time change (a, b, mu1) and the volatility shape
    in one Levenberg-Marquardt solve with the closed-form Jacobian.

    residuals : deseasonalized series Y (the seasonal fit's residuals)
    alpha : mean-reversion rate (from fit_alpha)
    vol_shape : 'constant' pins sigma = 1 and matches the CF of all the
        centred innovations; 'seasonal' fits a harmonic vol profile c0..c3
        (on absolute days) to the squared innovations, pins c0 and the trend
        c1 at its values, and matches twelve month groups' CFs in
        (log a, log b, mu1, c2, c3) from the profile's c2, c3.  Group g's vol
        is c0 + c1 t_g + c2 sin(omega d_g) + c3 cos(omega d_g), at the mean
        absolute day t_g and the mean day of the year d_g of its innovations.
        Both seed (a, b, mu1) from the moments of the innovations
        standardized by the profile (by 1 for the constant shape).
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
    t = np.arange(eps.size, dtype=float)
    doy = np.mod(t, 365.0)

    if vol_shape == "constant":  # one group, sigma = 1: no free vol coefficient
        groups, scale, vol, free = [slice(None)], 1.0, np.array([1.0, 0.0, 0.0, 0.0]), []
    else:
        design = seasonal_design(t)
        vcoef, _, _, _ = np.linalg.lstsq(design, eps**2, rcond=None)
        profile = design @ vcoef
        floor = max(1e-8, 0.05 * float(np.median(profile)))
        scale = np.sqrt(np.maximum(profile, floor))
        vol, _, _, _ = np.linalg.lstsq(design, scale, rcond=None)
        buckets = np.minimum((doy / (365.0 / 12.0)).astype(int), 11)
        groups = [buckets == g for g in range(12)]  # 500+ innovations: 30+ days each
        free = [2, 3]
    rows = seasonal_design(np.array([np.mean(doy[idx]) for idx in groups]))
    rows[:, 1] = [np.mean(t[idx]) for idx in groups]
    emp = _grid_charfuns([eps[idx] - np.mean(eps[idx]) for idx in groups])
    work = eps / scale
    work = work - np.mean(work)

    m2 = float(np.mean(work**2))
    if not m2 * m2 > 0.0:  # the moment seed divides by the fourth cumulant, floored at 1e-4 m2^2
        raise CalibrationError("the time-change fit needs innovations with "
                               f"positive variance, got {m2}")
    a0, b0, mu0 = _mom_init(work, alpha)
    x0 = np.array([math.log(max(a0, 1e-8)), math.log(max(b0, 1e-8)), mu0, *vol[free]])
    x, obj, (status, nfev, njev) = _least_squares(
        *_cf_functions(emp, alpha, rows, vol, free), x0)
    vol[free] = x[3:]
    return TimeChangeFit(a=math.exp(x[0]), b=math.exp(x[1]), mu1=float(x[2]),
                         vol=FourCoeffs(*map(float, vol)), objective=obj,
                         init=(float(a0), float(b0), float(mu0)),
                         status=status, nfev=nfev, njev=njev)
