"""Reference computations the tests check the library against.

- `quad_exp_kernel`: adaptive quadrature of the exponential-kernel
  integrals, the oracle of the closed forms `k1` and `k2`;
- `log_likelihood`: the innovations' log likelihood from the cosine density;
- `leg_value`: one cosine-expanded payoff leg, from the coefficients and
  per-term leg contributions that `price_strangle` sums;
- `day_kernel`: the CAT kernel of every day, which `charfun_cat` sums on
  graded panels;
- `full_charfun_cat`, `full_strangle`, `full_density`: the CAT charfun at
  every frequency and the strangle prices and density from every cosine
  coefficient, which `price_strangle` and `density_from_charfun` sum only
  up to the last coefficient whose |phi| reaches `PHI_FLOOR`;
- `fill_missing_loop`: the day-by-day seven-day-window repair that
  `data._fill_missing` does with shifted array sums;
- `simulate_csv_lines`: the simulate CSV written one "{:.10g}" format per
  (path, time), which `cli` writes with array operations in blocks;
- `gaussian_kde`: the stats KDE as one expression, which `cli` evaluates in
  place in one buffer.
"""

import warnings

import numpy as np
from scipy import integrate

from tempderiv import (CosGrid, DomainError, GammaTimeChange, IngestError,
                       cos_coefficients, density_from_charfun, innovation_charfun,
                       truncation_bounds, v_cumulants)
from tempderiv.calibrate import kernel_weight
from tempderiv.charfun import (UNIT_NODES, _cat_parts, cat_day_weights, tilted_exponent_sum,
                               transformed_timechange)
from tempderiv.cosine import _leg_terms
from tempderiv.seasonal import eval_seasonal

# QUADPACK subinterval cap: 21-point Gauss-Kronrod per subinterval, ~2^20 nodes total
_QUAD_LIMIT = 2**20 // 21
_LIKELIHOOD_FLOOR = 1e-300


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within its node budget."""


def quad_exp_kernel(f, alpha: float, t: float, orientation: str = "decaying",
                    tol: float = 1e-12) -> float:
    """Adaptive quadrature oracle for the exponential-kernel integrals.

    orientation='decaying' computes int_0^t f(u) e^{-alpha(t-u)} du,
    orientation='growing'  computes int_0^t f(u) e^{alpha u} du.

    Raises QuadratureError if the refinement budget (~2^20 nodes) is
    exhausted before reaching the absolute tolerance.
    """
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    if orientation not in ("decaying", "growing"):
        raise DomainError(f"unknown orientation {orientation!r}")
    if t == 0.0:
        return 0.0

    if orientation == "decaying":
        integrand = lambda u: f(u) * np.exp(-alpha * (t - u))
    else:
        integrand = lambda u: f(u) * np.exp(alpha * u)

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, _ = integrate.quad(integrand, 0.0, t, epsabs=tol, epsrel=1e-11,
                                    limit=_QUAD_LIMIT)
        except integrate.IntegrationWarning as exc:
            raise QuadratureError(
                f"exponential-kernel quadrature did not converge on [0, {t}]: {exc}"
            ) from exc
    return val


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


def leg_value(charfun_at, grid: CosGrid, strike: float, kind: str, terms: int) -> float:
    """Undiscounted expectation of one payoff leg ('call' or 'put') from
    `terms` + 1 cosine coefficients."""
    coeffs = cos_coefficients(charfun_at, grid, terms)
    return float(np.sum(_leg_terms(coeffs, grid, strike, kind)))


def day_kernel(p, horizon_T: int, mode: str = "exact_kernel") -> np.ndarray:
    """The CAT kernel at the unit-rule nodes of every day 0..T-1, shape (T, nodes):
    sigma_s e^{-alpha(1 - x_n)} times the day's geometric sum (exact_kernel) or T - j
    (product), at s = j + x_n.  Summed with weight 1 per day it is the CAT exponent."""
    days = np.arange(horizon_T, dtype=float)
    tail = cat_day_weights(p.alpha, horizon_T) if mode == "exact_kernel" else horizon_T - days
    s = days[:, None] + UNIT_NODES
    return eval_seasonal(p.vol, s) * np.exp(-p.alpha * (1.0 - UNIT_NODES)) * tail[:, None]


def full_charfun_cat(u, p, theta: float, horizon_T: int) -> np.ndarray:
    """The exact-kernel CAT charfun evaluated at every u, however small |phi| is."""
    tc = transformed_timechange(p.timechange, theta)
    det_sum, kern, weights = _cat_parts(p, horizon_T, "exact_kernel")
    u = np.asarray(u, float)
    return np.exp(1j * u * det_sum + tilted_exponent_sum(kern, u, tc, pieces=weights))


def full_strangle(contract, p, theta: float, grid: CosGrid) -> tuple[float, float]:
    """The strangle price and its half-term price from all max(n1, n2) + 1 coefficients
    of `full_charfun_cat`, each leg summed over its n + 1 and n // 2 + 1 terms."""
    charfun_at = lambda u: full_charfun_cat(u, p, theta, contract.horizon_T)
    coeffs = cos_coefficients(charfun_at, grid, max(grid.n1, grid.n2))
    call = _leg_terms(coeffs[: grid.n1 + 1], grid, contract.k1_strike, "call")
    put = _leg_terms(coeffs[: grid.n2 + 1], grid, contract.k2_strike, "put")

    def value(n1: int, n2: int) -> float:
        legs = contract.d1 * np.sum(call[: n1 + 1]) + contract.d2 * np.sum(put[: n2 + 1])
        return float(contract.discount * legs)

    return (value(grid.n1, grid.n2),
            value(max(grid.n1 // 2, 1), max(grid.n2 // 2, 1)))


def full_density(charfun_at, grid: CosGrid, x, terms: int) -> np.ndarray:
    """The cosine density at x from all terms + 1 coefficients (k = 0 halved), the
    (points x terms + 1) basis, with values below n eps sum_k |A_k| set to 0."""
    coeffs = cos_coefficients(charfun_at, grid, terms)
    k = np.arange(terms + 1)
    basis = np.cos(np.multiply.outer(np.asarray(x, float) - grid.b1, k) * np.pi / grid.width)
    out = basis @ (np.where(k == 0, 0.5, 1.0) * coeffs)
    bound = coeffs.size * np.finfo(float).eps * np.sum(np.abs(coeffs))
    return np.where(np.abs(out) < bound, 0.0, out)


def fill_missing_loop(values: np.ndarray, half_window: int = 3) -> np.ndarray:
    """Fill NaNs sweep by sweep, one missing day at a time: each takes np.mean
    of the available values of its centred window in the previous sweep."""
    values = values.copy()
    n = len(values)
    while np.any(np.isnan(values)):
        snapshot = values.copy()
        progressed = False
        for i in np.flatnonzero(np.isnan(snapshot)):
            lo, hi = max(0, i - half_window), min(n, i + half_window + 1)
            window = snapshot[lo:hi]
            avail = window[~np.isnan(window)]
            if avail.size:
                values[i] = float(np.mean(avail))
                progressed = True
        if not progressed:
            raise IngestError("missing-value repair made no progress")
    return values


def simulate_csv_lines(times: np.ndarray, paths: np.ndarray, start_date: str | None) -> bytes:
    """The simulate CSV of (times, paths): a header, then one line per path and time,
    labelled by the date start_date + round(t) or, without a start date, by "{:.10g}" of t."""
    if start_date is None:
        labels = ["{:.10g}".format(t) for t in times]
    else:
        labels = [str(np.datetime64(start_date) + int(round(t))) for t in times]
    lines = ["date,path_id,temperature"]
    for pid, row in enumerate(paths.tolist()):
        lines.extend(f"{label},{pid},{'{:.10g}'.format(v)}" for label, v in zip(labels, row))
    return ("\n".join(lines) + "\n").encode()


def gaussian_kde(x: np.ndarray, grid: np.ndarray, bw: float) -> np.ndarray:
    """Gaussian kernel density of the values x at the grid points, bandwidth bw."""
    kde = np.mean(np.exp(-0.5 * ((grid[:, None] - x[None, :]) / bw) ** 2), axis=1)
    kde /= bw * np.sqrt(2.0 * np.pi)
    return kde
