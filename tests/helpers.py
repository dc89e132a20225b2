"""Reference computations the tests check the library against.

- `quad_exp_kernel`: adaptive quadrature of the exponential-kernel
  integrals, the oracle of the closed forms `k1` and `k2`;
- `cumulant_V`: the cumulant exponent of V in complex arithmetic,
  l_V(u) = -a Log A1(u), through `laplace_exponent_gamma` and its
  branch-cut-checked `log1p`; the oracle of `v_cumulants`,
  `transformed_timechange` and the real-arithmetic exponent sums;
- `empirical_charfun`: the sample mean of exp(i u x) at any u;
- `innovation_charfun`: the charfun of a one-day innovation through
  `tilted_exponent_sum`, the oracle of the time-change fit's model, which
  `calibrate._cf_functions` forms with the 1/A its Jacobian needs;
- `log_likelihood`: the innovations' log likelihood from the cosine density;
- `leg_value`: one cosine-expanded payoff leg, from the coefficients and
  per-term leg contributions that `price_strangle` sums;
- `day_kernel`: the CAT kernel of every day, which `charfun_cat` sums on
  graded panels;
- `rule_charfun_cat`: the CAT charfun on the panels of `charfun_cat` with
  the n-node Gauss-Legendre rule on each piece, whatever the rule that
  `unit_rule` sizes from alpha;
- `node_stack_exponent_sum`: `tilted_exponent_sum` with each node's factors
  stacked inside the node loop, which the library builds for all nodes at once;
- `full_charfun_cat`, `full_strangle`: the CAT charfun at every frequency and
  the strangle prices from every cosine coefficient, which `price_strangle`
  sums only up to the last coefficient whose |phi| reaches `PHI_FLOOR`;
- `basis_density`: the cosine density at any x from the (points x terms + 1)
  basis matrix, the oracle of `density_from_charfun`'s FFT;
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
                       cos_coefficients, truncation_bounds, v_cumulants)
from tempderiv.calibrate import kernel_weight
from tempderiv.charfun import (_cat_parts, _gauss_legendre, _panel_rule, _panels,
                               cat_day_weights, tilted_exponent_sum, transformed_timechange,
                               unit_rule)
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


def _log1p_complex(z: np.ndarray) -> np.ndarray:
    """Principal-branch log(1+z) for complex z, accurate for small |z|.

    Raises DomainError when 1+z lands on the non-positive real axis.
    """
    z = np.asarray(z, complex)
    w = 1.0 + z
    if np.any((w.real <= 0.0) & (w.imag == 0.0)):
        raise DomainError("logarithm argument on the non-positive real axis (branch cut)")
    den = w - 1.0
    safe = np.where(den == 0, 1.0, den)
    return np.where(den == 0, z, z * np.log(w) / safe)


def laplace_exponent_gamma(u, tc: GammaTimeChange):
    """Gamma-subordinator cumulant exponent l_R(u) = -a Log(1 - u/b)."""
    u = np.asarray(u, complex)
    out = -tc.a * _log1p_complex(-u / tc.b)
    return out if out.ndim else complex(out)


def cumulant_V(u, tc: GammaTimeChange, theta: float = 0.0):
    """Cumulant exponent of V under the theta-tilted measure.

    theta = 0 gives l_V(u) = -a Log A1(u); otherwise
    l_V^theta(u) = l_V(u + theta) - l_V(theta), which is l_V(u) of the
    transformed time change.
    """
    tc = transformed_timechange(tc, theta)
    u = np.asarray(u, complex)
    return laplace_exponent_gamma(u * tc.mu1 + 0.5 * u * u, tc)


def empirical_charfun(samples, u):
    """Empirical characteristic function (1/n) sum exp(i u x_j)."""
    x = np.asarray(samples, float)
    if x.size == 0:
        raise DomainError("empirical charfun of an empty sample")
    u_arr = np.asarray(u, float)
    out = np.mean(np.exp(1j * np.multiply.outer(u_arr, x)), axis=-1)
    return out if u_arr.ndim else complex(out)


def innovation_charfun(u, a: float, b: float, mu1: float, alpha: float,
                       vol_scale: float | np.ndarray = 1.0, theta: float = 0.0):
    """Charfun of the one-day innovation int_0^1 vol_scale e^{-alpha(1-s)} dV_s.

    `tilted_exponent_sum` on one unit piece of weight 1; vectorised over u
    and over an array `vol_scale` (result shape vol_scale.shape + u.shape).
    """
    tc = transformed_timechange(GammaTimeChange(a, b, mu1), theta)
    u_arr = np.atleast_1d(np.asarray(u, float))
    kern = np.multiply.outer(vol_scale, np.exp(-alpha * (1.0 - unit_rule(alpha)[0])))
    out = np.exp(tilted_exponent_sum(kern[None], u_arr, tc, pieces=np.ones(1)))
    return out if np.ndim(u) or np.ndim(vol_scale) else complex(out[0])


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
        vals = basis_density(charfun_at, grid, x[inside], terms)
        dens[inside] = np.maximum(vals, _LIKELIHOOD_FLOOR)
    return float(np.sum(np.log(dens)))


def leg_value(charfun_at, grid: CosGrid, strike: float, call: bool, terms: int) -> float:
    """Undiscounted expectation of one payoff leg (the call, or else the put) from
    `terms` + 1 cosine coefficients."""
    coeffs = cos_coefficients(charfun_at, grid, terms)
    return float(np.sum(_leg_terms(coeffs, grid, strike, call)))


def day_kernel(p, horizon_T: int) -> np.ndarray:
    """The CAT kernel at the nodes x_n of `unit_rule(p.alpha)` on every day 0..T-1, shape
    (T, nodes): sigma_s e^{-alpha(1 - x_n)} times the day's geometric sum, at s = j + x_n.
    Summed with weight 1 per day it is the CAT exponent."""
    nodes = unit_rule(p.alpha)[0]
    s = np.arange(horizon_T, dtype=float)[:, None] + nodes
    return (eval_seasonal(p.vol, s) * np.exp(-p.alpha * (1.0 - nodes))
            * cat_day_weights(p.alpha, horizon_T)[:, None])


def rule_charfun_cat(u, p, theta: float, horizon_T: int, n_nodes: int) -> np.ndarray:
    """The CAT charfun at every u on the panel rows of `_cat_parts`, with the
    n_nodes-node Gauss-Legendre rule on each unit piece."""
    nodes = _gauss_legendre(n_nodes)[0]
    panels = [(start, *_panel_rule(n_days)) for start, n_days in _panels(horizon_T)]
    t = np.concatenate([start + offsets for start, offsets, _ in panels])
    weights = np.concatenate([w for _, _, w in panels])
    kern = (eval_seasonal(p.vol, t[:, None] + nodes) * np.exp(-p.alpha * (1.0 - nodes))
            * cat_day_weights(p.alpha, horizon_T, t)[:, None])
    det_sum = np.sum(p.det_mean(np.arange(horizon_T, dtype=float) + 1.0))
    tc = transformed_timechange(p.timechange, theta)
    u = np.asarray(u, float)
    return np.exp(1j * u * det_sum + tilted_exponent_sum(kern, u, tc, pieces=weights))


def node_stack_exponent_sum(kern, u, tc: GammaTimeChange, pieces) -> np.ndarray:
    """`tilted_exponent_sum` with the (k^2, k^4) and (1, k^2) factors stacked node by
    node, two np.stack calls per node, in the same order of operations, with the
    weights of the Gauss-Legendre rule of kern.shape[-1] nodes."""
    u = np.asarray(u, float)
    kern = np.asarray(kern, float)
    pieces = np.asarray(pieces, float)
    r = u.ravel() / tc.b
    ur = u.ravel() * r
    mod_coef = np.stack([ur + (tc.mu1 * r) ** 2, 0.25 * ur * ur])
    den_coef = np.stack([np.ones_like(ur), 0.5 * ur])
    num_coef = -tc.mu1 * r
    shape = kern.shape[1:-1]
    log_mod2 = np.zeros(np.prod(shape, dtype=int) * r.size)
    phase = np.zeros_like(log_mod2)
    for w_n, k_n in zip(_gauss_legendre(kern.shape[-1])[1], np.moveaxis(kern, -1, 0)):
        k = k_n.ravel()
        k2 = k * k
        node_mod2 = np.log1p(np.stack([k2, k2 * k2], axis=1) @ mod_coef)
        node_phase = np.arctan2(np.multiply.outer(k, num_coef),
                                np.stack([np.ones_like(k2), k2], axis=1) @ den_coef)
        weights = w_n * pieces
        log_mod2 += weights @ node_mod2.reshape(pieces.size, log_mod2.size)
        phase += weights @ node_phase.reshape(pieces.size, phase.size)
    return (-tc.a * (0.5 * log_mod2 + 1j * phase)).reshape(shape + u.shape)


def full_charfun_cat(u, p, theta: float, horizon_T: int) -> np.ndarray:
    """The CAT charfun evaluated at every u, however small |phi| is."""
    tc = transformed_timechange(p.timechange, theta)
    det_sum, kern, weights = _cat_parts(p, horizon_T)
    u = np.asarray(u, float)
    return np.exp(1j * u * det_sum + tilted_exponent_sum(kern, u, tc, pieces=weights))


def full_strangle(contract, p, theta: float, grid: CosGrid) -> tuple[float, float]:
    """The strangle price and its half-term price from all max(n1, n2) + 1 coefficients
    of `full_charfun_cat`, each leg summed over its n + 1 and n // 2 + 1 terms."""
    charfun_at = lambda u: full_charfun_cat(u, p, theta, contract.horizon_T)
    coeffs = cos_coefficients(charfun_at, grid, max(grid.n1, grid.n2))
    call = _leg_terms(coeffs[: grid.n1 + 1], grid, contract.k1_strike, call=True)
    put = _leg_terms(coeffs[: grid.n2 + 1], grid, contract.k2_strike, call=False)

    def value(n1: int, n2: int) -> float:
        legs = contract.d1 * np.sum(call[: n1 + 1]) + contract.d2 * np.sum(put[: n2 + 1])
        return float(contract.discount * legs)

    return (value(grid.n1, grid.n2),
            value(max(grid.n1 // 2, 1), max(grid.n2 // 2, 1)))


def basis_density(charfun_at, grid: CosGrid, x, terms: int) -> np.ndarray:
    """The cosine density at any x from all terms + 1 coefficients (k = 0
    halved), summed on the (points x terms + 1) cosine basis, with values below the
    matrix sum's rounding bound n eps sum_k |A_k| set to 0."""
    x = np.asarray(x, float)
    coeffs = cos_coefficients(charfun_at, grid, terms)
    k = np.arange(terms + 1)
    basis = np.cos(np.multiply.outer(x - grid.b1, k) * np.pi / grid.width)
    out = basis @ (np.where(k == 0, 0.5, 1.0) * coeffs)
    bound = coeffs.size * np.finfo(float).eps * np.sum(np.abs(coeffs))
    out = np.where(np.abs(out) < bound, 0.0, out)
    return out if out.ndim else float(out)


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
