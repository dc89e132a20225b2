"""Cumulant exponents and characteristic functions of the temperature model.

The model is

    dT_t = alpha (s_t - T_t) dt + sigma_t dV_t,      V_t = B_{R_t} + mu1 R_t,

with R a Gamma subordinator (shape rate ``a``, rate ``b``).  The temperature
solves T_t = e^{-alpha t} T_0 + alpha K1(t, alpha) + int_0^t sigma_u
e^{-alpha(t-u)} dV_u, so every characteristic function reduces to the
deterministic phase factor times exp of an integral of the V cumulant
exponent along a deterministic kernel:

    E exp(i int f dV) = exp( int l_V(i f(s)) ds ),
    l_V(w) = l_R(mu1 w + w^2/2) = -a Log A1(w),
    A1(w)  = 1 - (mu1 w + w^2/2)/b.

Under the exponential tilt with parameter theta the exponent becomes
l_V(w + theta) - l_V(theta); equivalently V stays in the same family with
drift mu1 + theta and Gamma rate b * A1(theta).  Every function that takes
a tilt applies it once, as that change of parameters
(`transformed_timechange`), and then works on the physical-measure formulas.

The kernel integrals are evaluated by one rule, Gauss-Legendre on each unit
day piece with a node count sized from alpha (`unit_rule`, also used by the
calibrator and the simulator), with the exponent written in real
arithmetic (`tilted_exponent_sum`).  For real frequencies the Log argument
has real part >= 1, so it never reaches the branch cut.  The CAT index sums
its day pieces on panels graded back from the horizon (`_cat_parts`): the
per-day exponent is smooth in the day index apart from a boundary layer of
width 1/alpha at T, so the days of a panel longer than 16 days are summed
on the 16-point Gauss rule of its days (positive weights, exact for degree
< 32), and horizons up to 31 days day by day.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .seasonal import FourCoeffs, eval_seasonal, k1, require_positive

# The one quadrature rule of the package, Gauss-Legendre on a unit piece [0, 1].  On a day
# piece the kernel is sigma_s e^{-alpha(1 - x)} times a constant, and the exponent's branch
# points lie where the kernel is purely imaginary: at Im x = +-pi/(2 alpha), as sigma's annual
# harmonic barely turns within a day.  So the n-node rule errs like e^{-2nL}, L =
# asinh(pi/alpha) (Trefethen, Approximation Theory and Approximation Practice, 2013, Thm 19.3),
# and n = ceil(RULE_C / L) with RULE_C = log(1/tol)/2 brings that to tol = 64 eps = 2^-46,
# below the rounding of the day and panel sums it feeds.  Below alpha = 0.002 that gives 2
# nodes, which miss sigma's annual harmonic by 1e-11 of phi; 3 nodes integrate it to below
# eps, so the rule has at least 3.
RULE_C = 0.5 * math.log(1.0 / (64.0 * np.finfo(float).eps))


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss-Legendre rule on [0, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def unit_rule(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the within-day rule at mean-reversion rate alpha: Gauss-Legendre
    on [0, 1] with max(3, ceil(RULE_C / asinh(pi/alpha))) nodes (4, 5 and 7 at alpha = 0.1,
    0.25 and 0.5; 13 at 2 and 27 at 5).  A piece of length h at rate alpha is a unit piece
    at rate alpha h."""
    return _gauss_legendre(max(3, math.ceil(RULE_C / math.asinh(math.pi / alpha))))


@dataclass(frozen=True)
class GammaTimeChange:
    """Gamma stochastic clock plus drift: V_t = B_{R_t} + mu1 R_t."""

    a: float
    b: float
    mu1: float = 0.0

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise DomainError(f"Gamma parameters must be positive, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class ModelParams:
    """Full temperature-model parameter set.

    `horizon` is the working horizon (days) on which the volatility function
    is required to be strictly positive; checked at construction.
    """

    alpha: float
    t0: float
    seasonal: FourCoeffs
    vol: FourCoeffs
    timechange: GammaTimeChange
    horizon: float = 730.0

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise DomainError(f"alpha must be > 0, got {self.alpha}")
        require_positive(self.vol, self.horizon)

    def det_mean(self, t):
        """Deterministic part of T_t: e^{-alpha t} T0 + alpha K1(t, alpha)."""
        t = np.asarray(t, float)
        out = np.exp(-self.alpha * t) * self.t0 + self.alpha * k1(t, self.alpha, self.seasonal)
        return out if out.ndim else float(out)


def a1(u, tc: GammaTimeChange):
    """Quadratic factor A1(u) = 1 - mu1 u / b - u^2 / (2b)."""
    u = np.asarray(u)
    out = 1.0 - (tc.mu1 * u + 0.5 * u * u) / tc.b
    return out if out.ndim else out[()]


def transformed_timechange(tc: GammaTimeChange, theta: float) -> GammaTimeChange:
    """Time-change parameters of V under the theta-tilted measure.

    l_V^theta(u) = -a Log(1 - (u(mu1+theta) + u^2/2)/(b A1(theta))): the same
    family with mu1' = mu1 + theta and b' = b A1(theta).  This is the one
    place where a tilt is checked: A1(theta) must be positive.
    """
    theta = float(theta)
    a1_theta = float(a1(theta, tc))
    if not a1_theta > 0.0:
        raise DomainError(
            f"theta={theta} outside the admissible tilt domain (A1(theta)={a1_theta:.6g} <= 0)"
        )
    return GammaTimeChange(a=tc.a, b=tc.b * a1_theta, mu1=tc.mu1 + theta)


def esscher_interval(tc: GammaTimeChange) -> tuple[float, float]:
    """Open interval of admissible tilt parameters, the roots of A1."""
    root = np.sqrt(tc.mu1 * tc.mu1 + 2.0 * tc.b)
    return (-tc.mu1 - root, -tc.mu1 + root)


def v_cumulants(tc: GammaTimeChange) -> tuple[float, float, float, float]:
    """Cumulants kappa_1..kappa_4 of V_1 = B_{R_1} + mu1 R_1.

    The derivatives of l_V at 0; with x = mu1^2 / b,

        kappa_1 = a mu1 / b,              kappa_2 = a (1 + x) / b,
        kappa_3 = a mu1 (3 + 2x) / b^2,   kappa_4 = 3a (1 + 4x + 2x^2) / b^2.

    Under the theta-tilted measure they are l_V^(n)(theta), the cumulants
    of `transformed_timechange(tc, theta)`.
    """
    a, b, mu1 = tc.a, tc.b, tc.mu1
    x = mu1 * mu1 / b
    return (a * mu1 / b, a * (1.0 + x) / b, a * mu1 * (3.0 + 2.0 * x) / (b * b),
            3.0 * a * (1.0 + 4.0 * x + 2.0 * x * x) / (b * b))


def tilted_exponent_sum(kern, u, tc: GammaTimeChange, pieces) -> np.ndarray:
    """sum_j pieces[j] sum_n w_n l_V(i u kern[j, ..., n]) over the pieces and
    the unit-rule nodes, for real u.

    `kern` holds the kernel at the nodes of the n-node unit rule (`unit_rule`)
    of each piece along its last axis, n = kern.shape[-1], and one entry per
    piece along its first; the rule's weights are read from n.  `pieces` weights the
    pieces (piece lengths, or panel row weights), and the result has shape
    kern.shape[1:-1] + u.shape.  `kern[None]` with pieces=np.ones(1) gives
    each piece's value on its own.  A tilt enters through `tc` (see
    `transformed_timechange`).

    With r = u/b the Log argument is A = 1 + q - ip, q = k^2 u r/2 and
    p = k mu1 r, so in real arithmetic

        log|A|^2 = log1p(k^2 c2 + k^4 c4),  c2 = u r + (mu1 r)^2,  c4 = (u r/2)^2,
        arg A    = atan2(-k mu1 r, 1 + k^2 u r/2),

    and each argument is one (k^2, k^4) or (1, k^2) matrix product with a
    (2, n_u) coefficient matrix.  Re A = 1 + q >= 1: the Log never reaches
    its branch cut.  The (k^2, k^4) and (1, k^2) factors of all nodes are
    built once per call, by two np.stack calls on the (nodes, pieces * rest)
    kernel; the nodes are then taken one (pieces, u) array at a time and each
    is reduced at once by a matrix-vector product, as large kernels are
    memory-bound (one pass over all nodes at once is slower).
    """
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
    k = np.moveaxis(kern, -1, 0).reshape(kern.shape[-1], -1)
    k2 = k * k
    mod_fac = np.stack([k2, k2 * k2], axis=-1)
    den_fac = np.stack([np.ones_like(k2), k2], axis=-1)
    for w_n, k_n, mod_n, den_n in zip(_gauss_legendre(len(k))[1], k, mod_fac, den_fac):
        node_mod2 = np.log1p(mod_n @ mod_coef)
        node_phase = np.arctan2(np.multiply.outer(k_n, num_coef), den_n @ den_coef)
        weights = w_n * pieces
        log_mod2 += weights @ node_mod2.reshape(pieces.size, log_mod2.size)
        phase += weights @ node_phase.reshape(pieces.size, phase.size)
    return (-tc.a * (0.5 * log_mod2 + 1j * phase)).reshape(shape + u.shape)


def charfun_T(u, t: float, p: ModelParams, theta: float = 0.0):
    """Characteristic function of T_t under the theta-tilted measure.

    E[e^{iuT_t}] = exp(iu(e^{-alpha t}T0 + alpha K1(t,alpha)))
                 * exp( int_0^t l_V^theta(i u sigma_s e^{-alpha(t-s)}) ds ).

    theta = 0 is the physical measure.  Accepts scalar or array u (real).
    """
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    tc = transformed_timechange(p.timechange, theta)
    det = p.det_mean(t)
    # unit pieces of [0, t]; the last one may be partial
    edges = np.minimum(np.arange(np.ceil(t) + 1.0), t)
    lengths = np.diff(edges)
    s = edges[:-1, None] + lengths[:, None] * unit_rule(p.alpha)[0]
    kern = eval_seasonal(p.vol, s) * np.exp(-p.alpha * (t - s))
    u = np.asarray(u, float)
    out = np.exp(1j * u * det + tilted_exponent_sum(kern, u, tc, pieces=lengths))
    return out if out.ndim else complex(out)


def cat_day_weights(alpha: float, horizon_T: int, days=None) -> np.ndarray:
    """Weight of day i in the CAT index, sum_{k=i+1}^T e^{-alpha(k-i-1)}: the closed
    geometric sum expm1(-alpha (T - i)) / expm1(-alpha), at `days` (default 0..T-1)."""
    days = np.arange(horizon_T) if days is None else days
    return np.expm1(-alpha * (horizon_T - days)) / np.expm1(-alpha)


# CAT panels hold 1, 2, 4, ... days back from T, at most PANEL_CAP; a panel of more
# than PANEL_POINTS days is summed on the PANEL_POINTS-point Gauss rule of its days
PANEL_POINTS = 16
PANEL_CAP = 64


def _panels(horizon_T: int) -> list[tuple[int, int]]:
    """(first day, days) of the panels covering days 0..T-1, in ascending order.

    Laid back from T with 1, 2, 4, ... days, capped at PANEL_CAP; the first
    panel takes whatever days remain.  For T <= 31 every panel is exact.
    """
    panels, end, size = [], horizon_T, 1
    while end > 0:
        start = max(end - size, 0)
        panels.append((start, end - start))
        end, size = start, min(2 * size, PANEL_CAP)
    return panels[::-1]


@functools.cache
def _panel_rule(n_days: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and weights summing a smooth f over the days 0..n_days-1 of a panel.

    Up to PANEL_POINTS days the offsets are the days, each with weight 1.
    Beyond, they are the PANEL_POINTS-point Gauss rule of the uniform measure on
    the days (Golub & Welsch 1969): the eigenvalues of the Jacobi matrix of the
    discrete Chebyshev polynomials, centred on the panel's middle, and n_days
    times the squared first components of its eigenvectors.  Every weight is
    positive, so |phi| does not increase with |u| (`_live`), and the rule is
    exact for polynomials of degree < 2 PANEL_POINTS in the day index.
    """
    if n_days <= PANEL_POINTS:
        return np.arange(n_days, dtype=float), np.ones(n_days)
    k = np.arange(1, PANEL_POINTS)
    beta = 0.5 * k * np.sqrt((n_days * n_days - k * k) / (4.0 * k * k - 1.0))
    nodes, vectors = np.linalg.eigh(np.diag(beta, -1) + np.diag(beta, 1))
    return 0.5 * (n_days - 1) + nodes, n_days * vectors[0] ** 2


@functools.lru_cache(maxsize=8)  # an alpha sweep of a few rows plus its base model
def _cat_parts(p: ModelParams, horizon_T: int) -> tuple[float, np.ndarray, np.ndarray]:
    """sum_k m_k, the CAT kernel at the unit-rule nodes of each pseudo-day,
    shape (rows, nodes), and the weight of each row.

    Built once per (p, horizon_T) and kept for the last 8 pairs, so that
    `cat_cumulants` and `charfun_cat` of one price share one build.  The key
    is the whole frozen ModelParams (every field, `horizon` too) and T; the
    arrays are read-only, so no caller can change a kept build.

    On day piece [t, t + 1], s = t + x_n, the kernel is sigma_s e^{-alpha(1 - x_n)}
    times w(t), the geometric sum of g(s) (`cat_day_weights`).  The rows are
    the pseudo-days t of the panels (`_panels`, `_panel_rule`) in ascending
    order: every day of a panel of at most PANEL_POINTS days, with weight 1,
    and the PANEL_POINTS Gauss points of a longer one.  So for T <= 31 the
    rows are the days 0..T-1.
    """
    if horizon_T < 1:
        raise DomainError(f"horizon_T must be a positive integer number of days, got {horizon_T}")
    det_sum = float(np.sum(p.det_mean(np.arange(horizon_T, dtype=float) + 1.0)))
    panels = [(start, *_panel_rule(n_days)) for start, n_days in _panels(horizon_T)]
    t = np.concatenate([start + offsets for start, offsets, _ in panels])
    weights = np.concatenate([w for _, _, w in panels])
    nodes = unit_rule(p.alpha)[0]
    s = t[:, None] + nodes
    kern = (eval_seasonal(p.vol, s) * np.exp(-p.alpha * (1.0 - nodes))
            * cat_day_weights(p.alpha, horizon_T, t)[:, None])
    kern.flags.writeable = weights.flags.writeable = False
    return det_sum, kern, weights


# |phi| below which charfun_cat returns 0, so that the COS sums skip those terms.  A
# dropped coefficient has |A_k| <= (2/(b2-b1)) PHI_FLOOR, so at most n of them move a
# density value by at most n (2/(b2-b1)) PHI_FLOOR.  The smallest value printed is the
# sum's rounding bound n eps sum_k |A_k| >= n eps (2/(b2-b1)), as A_0 = (2/(b2-b1)) Re phi(0),
# and half a unit in its 10th digit is at least 5e-11 of it.  So PHI_FLOOR <= 5e-11 eps =
# 1.1e-26 moves no printed value by half a unit in its last digit; 1e-26 is the power of
# ten below.
PHI_FLOOR = 1e-26
_LOG_FLOOR = float(np.log(PHI_FLOOR))


def _live(kern, u: np.ndarray, tc: GammaTimeChange, pieces) -> np.ndarray:
    """Mask of the u at which |exp(tilted_exponent_sum(kern, u, tc, pieces))| can reach
    PHI_FLOOR.

    Its log is -(a/2) sum_j pieces_j sum_n w_n log1p(k^2 c2 + k^4 c4).  c2 and c4 grow
    with |u|, and the panel weights pieces_j and the unit weights w_n are positive, so it
    does not increase with |u|.  It is taken at every 8th u, and every u as far from 0 as
    the nearest of those below log(PHI_FLOOR) is dead.  A NaN u is not dead, so that its
    NaN propagates.
    """
    coarse = u.ravel()[::8]
    r = coarse / tc.b
    ur = coarse * r
    k2 = (kern * kern)[..., None]
    log_mod = -0.5 * tc.a * (pieces @ (_gauss_legendre(kern.shape[-1])[1] @ np.log1p(
        k2 * (ur + (tc.mu1 * r) ** 2) + k2 * k2 * (0.25 * ur * ur))))
    dead = np.abs(coarse[log_mod < _LOG_FLOOR])
    if not dead.size:
        return np.ones(u.shape, bool)
    return ~(np.abs(u) >= dead.min())


def charfun_cat(u, p: ModelParams, theta: float = 0.0, horizon_T: int = 30):
    """Characteristic function of the cumulated temperature xi = sum_{k=1}^T T_k.

    The day sum is exchanged with the stochastic integral:
    xi = sum_k m_k + int_0^T sigma_s g(s) dV_s with
    g(s) = sum_{k>=ceil(s)} e^{-alpha(k-s)} (closed geometric sum), an exact
    evaluation; the integrand is smooth on each day piece and integrated
    piecewise.  The day pieces are summed on the graded panels of
    `_cat_parts`: to rounding of the day-by-day sum, with 127 rows instead of
    365 at T = 365, and day by day for T <= 31.

    Where |phi| is below PHI_FLOOR phi is returned as exactly 0.  |phi| does
    not increase with |u| (the deterministic factor has modulus 1 and each
    kernel factor |A|^(-a w), w > 0, falls as |u| grows), so a pass over the
    log-modulus at every 8th u finds the frequencies that are dead, and the
    complex exponent is formed at the others only.
    """
    tc = transformed_timechange(p.timechange, theta)
    det_sum, kern, weights = _cat_parts(p, int(horizon_T))
    u = np.asarray(u, float)
    live = _live(kern, u, tc, weights)
    expo = 1j * u[live] * det_sum + tilted_exponent_sum(kern, u[live], tc, pieces=weights)
    out = np.zeros(u.shape, complex)
    out[live] = np.where(expo.real < _LOG_FLOOR, 0.0, np.exp(expo))
    return out if out.ndim else complex(out)


def cat_cumulants(p: ModelParams, theta: float, horizon_T: int) -> tuple[float, float]:
    """Mean and variance of the cumulated temperature under the theta-tilted measure.

    The n-th cumulant of xi = sum_k m_k + int_0^T sigma_s g(s) dV_s is
    l_V^(n)(theta) int_0^T (sigma g)^n ds, plus sum_k m_k for n = 1:

        mean     = sum_k m_k + l_V'(theta)  int sigma g ds,
        variance =             l_V''(theta) int (sigma g)^2 ds,

    with l_V^(n)(theta) from `v_cumulants` of the transformed time change
    and both integrals on the unit rule over the rows and row weights of
    `charfun_cat`.
    """
    kappa = v_cumulants(transformed_timechange(p.timechange, theta))
    det_sum, kern, weights = _cat_parts(p, int(horizon_T))
    unit_weights = _gauss_legendre(kern.shape[-1])[1]
    mean = det_sum + kappa[0] * np.sum(weights * (kern @ unit_weights))
    variance = kappa[1] * np.sum(weights * ((kern * kern) @ unit_weights))
    return float(mean), float(variance)
