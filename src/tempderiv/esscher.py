"""Selection of the pricing measure by exponential tilting.

The tilt parameter theta* is pinned by requiring the discounted temperature
to be a martingale over (0, T):

    E_theta[ e^{-r~ T} T_T ] = T_0,
    <=>  l_V'(theta*) = e^{(alpha + r~)T} (D(0) - D(T)) / K2(alpha, T),

where r~ = r/365 is the per-day rate, D(t) = e^{-r~ t}(e^{-alpha t}T0 +
alpha K1(t, alpha)) is the discounted deterministic part of T_t and
K2(alpha,T) = int_0^T sigma_u e^{alpha u} du.  The residual is evaluated in
the equivalent overflow-free form e^{r~ T}(T0 - D(T)) / J with
J = int_0^T sigma_u e^{-alpha(T-u)} du = e^{-alpha T} K2.

Under the tilted measure the noise stays in the Gamma-time-changed family
with drift mu1 + theta and Gamma rate b * A1(theta): `transformed_timechange`
(defined in `charfun`, re-exported here), so l_V'(theta) is the first
cumulant of the transformed time change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charfun import (ModelParams, a1, esscher_interval, transformed_timechange,
                      v_cumulants)
from .errors import DomainError, NoBracketError
from .seasonal import k1

_EDGE_MARGIN = 1e-6  # relative shrink of the admissible interval at each end


@dataclass(frozen=True)
class ThetaSolution:
    """Root of the martingale condition and its residual."""

    theta: float
    residual: float


def _martingale_target(p: ModelParams, rate: float, horizon_T: float) -> float:
    if rate < 0.0:
        raise DomainError(f"interest rate must be >= 0, got {rate}")
    r_day = rate / 365.0  # the per-day rate r~
    disc_T = np.exp(-r_day * horizon_T) * p.det_mean(horizon_T)
    j_int = k1(horizon_T, p.alpha, p.vol)  # e^{-alpha T} K2(alpha, T)
    if not j_int > 0.0:
        raise DomainError("volatility kernel integral K2 is not positive")
    return float(np.exp(r_day * horizon_T) * (p.t0 - disc_T) / j_int)


def martingale_residual(theta: float, p: ModelParams, rate: float,
                        horizon_T: float) -> float:
    """Residual g(theta) of the martingale condition; g(theta*) = 0."""
    if not horizon_T > 0:
        raise DomainError(f"horizon_T must be > 0, got {horizon_T}")
    l_prime = v_cumulants(transformed_timechange(p.timechange, theta))[0]
    return l_prime - _martingale_target(p, rate, horizon_T)


def solve_theta(p: ModelParams, rate: float, horizon_T: float) -> ThetaSolution:
    """Solve the martingale condition l_V'(theta) = c for the tilt parameter theta*
    at the yearly interest rate `rate` (>= 0).

    The target c does not depend on theta, and l_V'(theta) =
    a(mu1+theta)/(b A1(theta)) rises from -inf to +inf across the admissible
    interval, so theta* is the one root there of the quadratic

        (c/2) theta^2 + (a + c mu1) theta + (a mu1 - c b) = 0,

    whose discriminant a^2 + c^2 (mu1^2 + 2b) is positive.  It is taken in
    the cancellation-free form q = -(B + sign(B) sqrt(D))/2, roots C/q and
    q/A; c = 0 gives theta* = -mu1.

    Raises NoBracketError when theta* lies within a relative margin of 1e-6
    of either end of the interval, quoting the residual at both shrunk ends
    (the residual is increasing, so it has no sign change between them).
    """
    tc = p.timechange
    c = _martingale_target(p, rate, horizon_T)
    quad_a, quad_b, quad_c = 0.5 * c, tc.a + c * tc.mu1, tc.a * tc.mu1 - c * tc.b
    disc = tc.a * tc.a + c * c * (tc.mu1 * tc.mu1 + 2.0 * tc.b)
    q = -0.5 * (quad_b + np.copysign(np.sqrt(disc), quad_b))
    roots = [quad_c / q] if c == 0.0 else [quad_c / q, q / quad_a]
    theta = float(max(roots, key=lambda t: a1(t, tc)))  # the root with A1(theta) > 0

    lo, hi = esscher_interval(tc)
    margin = _EDGE_MARGIN * (hi - lo)
    lo, hi = lo + margin, hi - margin
    if not lo < theta < hi:
        g = lambda t: martingale_residual(t, p, rate, horizon_T)
        raise NoBracketError(
            f"martingale residual has no sign change on the admissible interval "
            f"[{lo:.6g}, {hi:.6g}]: g(lo)={g(lo):.6g}, g(hi)={g(hi):.6g}"
        )
    return ThetaSolution(theta=theta, residual=martingale_residual(theta, p, rate, horizon_T))

