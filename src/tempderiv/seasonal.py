"""Deterministic time functions of the temperature model.

The seasonal mean and the seasonal volatility are both linear-plus-annual-
harmonic functions of time (in days),

    f(t) = k0 + k1*t + k2*sin(2*pi*t/365) + k3*cos(2*pi*t/365),

and the model repeatedly needs their integrals against exponential kernels:
the decaying integral K1(t, alpha) = int_0^t f(u) e^{-alpha(t-u)} du and the
growing integral K2(alpha, T) = int_0^T f(u) e^{alpha u} du, which is
e^{alpha T} K1(T, alpha).  K1 is closed form, derived from the four
elementary integrals; the tests certify both against adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

ANNUAL_OMEGA = 2.0 * np.pi / 365.0

# below this alpha*t the closed forms of k1 lose digits to cancellation
_SERIES_X = 1e-2


@dataclass(frozen=True)
class FourCoeffs:
    """Coefficients of a linear-plus-annual-harmonic function of time.

    k0 is the level, k1 the linear slope per day, k2/k3 the sine/cosine
    amplitudes of the annual harmonic (period fixed at 365 days).
    """

    k0: float
    k1: float
    k2: float
    k3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.k0, self.k1, self.k2, self.k3], float)


def eval_seasonal(coeffs: FourCoeffs, t):
    """Evaluate k0 + k1*t + k2*sin(2pi t/365) + k3*cos(2pi t/365) at t (days)."""
    t = np.asarray(t, float)
    wt = ANNUAL_OMEGA * t
    out = coeffs.k0 + coeffs.k1 * t + coeffs.k2 * np.sin(wt) + coeffs.k3 * np.cos(wt)
    return out if out.ndim else float(out)


def require_positive(vol: FourCoeffs, horizon: float) -> None:
    """Check nonnegativity of a volatility function on [0, horizon].

    Validated on a 1-day grid (plus the endpoint) with a numerical margin of 1e-9;
    sufficient for the smooth annual harmonics used here.  The degenerate
    sigma = 0 (deterministic dynamics) is allowed; genuinely negative dips
    are rejected.
    """
    if horizon < 0:
        raise DomainError(f"horizon must be >= 0, got {horizon}")
    grid = np.append(np.arange(0.0, horizon), horizon)
    vals = eval_seasonal(vol, grid)
    if np.min(vals) < -1e-9:
        tbad = float(grid[int(np.argmin(vals))])
        raise DomainError(
            f"volatility negative on [0, {horizon}]: sigma({tbad}) = {np.min(vals):.6g}"
        )


def _check_alpha(alpha: float) -> None:
    if not alpha > 0.0:
        raise DomainError(f"mean-reversion rate must be > 0, got {alpha}")


def _series(x, shift: int):
    """sum_{n>=0} (-x)^n / (n + shift)!, to double precision for x < _SERIES_X."""
    out = 0.0
    for n in reversed(range(8)):
        out = 1.0 / math.factorial(n + shift) - x * out
    return out


def k1(t, alpha: float, seasonal: FourCoeffs):
    """Decaying-kernel integral int_0^t f(u) e^{-alpha(t-u)} du in closed form.

    Parameters
    ----------
    t : float or array, days (>= 0)
    alpha : float, mean-reversion rate per day (> 0)
    seasonal : FourCoeffs of the integrand f

    Derived from the four elementary integrals (constant, linear, sine and
    cosine against the decaying kernel); agrees with adaptive quadrature to
    better than 1e-10 relative.
    """
    _check_alpha(alpha)
    t = np.asarray(t, float)
    w = ANNUAL_OMEGA
    e = np.exp(-alpha * t)
    den = alpha * alpha + w * w
    sw, cw = np.sin(w * t), np.cos(w * t)
    i0 = (1.0 - e) / alpha
    i1 = t / alpha - (1.0 - e) / alpha**2
    # both cancel as alpha t -> 0: Taylor series in x = alpha t below the threshold
    x = alpha * t
    small = x < _SERIES_X
    if np.any(small):
        i0 = np.where(small, t * _series(x, 1), i0)
        i1 = np.where(small, t * t * _series(x, 2), i1)
    i_sin = (alpha * sw - w * cw + w * e) / den
    i_cos = (alpha * cw + w * sw - alpha * e) / den
    out = seasonal.k0 * i0 + seasonal.k1 * i1 + seasonal.k2 * i_sin + seasonal.k3 * i_cos
    return out if out.ndim else float(out)


def k2(T, alpha: float, vol: FourCoeffs):
    """Growing-kernel integral int_0^T f(u) e^{alpha u} du = e^{alpha T} K1(T, alpha).

    Overflows to inf for alpha*T beyond the float64 range (~709); the
    quantities the pricing code actually needs are formed from the decayed
    ratio k1-style integrals instead.
    """
    _check_alpha(alpha)
    T_arr = np.asarray(T, float)
    require_positive(vol, float(np.max(T_arr)))
    with np.errstate(over="ignore"):
        out = np.exp(alpha * T_arr) * k1(T_arr, alpha, vol)
    return out if out.ndim else float(out)
