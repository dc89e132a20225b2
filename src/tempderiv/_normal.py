"""The normal CDF, by Cody's erfc, and the Kolmogorov survival function: the
special functions of `simulate` and of `data`'s KS test, which share no import."""

import math

import numpy as np

# Cody's (1969) coefficients: erf(x) = x R(x^2) on |x| <= 0.46875 (A, B);
# erfc(y) e^{y^2} = R(y) on (0.46875, 4] (C, D) and = (1/sqrt(pi) - R(1/y^2)/y^2)/y
# beyond 4 (P, Q)
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
           2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
           1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628695e-1


def _cody_ratio(z: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    """P(z)/Q(z) by Horner's rule, n = len(den): num lists P's coefficients of
    z^(n-1) down to z^0, then that of z^n; den lists monic Q's of z^(n-1) down
    to z^0."""
    p = num[-1] * z
    q = z.copy()
    for a, b in zip(num[:-2], den[:-1]):
        p += a
        p *= z
        q += b
        q *= z
    return (p + num[-2]) / (q + den[-1])


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function, elementwise, by the rational Chebyshev
    approximations of Cody (1969, Math. Comp. 23), as in his CALERF routine:
    1 - x R(x^2) for |x| <= 0.46875, and e^{-x^2} R(|x|) up to 4 and
    e^{-x^2} (1/sqrt(pi) - R(1/x^2)/x^2)/|x| beyond, with e^{-x^2} split in
    two factors so that x^2 is not rounded; erfc(-y) = 2 - erfc(y)."""
    x = np.asarray(x, float)
    y = np.abs(x)
    out = np.empty_like(y)
    small = y <= 0.46875
    xs = x[small]
    out[small] = 1.0 - xs * _cody_ratio(xs * xs, _ERF_A, _ERF_B)
    large = ~small
    yl = y[large]
    mid = yl <= 4.0
    r = np.empty_like(yl)
    r[mid] = _cody_ratio(yl[mid], _ERFC_C, _ERFC_D)
    yb = yl[~mid]
    z = 1.0 / (yb * yb)
    r[~mid] = (_INV_SQRT_PI - z * _cody_ratio(z, _ERFC_P, _ERFC_Q)) / yb
    ysq = np.trunc(yl * 16.0) / 16.0
    r *= np.exp(-ysq * ysq) * np.exp((ysq - yl) * (yl + ysq))
    neg = x[large] < 0.0
    r[neg] = 2.0 - r[neg]
    out[large] = r
    return out


def _norm_cdf(d: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise: Phi(d) = erfc(-d/sqrt(2))/2."""
    return 0.5 * _erfc(d * -np.sqrt(0.5))


def _kolmogorov_sf(x: float) -> float:
    """P(K > x) by the classical series, four terms each (the first term dropped is
    e^{-48} of the first or less): 2 sum_k (-1)^(k-1) e^{-2 k^2 x^2} for x >= 1, and
    the Jacobi theta form 1 - (sqrt(2 pi)/x) sum_k e^{-(2k-1)^2 pi^2/(8 x^2)} below."""
    if x >= 1.0:
        return 2.0 * sum((-1.0) ** (k - 1) * math.exp(-2.0 * k * k * x * x) for k in range(1, 5))
    return 1.0 - math.sqrt(2.0 * math.pi) / x * sum(
        math.exp(-(2 * k - 1) ** 2 * math.pi ** 2 / (8.0 * x * x)) for k in range(1, 5))
