"""The normal CDF, by Cody's erfc, the Kolmogorov survival function and the
Student t law: the special functions of `simulate`, of `data`'s KS test and of
`calibrate`'s seasonal fit, which share no import."""

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
    two factors so that x^2 is not rounded; erfc(-y) = 2 - erfc(y).  Each
    branch gathers its indices once; NaN takes the last branch."""
    x = np.asarray(x, float)
    flat = x.ravel()
    y = np.abs(flat)
    out = np.empty_like(y)
    small = np.flatnonzero(y <= 0.46875)
    mid = np.flatnonzero((y > 0.46875) & (y <= 4.0))
    tail = np.flatnonzero(~(y <= 4.0))
    xs = flat[small]
    out[small] = 1.0 - xs * _cody_ratio(xs * xs, _ERF_A, _ERF_B)
    ym = y[mid]
    out[mid] = _cody_ratio(ym, _ERFC_C, _ERFC_D) * _gauss(ym)
    yt = y[tail]
    z = 1.0 / (yt * yt)
    out[tail] = (_INV_SQRT_PI - z * _cody_ratio(z, _ERFC_P, _ERFC_Q)) / yt * _gauss(yt)
    return np.where(flat < -0.46875, 2.0 - out, out).reshape(x.shape)


def _gauss(y: np.ndarray) -> np.ndarray:
    """e^{-y^2} as e^{-s^2} e^{(s - y)(y + s)} with s = y rounded down to 1/16."""
    s = np.trunc(y * 16.0) / 16.0
    return np.exp(-s * s) * np.exp((s - y) * (y + s))


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


# lgamma(a + 1/2) - lgamma(a) - log(a)/2 = sum_k c_k a^(1-2k), k = 1..5: the
# (-1)^n (2^(1-n) - 2) B_n / (n (n-1)) of Stirling's series, with B_n Bernoulli's
# numbers and n = 2k; the next term is below 2e-17 from a = 20 up
_HALF_SHIFT = (-1.0 / 8.0, 1.0 / 192.0, -1.0 / 640.0, 17.0 / 14336.0, -31.0 / 18432.0)


def _inv_beta_half(a: float) -> float:
    """1 / B(a, 1/2) = Gamma(a + 1/2) / (Gamma(a) sqrt(pi)), as a ratio of gammas
    below a = 20 and by the series of their logarithms above, which keeps the
    difference of two large lgamma values out."""
    if a < 20.0:
        return math.gamma(a + 0.5) / math.gamma(a) / math.sqrt(math.pi)
    z = 1.0 / (a * a)
    s = 0.0
    for c in reversed(_HALF_SHIFT):
        s = s * z + c
    return math.sqrt(a / math.pi) * math.exp(s / a)


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """F in I_x(a, b) = x^a y^b / (a B(a, b) F), y = 1 - x: the odd part of the
    incomplete beta continued fraction (DiDonato & Morris 1992, ACM TOMS 18),
    F = (1 + d_1) - d_1 d_2 / ((1 + d_3) + d_2 - d_3 d_4 / ((1 + d_5) + d_4 - ...)),
    d_(2m+1) = -(a+m)(a+b+m) x / ((a+2m)(a+2m+1)), d_(2m) = m(b-m) x / ((a+2m-1)(a+2m)),
    by the modified Lentz method.  For x > 1/2, 1 + d_(2m+1) is formed from y as
    (a(2m+1-b) + m(3m+2-b) + (a+m)(a+b+m) y) / ((a+2m)(a+2m+1)), so that a large a
    cancels nothing."""
    complement = x > 0.5
    q = a * (a + b)
    den = a * (a + 1.0)
    f = c = (a * (1.0 - b) + q * y if complement else den - q * x) / den or 1e-300
    d = 0.0
    for k in range(1, 1000):
        even = k * (b - k) * x / ((a + 2 * k - 1) * (a + 2 * k))
        alpha = q * x / den * even
        q = (a + k) * (a + b + k)
        den = (a + 2 * k) * (a + 2 * k + 1)
        beta = (a * (2 * k + 1 - b) + k * (3 * k + 2 - b) + q * y if complement
                else den - q * x) / den + even
        d = 1.0 / (beta + alpha * d or 1e-300)
        c = beta + alpha / c or 1e-300
        f *= c * d
        if abs(c * d - 1.0) <= 2e-16:
            break
    return f


def _t_tails(t: float, dof: float) -> tuple[float, float]:
    """(P(|T| >= |t|), P(|T| < |t|)) for Student's t with dof >= 1 degrees of
    freedom, each to a relative error of about 1e-13 or better: the two-sided
    tail is I_x(dof/2, 1/2) with x = dof/(dof + t^2), summed by its continued
    fraction where (dof/2 + 5/2) t^2/(dof + t^2) >= 2 and as 1 - I_(1-x)(1/2, dof/2)
    nearer 0, at every dof alike.  Where t^2/dof passes 1e300, x is 1/w and
    log(1 + w) is 2 log(|t|/sqrt(dof)), so that nothing overflows."""
    t = abs(float(t))
    a = 0.5 * dof
    w = t * t / dof
    if w < 1e300:
        x, y, log1p_w = 1.0 / (1.0 + w), w / (1.0 + w), math.log1p(w)
    else:
        s = t / math.sqrt(dof)
        x, y, log1p_w = 1.0 / s / s, 1.0, 2.0 * math.log(s)
    lead = math.sqrt(y) * math.exp(-a * log1p_w) * _inv_beta_half(a)
    if (a + 2.5) * y >= 2.0:
        tail = lead / (a * _beta_fraction(a, 0.5, x, y))
        return tail, 1.0 - tail
    inner = 2.0 * lead / _beta_fraction(0.5, a, y, x)
    return 1.0 - inner, inner


def _norm_upper_quantile(q: float) -> float:
    """The z with P(Z > z) = q, 0 < q <= 1/2, to about 1e-7: Hastings' rational
    approximation (Abramowitz & Stegun 26.2.23, error below 4.5e-4), then one
    Newton step on erfc."""
    s = math.sqrt(-2.0 * math.log(q))
    z = s - ((0.010328 * s + 0.802853) * s + 2.515517) / (
        ((0.001308 * s + 0.189269) * s + 1.432788) * s + 1.0)
    return z + (0.5 * math.erfc(z / math.sqrt(2.0)) - q) * math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z)


def _t_quantile(p: float, dof: float) -> float:
    """The t with P(T <= t) = p, 1/2 <= p < 1, for Student's t with dof >= 1, by
    Newton's method on `_t_tails` from the normal quantile z_p, stopped after a
    step below 1e-8 of t (the error after it is of the order of that step
    squared).  F(t) - p is concave on t > 0, where the density falls, and z_p
    lies below the root, so the iterates rise to it without passing it; a start
    a little high (z_p's error of about 1e-7, at very large dof near p = 1/2)
    steps once below the root first.  The most steps, 54 of the 100 allowed,
    are at dof = 1 and p = 1 - 2^-53, where far from the root each about
    doubles t."""
    q = 1.0 - p
    if q == 0.5:
        return 0.0
    t = _norm_upper_quantile(q)
    scale = _inv_beta_half(0.5 * dof) / math.sqrt(dof)
    for _ in range(100):
        tail, inner = _t_tails(t, dof)
        # F(t) - p, from whichever of the two tails is the smaller
        excess = q - 0.5 * tail if tail <= inner else 0.5 * inner - (p - 0.5)
        step = excess / (scale * math.exp(-0.5 * (dof + 1.0) * math.log1p(t * t / dof)))
        t -= step
        if abs(step) <= 1e-8 * t:
            break
    return t
