"""Seasonal functions and their exponential-kernel integrals.

The model's deterministic inputs are two linear-plus-annual-harmonic
functions: the seasonal mean level s_t and the seasonal volatility
sigma_t.  Everything downstream (solutions, characteristic functions,
the martingale condition) consumes them through two integrals:
K1(t) = int_0^t f(u) e^{-alpha(t-u)} du and K2(T) = int_0^T f(u) e^{alpha u} du.
This demo evaluates the closed forms and certifies them against adaptive
quadrature.
"""

import numpy as np
from scipy.integrate import quad

from tempderiv import FourCoeffs, eval_seasonal, k1, k2

seasonal = FourCoeffs(7.9733, 0.0008223, -5.8796, -12.866)  # Toronto-like fit
vol = FourCoeffs(3.5, 0.0, 0.5, 1.0)
alpha = 0.25

print("Seasonal mean level through the year (deg C):")
for day in (0, 91, 182, 274, 364):
    print(f"  day {day:3d}: s = {eval_seasonal(seasonal, day):8.3f},"
          f"  sigma = {eval_seasonal(vol, day):6.3f}")

print("\nDecaying-kernel integral K1(t) vs adaptive quadrature:")
for t in (10.0, 90.0, 365.0):
    closed = k1(t, alpha, seasonal)
    oracle = quad(lambda u: eval_seasonal(seasonal, u) * np.exp(-alpha * (t - u)), 0.0, t,
                  epsabs=1e-12, epsrel=1e-11, limit=200)[0]
    print(f"  t={t:6.1f}: closed={closed:14.8f}  quadrature={oracle:14.8f}"
          f"  rel err={abs(closed-oracle)/abs(oracle):.2e}")

print("\nGrowing-kernel integral K2(T) vs adaptive quadrature:")
for t in (10.0, 90.0):
    closed = k2(t, alpha, vol)
    oracle = quad(lambda u: eval_seasonal(vol, u) * np.exp(alpha * u), 0.0, t,
                  epsabs=1e-12, epsrel=1e-11, limit=200)[0]
    print(f"  T={t:6.1f}: closed={closed:16.6f}  quadrature={oracle:16.6f}"
          f"  rel err={abs(closed-oracle)/abs(oracle):.2e}")

print("\nThe harmonic terms integrate with denominator alpha^2 + (2pi/365)^2;")
print("a 1000-draw certification of both kernels runs in the test suite.")
