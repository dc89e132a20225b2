"""End-to-end calibration on synthetic data with known truth.

Simulate ten thousand days from known parameters, then run the estimation
pipeline: seasonal OLS (with autocorrelation-adjusted intervals), the
autoregression for the mean-reversion rate, and the characteristic-function
distance fit of the Gamma time change, seeded by the closed-form
method-of-moments inversion.  Each fit is one Levenberg-Marquardt solve and
reports its status and how many residual and closed-form Jacobian
evaluations it took.
"""

import numpy as np

from tempderiv import (FourCoeffs, GammaTimeChange, ModelParams, SimConfig,
                       fit_alpha, fit_seasonal, fit_timechange, simulate_paths)

truth = ModelParams(alpha=0.25, t0=-5.0,
                    seasonal=FourCoeffs(8.0, 0.0008, -6.0, -13.0),
                    vol=FourCoeffs(1.0, 0.0, 0.0, 0.0),
                    timechange=GammaTimeChange(1.5, 1.0, 0.2),
                    horizon=10_001.0)

_, paths = simulate_paths(truth, SimConfig(step=1.0, n_paths=1, seed=42), 10_000.0)
series = paths[0]
print(f"Simulated {series.size} daily observations "
      f"(range {series.min():.1f} .. {series.max():.1f} deg C)")

seasonal = fit_seasonal(series)
print("\nSeasonal OLS fit (AR(1)-adjusted 95% intervals):")
for name, est, lo, hi in zip(seasonal.names, seasonal.params,
                             seasonal.ci_low, seasonal.ci_high):
    print(f"  {name}: {est:11.5f}   CI [{lo:10.5f}, {hi:10.5f}]")
print(f"  residual lag-1 autocorrelation: {seasonal.rho1:.4f}"
      f"  (theory e^-alpha = {np.exp(-0.25):.4f})")

alpha_fit = fit_alpha(seasonal)
print(f"\nMean-reversion rate: alpha_hat = {alpha_fit.alpha:.5f}  (truth 0.25)")

tch = fit_timechange(seasonal.residuals, alpha=alpha_fit.alpha, vol_shape="constant")
print("\nGamma time-change fit (CF-distance, method-of-moments seed):")
print(f"  a    = {tch.a:8.4f}   (truth 1.5)")
print(f"  b    = {tch.b:8.4f}   (truth 1.0)")
print(f"  mu1  = {tch.mu1:8.4f}   (truth 0.2)")
print(f"  seed from moments: a0={tch.init[0]:.3f}, b0={tch.init[1]:.3f}, mu0={tch.init[2]:.3f}")
print(f"  objective at optimum: {tch.objective:.3e}")


def print_solve(fit):
    print(f"  solve: status {fit.status}, {fit.nfev} residual and "
          f"{fit.njev} Jacobian evaluations")
    print(f"  at the search-box wall: {', '.join(fit.at_bound) or 'none'}")


print_solve(tch)

seasonal_tch = fit_timechange(seasonal.residuals, alpha=alpha_fit.alpha, vol_shape="seasonal")
c0 = seasonal_tch.vol.k0
print("\nWith a seasonal volatility profile (vol level c0 pinned at the profile's value):")
print(f"  a = {seasonal_tch.a:.4f}, b/c0^2 = {seasonal_tch.b / c0**2:.4f}, "
      f"mu1/c0 = {seasonal_tch.mu1 / c0:.4f}")
print_solve(seasonal_tch)
