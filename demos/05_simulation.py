"""Exact-law trajectory simulation.

One step combines the exact mean-reverting decay, the closed-form seasonal
drift integral, and a Gamma-clock noise increment whose mean and variance
are the model's.  Paths are reproducible: a run draws its Gamma clock and
its normals from two streams keyed by the seed, one path after another, so
the same configuration always yields the same trajectories regardless of
how many paths are requested.
"""

import numpy as np

from tempderiv import (FourCoeffs, GammaTimeChange, ModelParams, SimConfig,
                       simulate_paths)

p = ModelParams(alpha=0.25, t0=-3.0,
                seasonal=FourCoeffs(8.0, 0.0008, -5.9, -12.9),
                vol=FourCoeffs(3.5, 0.0, 0.5, 1.0),
                timechange=GammaTimeChange(1.5, 1.0, 0.3),
                horizon=365.0)

cfg = SimConfig(step=1.0, n_paths=2000, seed=2018)
times, paths = simulate_paths(p, cfg, 365.0)

print("A simulated year of daily temperatures (first path, every 30 days):")
print("  day   simulated   seasonal level")
for j in range(0, 361, 30):
    print(f"  {int(times[j]):3d}   {paths[0, j]:8.2f}   {p.det_mean(times[j]):8.2f}")

print("\nCross-sectional spread vs the deterministic curve (2000 paths):")
for j in (30, 180, 330):
    spread = np.std(paths[:, j])
    print(f"  day {int(times[j]):3d}: mean = {np.mean(paths[:, j]):7.2f},"
          f" sd = {spread:5.2f}, deterministic = {p.det_mean(times[j]):7.2f}")

_, again = simulate_paths(p, cfg, 365.0)
print(f"\nBit-identical on repeat with the same seed: {np.array_equal(paths, again)}")

_, more = simulate_paths(p, SimConfig(step=1.0, n_paths=5000, seed=2018), 365.0)
print(f"First 2000 of a 5000-path run identical to the 2000-path run: "
      f"{np.array_equal(paths, more[:2000])}")

print("\nMean-reversion sweep: faster reversion hugs the seasonal curve tighter.")
for alpha in (0.05, 0.25, 0.8):
    pa = ModelParams(alpha=alpha, t0=p.t0, seasonal=p.seasonal, vol=p.vol,
                     timechange=p.timechange, horizon=365.0)
    _, pp = simulate_paths(pa, SimConfig(step=1.0, n_paths=500, seed=1), 365.0)
    dev = np.mean(np.abs(pp[:, 180:] - p.det_mean(times[180:])[None, :]))
    print(f"  alpha = {alpha:4.2f}: mean |deviation from seasonal curve| = {dev:6.2f}")
