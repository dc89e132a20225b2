"""Pricing a CAT strangle with the Fourier-cosine expansion.

The CAT density is reconstructed from its characteristic function on a
cumulant-based truncation interval; the call/put payoff integrals against
the cosine basis are closed forms, so the price is a dot product.  A
100k-path Monte Carlo run under the same tilted measure cross-checks the
result, and a term-count sweep shows the spectral convergence.
"""

import numpy as np

from tempderiv import (ContractSpec, CosGrid, FourCoeffs, GammaTimeChange,
                       ModelParams, SimConfig, cat_cumulants,
                       charfun_cat, density_from_charfun, mc_price_cat,
                       price_strangle, solve_theta, truncation_bounds)

p = ModelParams(alpha=0.25, t0=12.0,
                seasonal=FourCoeffs(12.0, 0.0008, -5.9, -4.0),
                vol=FourCoeffs(3.5, 0.0, 0.5, 1.0),
                timechange=GammaTimeChange(1.5, 1.0, 0.3))
contract = ContractSpec(horizon_T=60, k1_strike=820.0, k2_strike=680.0,
                        d1=1.0, d2=1.0, rate_r=0.02)

theta = solve_theta(p, contract.rate_r, float(contract.horizon_T)).theta
mean, var = cat_cumulants(p, theta, contract.horizon_T)
b1, b2 = truncation_bounds(mean, var, 10.0)
grid = CosGrid(b1, b2, 256, 256)
print(f"Tilted CAT law: mean = {mean:.2f}, sd = {np.sqrt(var):.2f}")
print(f"Truncation interval: [{b1:.1f}, {b2:.1f}]")

xs = np.linspace(mean - 4 * np.sqrt(var), mean + 4 * np.sqrt(var), 9)
dens = density_from_charfun(
    lambda u: charfun_cat(u, p, theta, contract.horizon_T), grid, xs, 256)
print("\nReconstructed CAT density (under the pricing measure):")
for x, d in zip(xs, dens):
    print(f"  f({x:8.2f}) = {d:.6f}")

price = price_strangle(contract, p, theta, grid).price
mc, se = mc_price_cat(contract, p, theta, SimConfig(step=1.0, n_paths=100_000, seed=21))
print(f"\nStrangle price (COS, 256 terms): {price:.6f}")
print(f"Monte Carlo cross-check:         {mc:.6f} +/- {se:.6f}")
print(f"|difference| / stderr = {abs(price - mc) / se:.2f}")

print("\nSpectral convergence in the term count:")
for n in (16, 32, 64, 128, 256):
    pn = price_strangle(contract, p, theta, CosGrid(b1, b2, n, n)).price
    print(f"  N = {n:3d}: price = {pn:.10f}")
