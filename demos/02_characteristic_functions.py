"""Characteristic functions of the temperature and of the CAT index.

The temperature follows dT = alpha(s_t - T)dt + sigma_t dV with
V = B_{R_t} + mu1 R_t driven by a Gamma clock.  Its characteristic
function is an explicit phase factor times an integral of the V cumulant
exponent.  The library evaluates the cumulated temperature (CAT) over T
days exactly, by exchanging the day sum with the stochastic integral.
This demo also builds the paper's day-product form, which treats the daily
increments as independent: day j's kernel is weighted by gamma_j = T - j
instead of the geometric sum of the exact kernel.  Against simulation its
error is plain to see.
"""

import numpy as np

from tempderiv import (FourCoeffs, GammaTimeChange, ModelParams, SimConfig,
                       cat_cumulants, charfun_T, charfun_cat, eval_seasonal, simulate_cat)
from tempderiv.charfun import UNIT_NODES, tilted_exponent_sum

p = ModelParams(alpha=0.25, t0=-3.0,
                seasonal=FourCoeffs(8.0, 0.0008, -5.9, -12.9),
                vol=FourCoeffs(3.5, 0.0, 0.5, 1.0),
                timechange=GammaTimeChange(1.5, 1.0, 0.3))


def day_product_charfun(u: float, horizon_T: int) -> complex:
    """The day-product CAT charfun: on day j, at s = j + x_n, the kernel
    sigma_s e^{-alpha(1 - x_n)} times gamma_j = T - j, summed day by day."""
    days = np.arange(horizon_T, dtype=float)
    s = days[:, None] + UNIT_NODES
    gamma = (horizon_T - days)[:, None]
    kern = eval_seasonal(p.vol, s) * np.exp(-p.alpha * (1.0 - UNIT_NODES)) * gamma
    det_sum = np.sum(p.det_mean(days + 1.0))
    exponent = tilted_exponent_sum(kern, np.array([u]), p.timechange, pieces=np.ones(horizon_T))
    return complex(np.exp(1j * u * det_sum + exponent[0]))


print("Characteristic function of T_t at t = 30 days:")
for u in (0.05, 0.1, 0.2):
    print(f"  phi({u:4.2f}) = {charfun_T(u, 30.0, p):.6f}   |phi| = {abs(charfun_T(u, 30.0, p)):.6f}")

print("\nMonte Carlo cross-check of the CAT charfun (60 days, 50k paths):")
xi, _ = simulate_cat(p, SimConfig(step=1.0, n_paths=50_000, seed=7), 60)
for u in (0.001, 0.005):
    emp = np.mean(np.exp(1j * u * xi))
    exact = charfun_cat(u, p, 0.0, 60)
    product = day_product_charfun(u, 60)
    se = np.sqrt((1 - abs(emp) ** 2) / xi.size)
    print(f"  u={u:<6}: exact-kernel |err| = {abs(exact-emp):.2e} (3se = {3*se:.2e});"
          f" day-product deviation = {abs(product-exact):.3f}")
print("  -> the exact-kernel form matches simulation; the independence")
print("     treatment behind the product form is a visible approximation.")

mean, var = cat_cumulants(p, 0.0, 60)
print(f"\nCAT cumulants from the charfun: mean = {mean:.3f}, sd = {np.sqrt(var):.3f}")
print(f"Sample moments from simulation:  mean = {np.mean(xi):.3f}, sd = {np.std(xi):.3f}")
