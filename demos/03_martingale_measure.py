"""Choosing the pricing measure by exponential tilting.

The tilt parameter theta* makes the discounted temperature a martingale
over the contract window.  Under the tilted measure the Gamma-time-changed
noise stays in the same family with drift mu1 + theta and rate b*A1(theta),
which allows exact simulation under the pricing measure -- used here to
verify the discounted-mean identity by Monte Carlo, with theta* passed to
`simulate_cat` as its tilt argument.

The paper also prints a polynomial variant of the root equation.  The demo
looks for its root as a diagnostic: it is not the pricing tilt, and it
often does not exist (the README model has one at -1.74 against
theta* = -0.074 at T = 30, and none from T = 60 on).
"""

import numpy as np
from scipy.optimize import brentq

from tempderiv import (FourCoeffs, GammaTimeChange, ModelParams,
                       SimConfig, a1, k1, martingale_residual, simulate_cat,
                       solve_theta, transformed_timechange)
from tempderiv.charfun import esscher_interval

p = ModelParams(alpha=0.25, t0=-3.0,
                seasonal=FourCoeffs(8.0, 0.0008, -5.9, -12.9),
                vol=FourCoeffs(3.5, 0.0, 0.5, 1.0),
                timechange=GammaTimeChange(1.5, 1.0, 0.3))
rate = 0.02
horizon = 90.0


def printed_variant_root(p, rate, horizon):
    """Root of smallest |theta| of the paper's printed variant

        h(theta) = mu1 + theta + (b/a) e^{(alpha+r~)T} A1(theta)
                   - (b/a) e^{alpha T} A1(theta)^{aT+1} / K2(alpha, T),

    with e^{alpha T}/K2 taken as 1/J, J = int_0^T sigma_u e^{-alpha(T-u)} du.
    The admissible interval, shrunk by 1e-6 of its width at each end, is
    scanned on 257 nodes for sign changes, each solved by Brent's method;
    None when there is none.
    """
    tc = p.timechange
    grow = np.exp((p.alpha + rate / 365.0) * horizon)
    j_int = k1(horizon, p.alpha, p.vol)

    def h(theta):
        a1_theta = a1(theta, tc)
        return tc.mu1 + theta + (tc.b / tc.a) * (
            grow * a1_theta - a1_theta ** (tc.a * horizon + 1.0) / j_int)

    lo, hi = esscher_interval(tc)
    margin = 1e-6 * (hi - lo)
    grid = np.linspace(lo + margin, hi - margin, 257)
    vals = h(grid)
    roots = [brentq(h, left, right) for left, right, v_left, v_right
             in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]) if v_left * v_right < 0.0]
    return min(roots, key=abs) if roots else None


print("Martingale residual g(theta) across the admissible interval:")
for theta in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0):
    try:
        print(f"  g({theta:5.2f}) = {martingale_residual(theta, p, rate, horizon):12.6f}")
    except Exception as exc:
        print(f"  g({theta:5.2f}) : {exc}")

sol = solve_theta(p, rate, horizon)
print(f"\nSolved tilt parameter theta* = {sol.theta:.8f}")
print(f"  residual  |g(theta*)| = {abs(sol.residual):.2e}")
print(f"  printed-variant root (diagnostic): {printed_variant_root(p, rate, horizon)}")

tc_q = transformed_timechange(p.timechange, sol.theta)
print(f"  tilted noise parameters: mu1' = {tc_q.mu1:.6f}, b' = {tc_q.b:.6f} (a unchanged)")

cfg = SimConfig(step=1.0, n_paths=100_000, seed=5)
_, terminal = simulate_cat(p, cfg, int(horizon), sol.theta)
disc = np.exp(-rate / 365.0 * horizon) * terminal
se = np.std(disc, ddof=1) / np.sqrt(disc.size)
print(f"\nMonte Carlo check of E[e^(-rT/365) T_T] under the tilted measure:")
print(f"  sample mean = {np.mean(disc):9.4f}  vs  T0 = {p.t0}   (3 se = {3*se:.4f})")
